"""Spectrum laws under the standard constructions: restriction, transpose
dual, character rotation, and direct sums."""

import numpy as np
import pytest

import ergospec as es
from ergospec.config import DEFAULT_CONFIG
from ergospec.ensembles import random_certified_instance

import derived
from conftest import cyclic_monoid, monoid_pool


def char_set(spectrum):
    return [chi for chi in spectrum.characters]


def same_char_sets(lhs, rhs):
    if len(lhs) != len(rhs):
        return False
    for chi in lhs:
        if not any(es.char_distance(chi, tau) <= DEFAULT_CONFIG.tol_cluster
                   for tau in rhs):
            return False
    return True


def instance_pool(count, base_seed=1000):
    reps = []
    for idx in range(count):
        if idx % 3 == 2:
            monoid = monoid_pool()[idx % len(monoid_pool())]
            reps.append(es.regular_representation(monoid))
        else:
            rep, _ = random_certified_instance(base_seed + idx, max_rank=2,
                                               max_dim=10)
            reps.append(rep)
    return reps


def random_character(rep, rng):
    if rep.is_finite:
        dual = es.enumerate_unitary_dual(rep.semigroup)
        return dual[int(rng.integers(0, len(dual)))]
    values = np.exp(2j * np.pi * rng.random(rep.semigroup.rank))
    return es.character_from_gen_values(rep.semigroup, values)


@pytest.mark.parametrize("seed", range(8))
def test_dual_has_same_spectrum(seed):
    rep = instance_pool(8, 2000)[seed]
    lhs = char_set(es.unitary_spectrum(rep))
    rhs = char_set(es.unitary_spectrum(derived.dual_representation(rep)))
    assert same_char_sets(lhs, rhs)


@pytest.mark.parametrize("seed", range(8))
def test_rotation_shifts_spectrum(seed):
    rng = np.random.default_rng(seed)
    rep = instance_pool(8, 3000)[seed]
    chi = random_character(rep, rng)
    rotated = es.unitary_spectrum(derived.rotate(rep, chi))
    shifted = [derived.char_mul(chi, tau)
               for tau in es.unitary_spectrum(rep).characters]
    assert same_char_sets(char_set(rotated), shifted)


@pytest.mark.parametrize("seed", range(8))
def test_direct_sum_unions_spectra(seed):
    pool = instance_pool(8, 4000)
    rep1 = pool[seed]
    # pair with a same-semigroup partner: rotate by a random character
    rng = np.random.default_rng(seed)
    rep2 = derived.rotate(rep1, random_character(rep1, rng))
    total = derived.direct_sum(rep1, rep2)
    union = char_set(es.unitary_spectrum(rep1)) \
        + [chi for chi in es.unitary_spectrum(rep2).characters]
    deduped = []
    for chi in union:
        if not any(es.char_distance(chi, tau) <= DEFAULT_CONFIG.tol_cluster
                   for tau in deduped):
            deduped.append(chi)
    assert same_char_sets(char_set(es.unitary_spectrum(total)), deduped)


@pytest.mark.parametrize("seed", range(8))
def test_restriction_spectrum_contained(seed):
    rep = instance_pool(8, 5000)[seed]
    decomposition = es.Analysis(rep).decomposition
    full = es.unitary_spectrum(rep)
    if decomposition.reversible.dim == 0:
        return
    sub = es.restrict(rep, decomposition.reversible)
    for chi in es.unitary_spectrum(sub).characters:
        assert full.index(chi) is not None


def test_restriction_to_eigenspace_is_character():
    monoid = cyclic_monoid(4)
    rep = es.regular_representation(monoid)
    spectrum = es.unitary_spectrum(rep)
    for chi, space in zip(spectrum.characters, spectrum.eigenspaces):
        sub = es.restrict(rep, space)
        for s in monoid.elements():
            assert abs(sub.matrices[s][0, 0] - chi(s)) < 1e-9
