import math

import numpy as np
import pytest
import scipy.linalg

import ergospec as es
from ergospec import representations
from ergospec.config import DEFAULT_CONFIG, ToleranceConfig
from ergospec.errors import (
    BadNeutral,
    HomomorphismViolation,
    MismatchedSemigroup,
    NotCommuting,
    NotInvariant,
)
from ergospec.linalg import Subspace
from ergospec.representations import representation_from_generators

from conftest import chain_monoid, cyclic_monoid, free, n1_rep, product_monoid


def test_validate_klein_permutation_rep(klein_rep):
    assert klein_rep.dim == 4
    assert klein_rep.boundedness.is_certified


def test_validate_free_scalars():
    rep = es.validate_representation(free(2), [np.array([[1j]]), np.array([[-1.0]])])
    assert rep.dim == 1


def test_bad_neutral_matrix(klein_monoid):
    mats = [2.0 * np.eye(4) for _ in range(4)]
    with pytest.raises(BadNeutral):
        es.validate_representation(klein_monoid, mats)


def test_homomorphism_violation(klein_monoid, klein_rep):
    mats = [a.copy() for a in klein_rep.matrices]
    mats[3] = np.eye(4, dtype=complex)  # breaks M[1] M[2] = M[3]
    with pytest.raises(HomomorphismViolation):
        es.validate_representation(klein_monoid, mats)


def test_generators_must_commute():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(NotCommuting):
        es.validate_representation(free(2), [a, b])


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_commutation_is_decided_at_tol_hom_times_the_norms(factor):
    # commutation is the homomorphism law of N^k, decided at
    # tol_hom * max(1, ||a||) * max(1, ||b||); here ||a|| = 3,
    # ||b|| = 2 + O(t) and ||a b - b a|| = 2t
    config = ToleranceConfig(tol_hom=1e-6)
    a = np.diag([3.0, 1.0])
    t = factor * config.tol_hom * 3.0
    b = np.array([[2.0, t], [0.0, 2.0]])
    residual = es.operator_norm(a @ b - b @ a)
    assert (residual <= config.tol_hom * 3.0 * es.operator_norm(b)) == (factor < 1)
    if factor < 1:
        assert es.validate_representation(free(2), [a, b], config).dim == 2
    else:
        with pytest.raises(NotCommuting):
            es.validate_representation(free(2), [a, b], config)


def test_from_generators_matches_direct(klein_monoid, klein_rep):
    rebuilt = representation_from_generators(
        klein_monoid, [1, 2], [klein_rep.matrices[1], klein_rep.matrices[2]])
    for a, b in zip(rebuilt.matrices, klein_rep.matrices):
        np.testing.assert_allclose(a, b)


def test_from_generators_requires_generating_set(klein_monoid, klein_rep):
    with pytest.raises(ValueError, match="missing"):
        representation_from_generators(klein_monoid, [0], [np.eye(4)])


def test_certify_shear_unbounded():
    rep = es.validate_representation(free(1), [np.array([[1.0, 1.0], [0.0, 1.0]])])
    rep = es.certify_boundedness(rep)
    assert rep.boundedness.status == "unbounded"
    assert rep.boundedness.witness == (1,)
    # the witness direction really grows
    norms = [es.operator_norm(np.linalg.matrix_power(rep.matrices[0], t))
             for t in (1, 4, 16)]
    assert norms[2] > norms[1] > norms[0]


def test_certify_contractive_jordan():
    rep = n1_rep(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    assert rep.boundedness.is_certified


def test_certify_unitary_diagonals():
    rep = es.validate_representation(
        free(2), [np.diag([1.0, 1j]), np.diag([-1.0, 1.0])])
    assert es.certify_boundedness(rep).boundedness.is_certified


def test_certify_modulus_above_one():
    rep = es.validate_representation(free(1), [np.diag([1.2, 0.5])])
    rep = es.certify_boundedness(rep)
    assert rep.boundedness.status == "unbounded"


def test_certified_norms_stay_bounded_on_grid():
    from ergospec.ensembles import random_certified_instance
    rep, _ = random_certified_instance(17, max_rank=2, max_dim=8)
    exponents = [0, 1, 2, 4, 8, 16, 32, 64]
    worst = 0.0
    for a in exponents:
        for b in exponents:
            worst = max(worst, es.operator_norm(rep.matrix((a, b))))
    assert worst < 10.0  # similarity condition is ~3, no growth permitted


def _unimodular(rng, real):
    return rng.choice([-1.0, 1.0]) if real else np.exp(2j * np.pi * rng.random())


def _rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


def _random_orthogonal(rng, n, real):
    a = rng.standard_normal((n, n))
    if not real:
        a = a + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _near_threshold_instance(seed, real=False):
    """Generators of a planted N^k input (k <= 3, n <= 12) near the
    certificate's thresholds, and for each generator whether it is
    unbounded; real data when `real`.

    Cells of size 1 to 3 on which generator j acts as alpha_j I + nu_j N, N
    the nilpotent shift, conjugated by a similarity S with kappa(S) <= 1e3,
    real orthogonal factors for real data. A generator is unbounded exactly
    when one of its cells is a unimodular Jordan pair (1e-6 <= nu <= 100) or
    has modulus 1 + 1e-7 to 1 + 1e-3. Bounded cells are unimodular scalars,
    pairs of distinct unimodular values 1e-7 to 1e-4 apart (for real data
    two rotations whose angles differ by that much), and values of modulus at most 1 - 1e-6,
    with or without a Jordan part. Rounding splits a cell of size s by
    about (nu^(s-1) kappa eps)^(1/s): a Jordan pair with nu kappa > 1 is
    split beyond tol_cluster, for real data along the real axis or across
    it, while contracting cells stay below modulus 1 - 1e-6, those of size
    3 at modulus 0.99 or less."""
    rng = np.random.default_rng([15, seed, int(real)])
    k = int(rng.integers(1, 4))
    n_max = int(rng.integers(2, 13))
    kappa = 10 ** rng.uniform(0, 3)
    cells, unbounded = [], [False] * k   # per cell, one block per generator
    n = 0
    while n < n_max:
        width = 4 if real else 2
        if n_max - n >= width and rng.random() < 0.15:
            j = int(rng.integers(k))
            gap = 10 ** rng.uniform(-7, -4)
            if real:
                angle = rng.uniform(0.2, np.pi - 0.2)
                pair = scipy.linalg.block_diag(_rotation(angle), _rotation(angle + gap))
            else:
                pair = _unimodular(rng, real) * np.diag([1, np.exp(1j * gap)])
            cells.append([pair if i == j else
                          rng.uniform(0.1, 0.9) * _unimodular(rng, real) * np.eye(width)
                          for i in range(k)])
            n += width
            continue
        size = int(rng.integers(1, min(3, n_max - n) + 1))
        shift = np.diag(np.ones(size - 1), 1)
        blocks = []
        for j in range(k):
            kind = rng.choice(["unimodular", "contracting", "jordan", "expanding"],
                              p=[0.4, 0.4, 0.1, 0.1])
            alpha, nu = _unimodular(rng, real), 0.0
            if kind == "contracting":
                if size == 3:
                    alpha *= 1 - 10 ** rng.uniform(-2, -0.2)
                    nu = rng.uniform(0, 1)
                else:
                    alpha *= 1 - 10 ** rng.uniform(-6, -0.2)
                    nu = rng.uniform(0, 1 / kappa)
                nu = nu if rng.random() < 0.5 else 0.0
            elif kind == "jordan" and size == 2:
                nu = 10 ** rng.uniform(-6, 2)
                unbounded[j] = True
            elif kind == "expanding":
                alpha *= 1 + 10 ** rng.uniform(-7, -3)
                unbounded[j] = True
            blocks.append(alpha * np.eye(size) + nu * shift)
        cells.append(blocks)
        n += size
    mats = [scipy.linalg.block_diag(*blocks) for blocks in zip(*cells)]
    sigma = 10 ** rng.uniform(0, np.log10(kappa), size=n)
    sigma[0], sigma[-1] = 1.0, kappa
    s = _random_orthogonal(rng, n, real) @ np.diag(sigma) @ _random_orthogonal(rng, n, real)
    s_inv = np.linalg.inv(s)
    return [s @ a @ s_inv for a in mats], unbounded


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_certificate_matches_planted_truth_near_the_thresholds(real):
    wrong, bounded_witnesses = [], []
    for seed in range(1500):
        generators, unbounded = _near_threshold_instance(seed, real)
        rep = es.validate_representation(free(len(generators)), generators)
        cert = es.certify_boundedness(rep).boundedness
        if cert.is_certified == any(unbounded):
            wrong.append((seed, cert.status, unbounded))
        if not cert.is_certified and not unbounded[cert.witness.index(1)]:
            bounded_witnesses.append((seed, cert.witness, unbounded))
    assert wrong == []
    assert bounded_witnesses == []


def test_rotate_by_trivial_character(klein_rep):
    one = es.trivial_character(klein_rep.semigroup)
    rotated = es.rotate(klein_rep, one)
    for a, b in zip(rotated.matrices, klein_rep.matrices):
        np.testing.assert_allclose(a, b)


def test_rotate_klein_by_chi(klein_rep):
    dual = es.enumerate_unitary_dual(klein_rep.semigroup)
    chi = [c for c in dual
           if tuple(int(round(v.real)) for v in c.values()) == (1, -1, 1, -1)][0]
    rotated = es.rotate(klein_rep, chi)
    np.testing.assert_allclose(rotated.matrices[1], -klein_rep.matrices[1])
    np.testing.assert_allclose(rotated.matrices[2], klein_rep.matrices[2])


def test_rotate_diag_i_to_identity():
    rep = n1_rep(np.diag([1j]))
    chi = es.character_from_gen_values(rep.semigroup, [-1j])
    rotated = es.rotate(rep, chi)
    np.testing.assert_allclose(rotated.matrices[0], np.eye(1))


def test_rotate_round_trip(klein_rep):
    dual = es.enumerate_unitary_dual(klein_rep.semigroup)
    for chi in dual:
        back = es.rotate(es.rotate(klein_rep, chi), es.char_conj(chi))
        for a, b in zip(back.matrices, klein_rep.matrices):
            assert es.operator_norm(a - b) <= 1e-12


def test_rotate_mismatched_semigroup(klein_rep):
    chi = es.character_from_gen_values(free(1), [1j])
    with pytest.raises(MismatchedSemigroup):
        es.rotate(klein_rep, chi)


def test_restrict_klein_to_chi_line(klein_rep):
    vec = np.array([1.0, -1.0, 0.0, 0.0], dtype=complex) / np.sqrt(2)
    space = Subspace(vec.reshape(4, 1))
    sub = es.restrict(klein_rep, space)
    values = [complex(a[0, 0]) for a in sub.matrices]
    assert values == pytest.approx([1, -1, 1, -1])


def test_restrict_rejects_non_invariant(klein_rep):
    vec = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(NotInvariant):
        es.restrict(klein_rep, Subspace(vec.reshape(4, 1)))


def test_dual_is_transpose_involution(klein_rep):
    back = es.dual_representation(es.dual_representation(klein_rep))
    for a, b in zip(back.matrices, klein_rep.matrices):
        np.testing.assert_allclose(a, b)


def test_direct_sum_diagonal_characters(klein_monoid):
    dual = es.enumerate_unitary_dual(klein_monoid)
    chi, tau = dual[1], dual[2]
    rep1 = es.validate_representation(
        klein_monoid, [np.array([[v]]) for v in chi.values()])
    rep2 = es.validate_representation(
        klein_monoid, [np.array([[v]]) for v in tau.values()])
    total = es.direct_sum(rep1, rep2)
    assert total.dim == 2
    es.validate_representation(klein_monoid, total.matrices)  # still valid
    for a, v1, v2 in zip(total.matrices, chi.values(), tau.values()):
        np.testing.assert_allclose(a, np.diag([v1, v2]))


def test_regular_representation_is_valid_and_positive(threshold_monoid):
    rep = es.regular_representation(threshold_monoid)
    assert rep.boundedness.is_certified
    assert es.check_positive(rep).is_positive


def test_matrix_of_free_element():
    rep = n1_rep(np.diag([0.25, 1.0]).astype(complex))
    np.testing.assert_allclose(rep.matrix((3,)), np.diag([0.25**3, 1.0]))
    np.testing.assert_allclose(rep.matrix((0,)), np.eye(2))


def _conjugated_regular(monoid, seed):
    """The regular representation in a seeded dense unitary basis."""
    rng = np.random.default_rng(seed)
    m = monoid.size
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return [q.conj().T @ a @ q for a in es.regular_representation(monoid).matrices], rng


def _verdict(monoid, mats):
    try:
        es.validate_representation(monoid, mats)
    except HomomorphismViolation as exc:
        return exc.s, exc.t, exc.residual
    return "accept"


def _all_pairs_verdict(monoid, mats, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(representations, "_homomorphism_bound", lambda *args: math.inf)
        return _verdict(monoid, mats)


def _threshold(holds, low, high):
    """The eps in [low, high] where holds(eps) turns false, by bisection in
    log scale; holds(low) is true and holds(high) false."""
    for _ in range(60):
        mid = math.sqrt(low * high)
        low, high = (mid, high) if holds(mid) else (low, mid)
    return high


@pytest.mark.parametrize("kind", ["generator", "product"])
def test_certificate_and_all_pairs_agree_across_the_thresholds(monkeypatch, kind):
    # L2 x Z3 with its two generators; one T_s, s the first generator or
    # the sum of both, is moved by eps along a seeded unit direction, across
    # the certificate's threshold tol_hom / 2 on its bound and across the
    # all-pairs threshold on the residuals
    monoid = product_monoid(chain_monoid(2), cyclic_monoid(3))
    generators = monoid.generators
    assert len(generators) == 2
    element = generators[0] if kind == "generator" else monoid.add(*generators)
    assert (element in generators) == (kind == "generator")
    base, rng = _conjugated_regular(monoid, 11)
    direction = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    direction /= np.linalg.norm(direction)

    def perturbed(eps):
        mats = list(base)
        mats[element] = mats[element] + eps * direction
        return mats

    tol = DEFAULT_CONFIG.tol_hom
    eta = es.operator_norm(base[monoid.neutral] - np.eye(6))

    def certified(eps):
        return representations._homomorphism_bound(monoid, perturbed(eps), eta) <= tol / 2

    def all_pairs_accept(eps):
        return _all_pairs_verdict(monoid, perturbed(eps), monkeypatch) == "accept"

    eps_certificate = _threshold(certified, 1e-14, 1.0)
    eps_all_pairs = _threshold(all_pairs_accept, 1e-14, 1.0)
    assert eps_certificate < eps_all_pairs

    bounds = []
    bound = representations._homomorphism_bound
    monkeypatch.setattr(representations, "_homomorphism_bound",
                        lambda *args: bounds.append(bound(*args)) or bounds[-1])
    for eps in (eps_certificate, eps_all_pairs):
        for factor in (1 - 1e-6, 1.0, 1 + 1e-6):
            mats = perturbed(eps * factor)
            assert _verdict(monoid, mats) == _all_pairs_verdict(monoid, mats, monkeypatch)
    # just below its threshold the certificate decides; at the all-pairs
    # threshold the fallback names the witness
    assert bounds[0] <= tol / 2 < bounds[2]
    assert _verdict(monoid, perturbed(eps_all_pairs * (1 - 1e-6))) == "accept"
    assert _verdict(monoid, perturbed(eps_all_pairs * (1 + 1e-6))) != "accept"


@pytest.mark.parametrize("m, conjugated", [(16, False), (64, False), (32, True)],
                         ids=["Z16", "Z64", "Z32-dense"])
def test_regular_representation_validates_without_pair_svds(monkeypatch, m, conjugated):
    # the generator certificate takes no SVD: the neutral check is the only one
    monoid = cyclic_monoid(m)
    mats = es.regular_representation(monoid).matrices
    if conjugated:
        mats, _ = _conjugated_regular(monoid, 3)
    calls = []
    norm = representations.operator_norm
    monkeypatch.setattr(representations, "operator_norm",
                        lambda a: calls.append(a.shape) or norm(a))
    es.validate_representation(monoid, mats)
    assert calls == [(m, m)]
