"""Acceptance criteria, one test per criterion (criterion 2 is split per
grid size). Each test prints a PASS/FAIL line; run with `pytest -s` to see
them stream.

Criterion 2 runs on the m-point circle grids, where T_(1,0) = diag(z) and
T_(0,1) = diag(-z) for the m-th roots of unity z, so T_(a,b) is
diag((-1)^b z^(a+b)). The test checks these exact spectra at every (a, b)
of the degree-6 box. Since z^m = 1 on the grid, a monomial of degree m or
more aliases to one of lower degree, and only degrees below m sample the
continuum faithfully. So 1 must be a spectral value of T_(a,b) wherever
a + b <= min(6, m - 1): the whole degree-6 box for m = 8 and 16, the box
a + b <= 3 for m = 4. Outside it, 1 may be missing only where the grid
formula says so; on the four-point grid that happens at (1,3) and (3,1),
where T_(a,b) = -I, and the PASS line names them as aliased points.
"""

import time

import numpy as np
import pytest

import ergospec as es
from ergospec.characters import trivial_character
from ergospec.config import DEFAULT_CONFIG
from ergospec.ensembles import (
    random_certified_instance,
    random_circulant_stochastic_instance,
    random_polynomial_instance,
)
from ergospec.serialize import representation_from_json

import conftest
from conftest import angles, load_fixture, monoid_pool
from svd_route import brute_force_spectrum
from test_characters import brute_force_dual

ENSEMBLE_SIZE = 500
POSITIVE_SIZE = 250  # per positive ensemble; two ensembles
COMPAT_SIZE = 200


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status}  {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    return ok


@pytest.fixture(scope="module")
def certified_ensemble():
    instances = []
    for seed in range(ENSEMBLE_SIZE):
        rep, planted = random_certified_instance(seed, max_rank=3, max_dim=24)
        instances.append((seed, rep, planted))
    return instances


def test_criterion_1_klein_four_fixture(klein_rep):
    start = time.perf_counter()

    spectrum = es.unitary_spectrum(klein_rep)
    rows = sorted(tuple(int(round(v.real)) for v in chi.values())
                  for chi in spectrum.characters)
    spectrum_ok = rows == sorted([(1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1)])
    dims = sorted(space.dim for space in spectrum.eigenspaces)
    dims_ok = dims == [1, 1, 2]

    dual = es.enumerate_unitary_dual(klein_rep.semigroup)
    dual_rows = sorted(tuple(int(round(v.real)) for v in chi.values())
                       for chi in dual)
    dual_ok = dual_rows == sorted([(1, 1, 1, 1), (1, -1, 1, -1),
                                   (1, 1, -1, -1), (1, -1, -1, 1)])

    det = [chi for chi in dual
           if tuple(int(round(v.real)) for v in chi.values()) == (1, -1, -1, 1)][0]
    verdict = es.laplace_falsifier(klein_rep, det)
    falsifier_ok = verdict.refuted and verdict.rhs <= 1e-12

    elapsed = time.perf_counter() - start
    ok = spectrum_ok and dims_ok and dual_ok and falsifier_ok and elapsed < 1.0
    report(1, ok, f"spectrum {rows}, dims {dims}, dual size {len(dual)}, "
                  f"falsifier rhs {verdict.rhs:.2e}, {elapsed:.3f}s")
    assert spectrum_ok, f"unitary spectrum rows {rows}"
    assert dims_ok, f"eigenspace dims {dims}"
    assert dual_ok
    assert falsifier_ok
    assert elapsed < 1.0


def _same_multiset(got, expected, tol):
    """True when the two lists of complex numbers agree as multisets: each
    expected value is matched to its own computed value within tol."""
    remaining = list(got)
    if len(remaining) != len(expected):
        return False
    for value in expected:
        gaps = np.abs(np.asarray(remaining) - value)
        nearest = int(np.argmin(gaps))
        if gaps[nearest] > tol:
            return False
        remaining.pop(nearest)
    return True


@pytest.mark.parametrize("m", [4, 8, 16])
def test_criterion_2_circle_discretization(m):
    start = time.perf_counter()
    rep = representation_from_json(load_fixture(f"circle_discretization_{m}"))
    rep = es.certify_boundedness(rep)
    z = np.exp(2j * np.pi * np.arange(m) / m)

    spectrum = es.unitary_spectrum(rep)
    one = trivial_character(rep.semigroup)
    trivial_absent = not spectrum.contains(one)

    faithful = min(6, m - 1)  # z^m = 1 aliases degrees >= m
    spectra_off, violations, aliased = [], [], []
    for a in range(7):
        for b in range(7 - a):
            values = np.linalg.eigvals(rep.matrix((a, b)))
            expected = (-1) ** b * z ** (a + b)
            if not _same_multiset(values, expected, 1e-8):
                spectra_off.append((a, b))
            if np.abs(values - 1.0).min() <= 1e-8:
                continue
            if a + b > faithful and np.abs(expected - 1.0).min() > 1e-8:
                aliased.append((a, b))
            else:
                violations.append((a, b))
    spectra_ok = not spectra_off
    box_ok = not violations

    elapsed = time.perf_counter() - start
    ok = trivial_absent and spectra_ok and box_ok and elapsed < 1.0
    report(2, ok, f"m={m}: trivial absent {trivial_absent}, "
                  f"spectra off {spectra_off}, box a+b<={faithful} "
                  f"violations {violations}, aliased points {aliased}, "
                  f"{elapsed:.3f}s")
    assert trivial_absent
    assert spectra_ok, (
        f"m={m}: eigenvalues of T_(a,b) differ from (-1)^b z^(a+b) at "
        f"{spectra_off}")
    assert box_ok, (
        f"m={m}: 1 is not a spectral value of T_s for s in {violations}; "
        f"there a + b <= {faithful} < m, or the grid formula (-1)^b z^(a+b) "
        f"does take the value 1, so no aliasing by z^m = 1 explains it")
    assert elapsed < 1.0


def test_criterion_3_uniform_ergodicity_equivalences(certified_ensemble):
    """Every certified instance is uniformly mean ergodic by theorem; the
    constructive route must confirm it: the composed Cesaro mean reaches
    cesaro_target from the mean projection, whose range has the planted
    fixed-space dimension."""
    start = time.perf_counter()
    failures = []
    for seed, rep, planted in certified_ensemble:
        ergodic = es.Analysis(rep).ergodic
        closest = min(row[2] for row in ergodic.cesaro_trace)
        if closest > DEFAULT_CONFIG.cesaro_target or ergodic.fix_dim != planted["fix_dim"]:
            failures.append((seed, closest, ergodic.fix_dim, planted["fix_dim"]))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    report(3, ok, f"{len(certified_ensemble)} instances, "
                  f"{len(failures)} failures, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 300.0


def test_criterion_4_peripheral_decomposition(certified_ensemble):
    start = time.perf_counter()
    failures = []
    for seed, rep, _ in certified_ensemble:
        dec = es.Analysis(rep).decomposition
        p = dec.projection
        residual = es.operator_norm(p @ p - p)
        for a in rep.matrices:
            residual = max(residual, es.operator_norm(p @ a - a @ p))
        spans = dec.reversible.dim + dec.stable.dim == rep.dim
        witness_ok = dec.stable.dim == 0 or (
            dec.stability_norm is not None and dec.stability_norm < 1.0)
        if residual > 1e-8 or not spans or not witness_ok:
            failures.append((seed, residual, spans, witness_ok))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    report(4, ok, f"{len(certified_ensemble)} instances, "
                  f"{len(failures)} failures, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 300.0


def test_criterion_5_stability_witnesses(certified_ensemble, klein_rep,
                                         threshold_monoid):
    start = time.perf_counter()
    failures = []
    for seed, rep, _ in certified_ensemble:
        verdict = es.Analysis(rep).stability
        if verdict.is_stable:
            if verdict.budget_exceeded or verdict.witness_norm is None \
                    or verdict.witness_norm >= 1.0:
                failures.append(("free", seed))

    # finite fixtures: stable exactly when the zero matrix occurs in T(S)
    finite_cases = [klein_rep, es.regular_representation(threshold_monoid)]
    nil = es.certify_boundedness(es.validate_representation(
        threshold_monoid,
        [np.eye(2, dtype=complex),
         np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
         np.zeros((2, 2), dtype=complex)]))
    finite_cases.append(nil)
    for rep in finite_cases:
        verdict = es.Analysis(rep).stability
        zero_present = any(es.operator_norm(a) <= DEFAULT_CONFIG.tol_hom
                           for a in rep.matrices)
        if verdict.is_stable != zero_present or \
                verdict.zero_in_range != zero_present:
            failures.append(("finite", rep.dim))
        if verdict.is_stable and not (verdict.witness_norm < 1.0):
            failures.append(("finite-witness", rep.dim))

    elapsed = time.perf_counter() - start
    ok = not failures
    report(5, ok, f"stable witnesses over the ensemble plus "
                  f"{len(finite_cases)} finite fixtures, "
                  f"{len(failures)} failures, {elapsed:.1f}s")
    assert not failures, failures[:5]


def test_criterion_6_positive_equivalence_suite():
    start = time.perf_counter()
    violations = []
    for seed in range(POSITIVE_SIZE):
        rep = random_circulant_stochastic_instance(seed, max_rank=3, max_dim=24)
        analysis = es.Analysis(rep)
        try:
            es.nisa_suite(analysis)
            es.domination_check(analysis)
        except Exception as exc:
            violations.append(("circulant", seed, str(exc)))
    for seed in range(POSITIVE_SIZE):
        rep = random_polynomial_instance(seed, max_rank=3, max_dim=24)
        analysis = es.Analysis(rep)
        try:
            es.nisa_suite(analysis)
            es.domination_check(analysis)
        except Exception as exc:
            violations.append(("polynomial", seed, str(exc)))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 300.0
    report(6, ok, f"{2 * POSITIVE_SIZE} positive instances, "
                  f"{len(violations)} violations, {elapsed:.1f}s")
    assert not violations, violations[:5]
    assert elapsed < 300.0


def _same_char_sets(lhs, rhs):
    if len(lhs) != len(rhs):
        return False
    return all(any(es.char_distance(chi, tau) <= DEFAULT_CONFIG.tol_cluster
                   for tau in rhs) for chi in lhs)


def test_criterion_7_compatibility_laws():
    start = time.perf_counter()
    pool = monoid_pool()
    failures = []
    for index in range(COMPAT_SIZE):
        rng = np.random.default_rng(9000 + index)
        if index % 3 == 2:
            rep = es.regular_representation(pool[index % len(pool)])
        else:
            rep, _ = random_certified_instance(9000 + index, max_rank=2,
                                               max_dim=10)
        base = es.unitary_spectrum(rep).characters

        dual_chars = es.unitary_spectrum(es.dual_representation(rep)).characters
        if not _same_char_sets(base, dual_chars):
            failures.append(("dual", index))

        if rep.is_finite:
            chars = es.enumerate_unitary_dual(rep.semigroup)
            chi = chars[int(rng.integers(0, len(chars)))]
        else:
            chi = es.character_from_gen_values(
                rep.semigroup, np.exp(2j * np.pi * rng.random(rep.semigroup.rank)))
        rotated = es.unitary_spectrum(es.rotate(rep, chi)).characters
        shifted = [es.char_mul(chi, tau) for tau in base]
        if not _same_char_sets(rotated, shifted):
            failures.append(("rotate", index))

        partner = es.rotate(rep, chi)
        union = list(base)
        for tau in es.unitary_spectrum(partner).characters:
            if not any(es.char_distance(tau, known) <= DEFAULT_CONFIG.tol_cluster
                       for known in union):
                union.append(tau)
        total = es.unitary_spectrum(es.direct_sum(rep, partner)).characters
        if not _same_char_sets(total, union):
            failures.append(("sum", index))

        decomposition = es.Analysis(rep).decomposition
        if decomposition.reversible.dim > 0:
            sub = es.restrict(rep, decomposition.reversible)
            sub_chars = es.unitary_spectrum(sub).characters
            full = es.unitary_spectrum(rep)
            if not all(full.contains(tau) for tau in sub_chars):
                failures.append(("restrict", index))
    elapsed = time.perf_counter() - start
    ok = not failures
    report(7, ok, f"{COMPAT_SIZE} instances, {len(failures)} failures, "
                  f"{elapsed:.1f}s")
    assert not failures, failures[:5]


def test_criterion_8_oracle_equivalence(klein_rep):
    start = time.perf_counter()

    small_fixture_names = ["klein_four", "semilattice", "threshold",
                           "circle_discretization_4", "jordan_half",
                           "identity_3"]
    spectrum_failures = []
    for name in small_fixture_names:
        rep = es.certify_boundedness(representation_from_json(load_fixture(name)))
        assert rep.dim <= 5
        spectrum = es.unitary_spectrum(rep)
        oracle = brute_force_spectrum(rep)
        if len(spectrum) != len(oracle) or not all(
                spectrum.contains(chi) for chi in oracle):
            spectrum_failures.append(name)

    dual_failures = []
    for monoid in monoid_pool():
        if monoid.size > 6:
            continue
        enumerated = sorted(angles(chi) for chi in es.enumerate_unitary_dual(monoid))
        if enumerated != brute_force_dual(monoid):
            dual_failures.append(monoid.size)

    elapsed = time.perf_counter() - start
    ok = not spectrum_failures and not dual_failures
    report(8, ok, f"spectrum oracle on {len(small_fixture_names)} fixtures, "
                  f"dual oracle on monoids up to size 6, {elapsed:.1f}s")
    assert not spectrum_failures, spectrum_failures
    assert not dual_failures, dual_failures
