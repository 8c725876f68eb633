import json
import sys
import time

import numpy as np
import pytest
import scipy.linalg

import ergospec as es
from ergospec.characters import trivial_character
from ergospec.config import DEFAULT_CONFIG
from ergospec.ensembles import random_certified_instance, random_circulant_stochastic_instance
from ergospec import characters, cli, ergodic, linalg, representations, semigroups, spectrum
from ergospec.errors import LostCharacter, NonPoleSpectrum, NotBounded
from ergospec.serialize import load_representation, matrix_to_json, representation_from_json

import derived
import svd_route
from conftest import (
    FIXTURES,
    chain_monoid,
    count_analyses,
    cyclic_monoid,
    eigenspace,
    n1_rep,
    permuted,
    product_monoid,
    quasi_compactness,
    truncated_monoid,
)
from test_cli import _doubled_coordinates, _ill_conditioned_regular_z8


def _range_oracle(rep, chi):
    """rg(chi - T), computed here: the column space of the stacked
    chi(g) - T_g over the generators g."""
    eye = np.eye(rep.dim, dtype=complex)
    stacked = np.hstack([chi(g) * eye - a
                         for g, a in zip(rep.semigroup.generators, rep.family())])
    return svd_route.column_space(stacked, scale=max(1.0, *rep.generator_norms))


def _cokernel(rep, report):
    """ker (1 - T)^H, the orthogonal complement of rg(1 - T), as rg P^H for
    the mean projection P of `report`, once P (1 - T_g) = 0 is checked for
    every g of the family."""
    p = report.mean_projection
    for a in rep.family():
        assert es.operator_norm(p - p @ a) < 1e-10
    return svd_route.column_space(p.conj().T)


def test_range_of_one_minus_identity():
    # rg(1 - T) = 0, so its orthogonal complement ker (1 - T)^H is everything
    rep = n1_rep(np.eye(3, dtype=complex))
    assert _cokernel(rep, es.Analysis(rep).ergodic).dim == 3


def test_range_of_one_minus_klein(klein_rep):
    cokernel = _cokernel(klein_rep, es.Analysis(klein_rep).ergodic)
    assert cokernel.dim == 2
    fix = eigenspace(klein_rep, trivial_character(klein_rep.semigroup))
    # for this unitary representation ker (1 - T)^H = ker (1 - T)
    assert es.operator_norm(derived.projector(fix) - derived.projector(cokernel)) < 1e-10
    rng_space = _range_oracle(klein_rep, trivial_character(klein_rep.semigroup))
    assert es.operator_norm(derived.projector(cokernel) + derived.projector(rng_space)
                            - np.eye(4)) < 1e-10


def test_a_certificate_at_another_config_is_issued_again():
    # [[1, 1e-9], [0, 1]] passes the defect test at tol_rank 1e-8 but not at
    # the default 1e-10: an analysis at the default config certifies it
    # again and finds it unbounded, and one at the loose config reads the
    # certificate's cluster, on which T acts as 1 within 1e-8
    t = np.array([[1.0, 1e-9], [0.0, 1.0]], dtype=complex)
    loose = es.ToleranceConfig(tol_rank=1e-8)
    rep = es.certify_boundedness(es.validate_representation(es.FreeCommutativeMonoid(1), [t]),
                                 loose)
    assert rep.boundedness.is_certified
    with pytest.raises(NotBounded):
        ergodic.Analysis(rep).spectrum
    analysis = ergodic.Analysis(rep, loose)
    assert [space.dim for space in analysis.spectrum.eigenspaces] == [2]
    assert analysis.pole(analysis.spectrum.characters[0]) is not None


def test_a_near_double_one_gets_one_consistent_answer(capsys, tmp_path):
    # a power-bounded matrix has only semisimple unimodular eigenvalues, so
    # a Certified input has only poles, and the certificate alone decides a
    # Jordan defect: the strictly upper triangle of a cluster's Schur block
    # against tol_rank max(1, ||T||). [[1, 1.5e-10], [0, 1]] exceeds it and
    # is Unbounded, as the SVD route finds 1 no pole of it; the spread of
    # diag(1, 1 - 5e-9) is no defect, so 1 is a pole on all of C^2
    jordan, spread = (np.array(t, dtype=complex) for t in
                      ([[1.0, 1.5e-10], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0 - 5e-9]]))
    one = trivial_character(es.FreeCommutativeMonoid(1))
    assert svd_route.pole_projection(n1_rep(jordan), one) is None
    path = tmp_path / "input.json"
    reports = []
    for t in (jordan, spread):
        path.write_text(json.dumps({"semigroup": {"type": "free_commutative", "rank": 1},
                                    "dim": 2, "matrices": {"per": "generator",
                                                           "list": [matrix_to_json(t)]}}))
        code = cli.main(["analyze", str(path), "--format", "json"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        reports.append(json.loads(out))
    unbounded, certified = reports
    assert unbounded["boundedness"]["status"] == "unbounded"
    assert unbounded["boundedness"]["witness"] == [1]
    assert certified["boundedness"]["status"] == "certified"
    assert certified["unitary_spectrum"]["eigenspace_dims"] == [2]
    assert [row["status"] for row in certified["poles"]] == ["pole"]
    assert certified["quasi_compactness"]["status"] == "quasi_compact"
    assert (certified["ergodic"]["fix_dim"], certified["ergodic"]["range_dim"]) == (2, 0)
    assert certified["violations"] == []


def test_range_of_one_minus_diagonal():
    # rg(1 - T) = span(e_2), so the cokernel is span(e_1)
    rep = n1_rep(np.diag([1.0, 0.5]).astype(complex))
    cokernel = _cokernel(rep, es.Analysis(rep).ergodic)
    assert cokernel.dim == 1
    assert abs(abs(cokernel.basis[0, 0]) - 1.0) < 1e-12


def test_mean_ergodic_klein(klein_rep):
    report = es.Analysis(klein_rep).ergodic
    assert (report.fix_dim, _cokernel(klein_rep, report).dim) == (2, 2)
    half = 0.5 * np.array([[1, 1], [1, 1]])
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = half
    expected[2:, 2:] = half
    np.testing.assert_allclose(report.mean_projection, expected, atol=1e-10)
    # the kernel average is an exact zero element of the convex hull
    group = klein_rep.semigroup.kernel
    khat = sum(klein_rep.matrices[k] for k in group.carrier) / len(group.carrier)
    np.testing.assert_allclose(khat, expected, atol=1e-14)
    for a in klein_rep.matrices:
        np.testing.assert_allclose(a @ khat, khat, atol=1e-14)
        np.testing.assert_allclose(khat @ a, khat, atol=1e-14)
    assert report.kernel_average_residual <= DEFAULT_CONFIG.tol_hom
    assert not report.net_divergence


def test_mean_ergodic_diag():
    rep = n1_rep(np.diag([1.0, 0.5]).astype(complex))
    report = es.Analysis(rep).ergodic
    assert (report.fix_dim, _cokernel(rep, report).dim) == (1, 1)
    np.testing.assert_allclose(report.mean_projection, np.diag([1.0, 0.0]), atol=1e-10)
    sides = [row[0] for row in report.cesaro_trace]
    assert sides == [2**j for j in range(len(sides))]
    assert min(row[2] for row in report.cesaro_trace) <= DEFAULT_CONFIG.cesaro_target


def _trace_bits(trace):
    return [(side, plain.hex(), composed.hex()) for side, plain, composed in trace]


def test_cesaro_chain_stops_at_the_first_side_within_the_target(monkeypatch):
    rep = n1_rep(np.diag([1.0, 0.5]).astype(complex))
    trace = es.Analysis(rep).ergodic.cesaro_trace
    target = DEFAULT_CONFIG.cesaro_target
    assert all(composed > target for _, _, composed in trace[:-1])
    assert trace[-1][2] <= target
    # no composed distance is within 1e-300, so this chain runs every side
    monkeypatch.setattr(es.ToleranceConfig, "cesaro_target", 1e-300)
    full = es.Analysis(rep).ergodic.cesaro_trace
    assert [row[0] for row in full] == [2**j for j in range(14)]
    assert len(trace) < len(full)
    assert _trace_bits(full[:len(trace)]) == _trace_bits(trace)


def test_cesaro_chain_runs_every_side_short_of_the_target():
    rep = es.certify_boundedness(load_representation(str(FIXTURES / "jordan_half.json")))
    report = es.Analysis(rep, es.ToleranceConfig(cesaro_max_side=4)).ergodic
    assert (report.fix_dim, _cokernel(rep, report).dim) == (0, 0)
    assert not report.mean_projection.any()
    assert [row[0] for row in report.cesaro_trace] == [1, 2, 4]
    assert report.net_divergence


def test_mean_ergodic_identity():
    rep = n1_rep(np.eye(3, dtype=complex))
    report = es.Analysis(rep).ergodic
    assert (report.fix_dim, _cokernel(rep, report).dim) == (3, 3)
    np.testing.assert_allclose(report.mean_projection, np.eye(3), atol=1e-12)


def test_cesaro_means_are_convex_combinations():
    # closed form for the dyadic average of diag(c): (1 - c^N) / (N (1 - c))
    c = 0.7 * np.exp(0.3j)
    rep = n1_rep(np.diag([c]).astype(complex))
    report = es.Analysis(rep).ergodic
    for side, plain, _ in report.cesaro_trace:
        expected = abs((1 - c**side) / (side * (1 - c)))
        assert plain == pytest.approx(expected, rel=1e-9)


def test_is_pole_diagonal_rotation():
    rep = n1_rep(np.diag([1j, 0.5]).astype(complex))
    chi = es.character_from_gen_values(rep.semigroup, [1j])
    verdict = es.Analysis(rep).pole(chi)
    assert verdict is not None and verdict.eigenspace_dim == 1
    np.testing.assert_allclose(verdict.projection, np.diag([1.0, 0.0]), atol=1e-10)
    # oracle of the deleted post-check: chi is no eigenvalue of T|rg(chi - T)
    rng_space = _range_oracle(rep, chi)
    assert eigenspace(es.restrict(rep, rng_space), chi).dim == 0


def test_is_pole_det_not_in_spectrum(klein_rep):
    dual = es.enumerate_unitary_dual(klein_rep.semigroup)
    det = [c for c in dual
           if tuple(int(round(v.real)) for v in c.values()) == (1, -1, -1, 1)][0]
    assert es.Analysis(klein_rep).pole(det) is None


def test_is_pole_identity():
    rep = n1_rep(np.eye(2, dtype=complex))
    verdict = es.Analysis(rep).pole(trivial_character(rep.semigroup))
    assert verdict is not None
    np.testing.assert_allclose(verdict.projection, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("case", ["klein_four", "Z8", "rotations", "planted"])
def test_poles_are_the_pole_of_each_spectral_character(case, klein_rep):
    # the walk over the spectrum returns the verdicts that pole() keeps per
    # character, in spectrum order, whichever runs first
    rep = {"klein_four": lambda: klein_rep,
           "Z8": lambda: es.regular_representation(cyclic_monoid(8)),
           "rotations": lambda: n1_rep(np.diag([1, 1j, -1, 0.5]).astype(complex)),
           "planted": lambda: random_certified_instance(500, max_rank=2, max_dim=10)[0]}[case]()
    for walk_first in (True, False):
        analysis = ergodic.Analysis(rep)
        characters = analysis.spectrum.characters
        assert len(characters) > 0
        if walk_first:
            poles = analysis.poles
        verdicts = [analysis.pole(chi) for chi in characters]
        if not walk_first:
            poles = analysis.poles
        assert len(poles) == len(characters)
        assert all(walked is verdict for walked, verdict in zip(poles, verdicts))
        assert [verdict.eigenspace_dim for verdict in poles] == \
            [space.dim for space in analysis.spectrum.eigenspaces]


def test_poles_raise_the_failed_pole_test(monkeypatch):
    # W^H of the second spectral character, i, doubled: its pole fails the
    # rounding check, so the walk over the spectrum raises that character's
    # error, on every read, while the mean ergodic split reads only the
    # trivial character's pole and passes
    _doubled_coordinates(monkeypatch, lambda characters: 1)
    analysis = ergodic.Analysis(n1_rep(np.diag([1, 1j, -1, 0.5]).astype(complex)))
    characters = analysis.spectrum.characters
    assert [chi.gen_values for chi in characters] == [(-1,), (1j,), (1,)]
    with pytest.raises(NonPoleSpectrum, match="rounding check") as raised:
        analysis.poles
    assert raised.value.character is characters[1]
    with pytest.raises(NonPoleSpectrum) as again:
        analysis.poles
    assert again.value is raised.value
    assert analysis.pole(characters[0]) is not None
    report = analysis.ergodic
    assert (report.fix_dim, report.net_divergence) == (1, False)
    assert es.operator_norm(report.mean_projection - np.diag([1, 0, 0, 0])) <= 1e-12


def test_pole_projection_equals_mean_projection():
    rep, _ = random_certified_instance(23, max_rank=2, max_dim=10)
    report = es.Analysis(rep).ergodic
    verdict = es.Analysis(rep).pole(trivial_character(rep.semigroup))
    if report.fix_dim > 0:
        assert verdict is not None
        assert es.operator_norm(verdict.projection - report.mean_projection) \
            <= DEFAULT_CONFIG.tol_hom


def test_peripheral_decomposition_klein(klein_rep):
    analysis = es.Analysis(klein_rep)
    dec = analysis.decomposition
    assert dec.reversible.dim == 4
    assert dec.stable.dim == 0
    assert len(analysis.spectrum) == 3
    assert dec.cross_residual <= 1e-10
    np.testing.assert_allclose(dec.projection, np.eye(4), atol=1e-9)


def test_peripheral_decomposition_mixed():
    rep = n1_rep(np.diag([1.0, 1j, 0.5]).astype(complex))
    analysis = es.Analysis(rep)
    dec = analysis.decomposition
    assert dec.reversible.dim == 2
    assert dec.stable.dim == 1
    values = sorted((chi.gen_values[0] for chi in analysis.spectrum.characters),
                    key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    assert abs(values[0] - 1j) < 1e-9 and abs(values[1] - 1.0) < 1e-9
    assert dec.stability_witness == (1,)
    assert dec.stability_norm == pytest.approx(0.5)


def test_peripheral_decomposition_stable_only():
    rep = n1_rep(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    dec = es.Analysis(rep).decomposition
    assert dec.reversible.dim == 0
    assert dec.stable.dim == 2
    assert dec.stability_norm is not None and dec.stability_norm < 1


SPLIT_INPUTS = sorted(path.stem for path in FIXTURES.glob("*.json")) + \
    [f"branching-{seed}" for seed in range(3)] + ["z8-1e3", "mixed-n1"]


def _split_input(name):
    if name.startswith("branching-"):
        return _branching_free_instance(int(name.split("-")[1]))
    if name == "z8-1e3":
        return representation_from_json(_ill_conditioned_regular_z8(1e3))
    if name == "mixed-n1":
        return n1_rep(np.diag([1.0, 1j, 0.5]).astype(complex))
    return load_representation(str(FIXTURES / f"{name}.json"))


@pytest.mark.parametrize("name", SPLIT_INPUTS)
def test_the_split_takes_its_parts_from_the_pole_factors(name):
    # E_r is the range of the stacked F of the poles and E_s the orthogonal
    # complement of the stacked W, for P = sum of F W^H: orthonormal bases
    # of dimensions r and n - r that together span C^n, E_s orthogonal to
    # every W column, and both within 1e-12 of the SVD route's rg P and
    # ker P
    rep = es.certify_boundedness(_split_input(name))
    analysis = ergodic.Analysis(rep)
    dec = analysis.decomposition
    factors = [analysis.pole(chi).factors for chi in analysis.spectrum.characters]
    n, r = rep.dim, sum(f.shape[1] for f, _ in factors)
    reversible, stable = dec.reversible.basis, dec.stable.basis
    assert (reversible.shape, stable.shape) == ((n, r), (n, n - r))
    for basis in (reversible, stable):
        assert es.operator_norm(basis.conj().T @ basis - np.eye(basis.shape[1])) <= 1e-14
    assert np.linalg.svd(np.hstack([reversible, stable]), compute_uv=False).min() >= 1e-3
    for f, wh in factors:
        assert es.operator_norm(wh @ stable) <= 1e-12 * max(1.0, es.operator_norm(wh))
        assert es.operator_norm(f - reversible @ (reversible.conj().T @ f)) <= 1e-12
    oracle_range = svd_route.column_space(dec.projection)
    oracle_kernel = svd_route.null_space(dec.projection, scale=1.0)
    assert es.operator_norm(derived.projector(dec.reversible)
                            - derived.projector(oracle_range)) <= 1e-12
    assert es.operator_norm(derived.projector(dec.stable)
                            - derived.projector(oracle_kernel)) <= 1e-12


def test_invariance_of_peripheral_parts(klein_rep):
    rep = n1_rep(np.diag([1.0, 1j, 0.5]).astype(complex))
    for current in (rep, klein_rep):
        dec = es.Analysis(current).decomposition
        for space in (dec.reversible, dec.stable):
            if space.dim == 0:
                continue
            proj = derived.projector(space)
            eye = np.eye(current.dim)
            for a in current.matrices:
                assert es.operator_norm((eye - proj) @ a @ proj) <= 1e-8


def test_stability_contraction():
    rep = n1_rep(np.diag([0.9, 0.5]).astype(complex))
    verdict = es.Analysis(rep).stability
    assert verdict.is_stable
    assert verdict.witness == (1,)
    assert verdict.witness_norm == pytest.approx(0.9)


def test_stability_klein_not_stable(klein_rep):
    verdict = es.Analysis(klein_rep).stability
    assert not verdict.is_stable
    assert verdict.zero_in_range is False


def test_stability_jordan_witness_degree_three():
    # oracle: ||T^n|| for T = [[1/2, 1], [0, 1/2]] first drops below 1 at
    # n = 3, so the first power of two below 1 is T^4
    t = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
    norms = [es.operator_norm(np.linalg.matrix_power(t, n)) for n in (1, 2, 3, 4)]
    assert norms[0] > 1 and norms[1] > 1 and norms[2] < 1 and norms[3] < 1
    verdict = es.Analysis(n1_rep(t)).stability
    assert verdict.is_stable
    assert verdict.witness == (4,)
    assert verdict.witness_norm == pytest.approx(norms[3])


@pytest.mark.parametrize("t, j", [
    ([[1 - 1e-3, 1], [0, 0.5]], 10),
    ([[1 - 1e-4, 1], [0, 0.5]], 13),
    ([[1 - 1e-7, 1], [0, 0.5]], 23),
    ([[1 - 2e-8, 1], [0, 0.5]], 26),
    ([[1 - 5e-9, 0], [0, 0.5]], 2),
], ids=["1e-3", "1e-4", "1e-7", "2e-8", "diag-5e-9"])
def test_slowly_contracting_witness_is_a_power_of_two(t, j):
    # T = [[1 - gap, 1], [0, 1/2]] contracts only after about 1/gap steps;
    # squaring T reaches the first power of two that does in j steps. At
    # diag(1 - 5e-9, 1/2), rho(T) is within tol_char of 1, yet T^4 contracts;
    # its spectrum holds 1, the certified peripheral cluster 1 - 5e-9, which
    # lies inside the circle, so the witness refutes it
    rep = n1_rep(np.array(t, dtype=complex))
    start = time.perf_counter()
    verdict = es.Analysis(rep).stability
    elapsed = time.perf_counter() - start
    if t[0][1] == 0:
        assert [chi.gen_values for chi in es.unitary_spectrum(rep).characters] == [(1,)]
    assert verdict.is_stable and not verdict.budget_exceeded
    assert verdict.witness == (2 ** j,)
    assert verdict.witness_norm <= 1.0 - DEFAULT_CONFIG.tol_char
    assert elapsed < 1.0


def test_a_character_on_the_circle_runs_no_witness_search(monkeypatch):
    # T_1's cluster at 1 sits on the circle, at 1 + 5e-9 outside it, and the
    # rotation's eigenvalue exp(0.3i) in a unitary basis on it up to
    # rounding: no square of T contracts, so none is sought
    calls = _count_calls(monkeypatch, "_squaring_witness")
    u = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))[0]
    for t in (np.diag([1.0, 0.5]), np.diag([1 + 5e-9, 0.5]),
              u @ np.diag([np.exp(0.3j), 0.5]) @ u.T):
        verdict = es.Analysis(n1_rep(np.asarray(t, dtype=complex))).stability
        assert not verdict.is_stable and verdict.blocking_character is not None
    assert calls == []


def test_a_square_that_overflows_is_no_witness():
    # rho(T) = 1/2, but T^2 has an entry 1e400: its norm would be inf or
    # NaN, and no comparison may take that for a contraction
    t = np.diag([0.5, 0.5, 0.5]).astype(complex) + np.diag([1e200, 1e200], 1)
    rep = es.validate_representation(es.FreeCommutativeMonoid(1), [t])
    verdict = ergodic._stable_verdict(rep, DEFAULT_CONFIG)
    assert verdict.is_stable and verdict.budget_exceeded
    assert verdict.witness is None and verdict.witness_norm is None


def test_stability_witness_is_diagonal_over_n2():
    # neither generator contracts alone, their product T_(1, 1) does
    rep = n1_rep(np.diag([1.0, 0.5]).astype(complex), np.diag([0.5, 1.0]).astype(complex))
    verdict = es.Analysis(rep).stability
    assert verdict.is_stable
    assert verdict.witness == (1, 1)
    assert verdict.witness_norm == pytest.approx(0.5)


def test_an_empty_spectrum_on_the_circle_is_a_lost_character(tmp_path, monkeypatch):
    # diag(1 + 5e-9, 0.5) is certified, and its spectrum keeps the cluster
    # 1 + 5e-9 that the certificate accepted as peripheral: not stable, and
    # a pole whose Cesaro net cannot meet cesaro_target, as T^N grows like
    # (1 + 5e-9)^N
    rep = n1_rep(np.diag([1.0 + 5e-9, 0.5]).astype(complex))
    verdict = es.Analysis(rep).stability
    assert not verdict.is_stable
    assert verdict.blocking_character.gen_values == (1.0,)
    report = es.analyze(rep)
    assert report.violations == ["ergodic net failed to reach cesaro_target although "
                                 "the algebraic verdict is ergodic"]
    assert report.data["peripheral_decomposition"]["reversible_dim"] == 1
    # over N^2 the spectrum keeps (1, 1) too (see the test below). Were it to
    # come back empty, no square of T_u would contract before one
    # overflows, and rho(T_u) >= 1 - tol_char names the lost character
    rep = n1_rep(np.diag([1.0, 0.5]).astype(complex), np.diag([1.0 + 5e-9, 0.5]).astype(complex))
    assert len(es.unitary_spectrum(rep)) == 1

    def empty(rep, config=None):
        return spectrum.UnitarySpectrumResult(characters=[], eigenspaces=[])

    monkeypatch.setattr(ergodic, "unitary_spectrum", empty)
    with pytest.raises(LostCharacter) as exc:
        es.Analysis(rep).stability
    assert exc.value.radius == pytest.approx(1.0 + 5e-9, abs=1e-15)
    path = tmp_path / "lost_character.json"
    path.write_text(json.dumps({
        "semigroup": {"type": "free_commutative", "rank": 2}, "dim": 2,
        "matrices": {"per": "generator", "list": [matrix_to_json(a) for a in rep.matrices]}}))
    for command in ("analyze", "stability", "decompose"):
        assert cli.main([command, str(path), "--format", "json"]) == 1
    start = time.perf_counter()
    report = es.analyze(rep)
    assert time.perf_counter() - start < 1.0
    assert not report.ok
    for key, label in (("stability", "stability"),
                       ("peripheral_decomposition", "peripheral decomposition")):
        assert report.data[key] == {"error": str(exc.value)}
        assert f"{label}: {exc.value}" in report.violations
    assert f"stability    : {exc.value}" in es.summarize(report.data).splitlines()
    # quasi-compactness keeps its own verdict and names the failed split
    assert report.data["quasi_compactness"] == {
        "status": "quasi_compact", "eigenspace_dims": [], "riesz_all": True,
        "decomposition_consistent": False, "decomposition_error": str(exc.value)}
    assert len(set(report.violations)) == len(report.violations)
    # each read of a failed split raises the error of its one run
    analysis = ergodic.Analysis(rep)
    errors = []
    for _ in range(2):
        with pytest.raises(LostCharacter) as split:
            analysis.decomposition
        errors.append(split.value)
    assert errors[0] is errors[1]
    # the decomposition and quasi-compactness sections read that one run
    split, runs = ergodic.Analysis._split, []
    monkeypatch.setattr(ergodic.Analysis, "_split", lambda self: runs.append(self) or split(self))
    report = es.analyze(rep)
    assert report.data["quasi_compactness"]["decomposition_error"] == str(errors[0])
    assert len(runs) == 1


def test_a_certified_later_generator_just_outside_the_circle_keeps_its_character():
    # diag(1, 0.5), diag(1 + 5e-9, 0.5) over N^2: the certificate accepted
    # T_2's cluster 1 + 5e-9 as peripheral, and the product of the Riesz
    # projectors at (1, 1) is e_1 e_1^T, so the character stays, as over N
    # it does for diag(1 + 5e-9, 0.5); no generator is cut at a rank cutoff
    rep = n1_rep(np.diag([1.0, 0.5]).astype(complex), np.diag([1.0 + 5e-9, 0.5]).astype(complex))
    assert rep.boundedness.is_certified
    analysis = ergodic.Analysis(rep)
    assert [chi.gen_values for chi in analysis.spectrum.characters] == [(1.0, 1.0)]
    chi = analysis.spectrum.characters[0]
    e_1 = np.array([[1.0], [0.0]])
    fix = eigenspace(rep, chi)
    assert es.operator_norm(derived.projector(fix) - e_1 @ e_1.T) <= 1e-15
    verdict = analysis.pole(chi)
    assert verdict is not None and verdict.eigenspace_dim == 1
    assert es.operator_norm(verdict.projection - e_1 @ e_1.T) <= 1e-15
    stability = es.Analysis(rep).stability
    assert stability.status == ergodic.NOT_STABLE
    assert stability.blocking_character.gen_values == (1.0, 1.0)


def test_a_later_generator_inside_the_circle_seeks_the_witness():
    # diag(1, 0.5), diag(1 - 5e-9, 0.5) over N^2 keeps (1, 1), whose cluster
    # of T_2 lies inside the circle: T_u^4 contracts, and refutes it, as over
    # N for diag(1 - 5e-9, 0.5), whichever generator holds the cluster
    for first, second in ((1.0, 1.0 - 5e-9), (1.0 - 5e-9, 1.0)):
        rep = n1_rep(np.diag([first, 0.5]).astype(complex),
                     np.diag([second, 0.5]).astype(complex))
        assert [chi.gen_values for chi in es.unitary_spectrum(rep).characters] == [(1.0, 1.0)]
        verdict = es.Analysis(rep).stability
        assert verdict.is_stable and verdict.witness == (4, 4)
        assert verdict.witness_norm <= 1.0 - DEFAULT_CONFIG.tol_char


def test_semigroup_at_infinity_klein(klein_rep):
    infinity = es.Analysis(klein_rep).infinity
    assert infinity.classes == [[0], [1], [2], [3]]
    assert infinity.residual == 0.0


def test_semigroup_at_infinity_threshold_nilpotent(threshold_monoid):
    mats = [np.eye(2, dtype=complex),
            np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
            np.zeros((2, 2), dtype=complex)]
    rep = es.certify_boundedness(es.validate_representation(threshold_monoid, mats))
    infinity = es.Analysis(rep).infinity
    assert infinity.classes == [[2]]
    assert infinity.residual == 0.0


def test_semigroup_at_infinity_trivial_monoid():
    trivial = es.validate_monoid([[0]], 0)
    rep = es.certify_boundedness(
        es.validate_representation(trivial, [np.eye(2, dtype=complex)]))
    assert es.Analysis(rep).infinity.classes == [[0]]


def test_semigroup_at_infinity_is_kernel_image(klein_rep):
    # the tail intersection is exactly {T_k : k in kernel group}, one
    # operator per class
    for rep in (klein_rep, _threshold_half()):
        infinity = es.Analysis(rep).infinity
        kernel = es.kernel_group(rep.semigroup)
        expected = {bytes(np.round(rep.matrices[k], 9)) for k in kernel.carrier}
        got = [bytes(np.round(rep.matrices[members[0]], 9))
               for members in infinity.classes]
        assert len(got) == len(expected) and set(got) == expected
        assert sorted(k for members in infinity.classes for k in members) == \
            list(kernel.carrier)


def test_quasi_compactness_klein(klein_rep):
    section = quasi_compactness(klein_rep)
    assert sorted(section["eigenspace_dims"]) == [1, 1, 2]
    assert section["decomposition_consistent"]


def test_quasi_compactness_empty_spectrum():
    rep = n1_rep(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    section = quasi_compactness(rep)
    assert section["eigenspace_dims"] == []
    assert section["decomposition_consistent"] and "decomposition_error" not in section


def test_quasi_compactness_identity():
    rep = n1_rep(np.eye(3, dtype=complex))
    section = quasi_compactness(rep)
    assert section["eigenspace_dims"] == [3]
    assert section["decomposition_consistent"] and "decomposition_error" not in section


def test_rotation_covariance_of_poles():
    rng = np.random.default_rng(31)
    for seed in range(5):
        rep, _ = random_certified_instance(seed + 300, max_rank=2, max_dim=8)
        tau_values = np.exp(2j * np.pi * rng.random(rep.semigroup.rank))
        tau = es.character_from_gen_values(rep.semigroup, tau_values)
        rotated = derived.rotate(rep, tau)
        # ker(tau chi - tau T) = ker(chi - T), and so for the ranges
        for chi in [trivial_character(rep.semigroup), *es.unitary_spectrum(rep).characters]:
            before = es.Analysis(rep).pole(chi)
            after = es.Analysis(rotated).pole(derived.char_mul(tau, chi))
            assert (before is None) == (after is None)
            if before is not None:
                assert before.eigenspace_dim == after.eigenspace_dim
                assert es.operator_norm(before.projection - after.projection) <= 1e-10


# the first five seeds from 500 whose instance has a nonempty unitary spectrum
@pytest.mark.parametrize("seed", [None, 500, 501, 502, 503, 506])
def test_pole_matches_the_rotated_mean_ergodic_analysis(seed, klein_rep):
    # chi is a pole of T iff 1 is a pole of conj(chi) T (the rotation lemma)
    if seed is None:
        rep = klein_rep
    else:
        rep, _ = random_certified_instance(seed, max_rank=2, max_dim=10)
    spectrum = es.unitary_spectrum(rep)
    assert len(spectrum) > 0
    for chi in spectrum.characters:
        verdict = es.Analysis(rep).pole(chi)
        rotated = es.Analysis(derived.rotate(rep, derived.char_conj(chi))).ergodic
        assert verdict is not None
        assert verdict.eigenspace_dim == rotated.fix_dim
        assert es.operator_norm(verdict.projection - rotated.mean_projection) <= 1e-10


def test_spectrum_isolation(klein_rep):
    for rep in (klein_rep, n1_rep(np.diag([1.0, 1j, 0.5]).astype(complex))):
        spectrum = es.unitary_spectrum(rep)
        for i in range(len(spectrum)):
            for j in range(i + 1, len(spectrum)):
                assert es.char_distance(spectrum.characters[i],
                                        spectrum.characters[j]) \
                    >= DEFAULT_CONFIG.tol_cluster


def test_norm_convergence_implies_mean_projection():
    # T_s converges in norm to diag(1, 0); the trace limit must match it
    rep = n1_rep(np.diag([1.0, 0.5]).astype(complex))
    limit = np.diag([1.0, 0.0])
    powers = [np.linalg.matrix_power(rep.matrices[0], t) for t in (16, 32)]
    assert es.operator_norm(powers[1] - limit) < es.operator_norm(powers[0] - limit)
    report = es.Analysis(rep).ergodic
    assert es.operator_norm(report.mean_projection - limit) < 1e-10


def _count_calls(monkeypatch, name, module=ergodic):
    """Record the positional arguments of each call of <module>.<name>
    through every package binding of it; fails when no package module binds
    it, as for a method looked up on its class, since nothing would count."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    bindings = [(package_module, attr)
                for module_name, package_module in list(sys.modules.items())
                if module_name.split(".")[0] == "ergospec"
                for attr, value in vars(package_module).items() if value is original]
    assert bindings, f"no package module binds {name!r} of {module!r}"
    for package_module, attr in bindings:
        monkeypatch.setattr(package_module, attr, counted)
    return calls


def test_count_calls_fails_when_it_patches_nothing(monkeypatch):
    # a method looked up on its class is bound by no package module
    with pytest.raises(AssertionError, match="no package module binds '_split'"):
        _count_calls(monkeypatch, "_split", ergodic.Analysis)


def _count_riesz_poles(monkeypatch):
    """The character of each call of Analysis._riesz_pole, the N^k pole
    test."""
    original = ergodic.Analysis._riesz_pole
    calls = []

    def counted(self, chi):
        calls.append(chi)
        return original(self, chi)

    monkeypatch.setattr(ergodic.Analysis, "_riesz_pole", counted)
    return calls


def test_analyze_computes_each_route_once(klein_rep, monkeypatch):
    # PeripheralDecomposition is built once per run of the decomposition.
    # Every section, the poles and the mean ergodic split included, reads
    # the one Analysis; the mean ergodic split is the trivial character's
    # pole, not a route of its own
    calls = {name: _count_calls(monkeypatch, name)
             for name in ("PeripheralDecomposition", "unitary_spectrum")}
    analyses = count_analyses(monkeypatch)
    riesz = _count_riesz_poles(monkeypatch)
    report = es.analyze(klein_rep)
    assert report.ok
    assert report.data["positivity"]["nisa"]["agree"]
    assert riesz == []                            # each pole is an isotypic projection
    assert len(analyses) == 1                     # no second Analysis per pole or section
    assert len(calls["PeripheralDecomposition"]) == 1
    assert len(calls["unitary_spectrum"]) == 1    # E_s = 0, so T's alone


@pytest.mark.parametrize("case", ["Z8", "klein_four"])
def test_finite_analyze_reads_no_joint_kernel(case, monkeypatch):
    # a finite monoid's spectrum, poles and mean ergodic split all come
    # from its isotypic projections
    rep = es.regular_representation(cyclic_monoid(8)) if case == "Z8" else \
        es.certify_boundedness(load_representation(str(FIXTURES / f"{case}.json")))
    reordered = _count_calls(monkeypatch, "_spectral_cluster", linalg)
    schur_forms = _count_schur_forms(monkeypatch)
    riesz = _count_riesz_poles(monkeypatch)
    assert es.analyze(rep).ok
    assert (reordered, schur_forms, riesz) == ([], [], [])


def test_analyze_enumerates_the_dual_once_per_spectrum(monkeypatch):
    # L2 x Z4 has E_s != 0: its witness comes from the pole verdicts of T,
    # not from a spectrum of T restricted to E_s. The spectrum is read off
    # the dual's isotypic projections
    rep = es.regular_representation(product_monoid(chain_monoid(2), cyclic_monoid(4)))
    calls = {route: _count_calls(monkeypatch, route, module)
             for route, module in (("_dual_numerators", characters),
                                   ("unitary_spectrum", ergodic))}
    report = es.analyze(rep)
    assert report.ok
    assert report.data["unitary_spectrum"]["count"] == 4
    assert report.data["peripheral_decomposition"]["stable_dim"] > 0
    assert {route: len(found) for route, found in calls.items()} == \
        {"_dual_numerators": 1, "unitary_spectrum": 1}


@pytest.mark.parametrize("case", ["threshold", "semilattice", "jordan_half",
                                  *range(500, 510)])
def test_stability_witness_matches_the_analysis_of_the_stable_part(case):
    # oracle: the stability verdict of a separate Analysis of T|E_s
    if isinstance(case, str):
        rep = load_representation(str(FIXTURES / f"{case}.json"))
        rep = es.certify_boundedness(rep)
    else:
        rep, _ = random_certified_instance(case, max_rank=2, max_dim=10)
    dec = es.Analysis(rep).decomposition
    assert dec.stable.dim > 0
    oracle = ergodic.Analysis(es.restrict(rep, dec.stable)).stability
    assert oracle.is_stable
    assert dec.stability_witness == oracle.witness
    assert dec.stability_norm == oracle.witness_norm


def test_the_identity_is_no_contraction_witness():
    # semilattice {0, 1}: T_0 = I restricted to E_s has norm 1 up to
    # rounding, so the witness is 1, whose restriction vanishes
    rep = load_representation(str(FIXTURES / "semilattice.json"))
    assert rep.semigroup.neutral == 0
    dec = es.Analysis(es.certify_boundedness(rep)).decomposition
    assert dec.stability_witness == 1
    assert dec.stability_norm < 1e-15


def _threshold_half():
    """The threshold monoid {0, a, z} with T_a = [[0, 1/2], [0, 0]] and
    T_z = 0: a and z both pass the contraction margin."""
    mats = [np.eye(2, dtype=complex),
            np.array([[0.0, 0.5], [0.0, 0.0]], dtype=complex),
            np.zeros((2, 2), dtype=complex)]
    monoid = es.validate_monoid([[0, 1, 2], [1, 2, 2], [2, 2, 2]], 0)
    return es.certify_boundedness(es.validate_representation(monoid, mats))


def _relabeled_rep(rep, perm):
    """rep with element s renamed perm[s]: its table, its neutral element
    and its matrices."""
    mats = [None] * len(perm)
    for s, a in enumerate(rep.matrices):
        mats[perm[s]] = a
    return es.certify_boundedness(
        es.validate_representation(permuted(rep.semigroup, perm), mats))


@pytest.mark.parametrize("case", ["threshold_half", "klein_four", "threshold",
                                  "semilattice", "T7", "L2xZ4", "Z8",
                                  "Z8/(0,4,4)", "Z8/(2,6,0,0)-dense"])
def test_relabeling_moves_the_witnesses_and_the_classes_at_infinity(case):
    # verdicts of a finite monoid do not depend on how its elements are
    # named: the witnesses and the classes at infinity move with the names
    if case == "threshold_half":
        rep = _threshold_half()
    elif case in NON_FAITHFUL_Z8:
        rep = _z8_through(*NON_FAITHFUL_Z8[case])
    else:
        rep = _oracle_rep(case)
    perm = np.random.default_rng(5).permutation(rep.semigroup.size).tolist()
    before = ergodic.Analysis(rep)
    after = ergodic.Analysis(_relabeled_rep(rep, perm))

    def moved(label):
        return None if label is None else perm[label]

    assert after.stability.zero_in_range == before.stability.zero_in_range
    assert after.stability.witness == moved(before.stability.witness)
    assert after.decomposition.stability_witness == \
        moved(before.decomposition.stability_witness)
    assert {frozenset(members) for members in after.infinity.classes} == \
        {frozenset(map(moved, members)) for members in before.infinity.classes}


@pytest.mark.parametrize("nudged", [False, True], ids=["as-computed", "nudged"])
def test_threshold_witness_survives_the_last_bits_of_the_projection(nudged, monkeypatch):
    # each isotypic projection as computed, or times 1 + 2^-52, which moves
    # its entries by about an ulp, as the range bases of the pairing once
    # did when they brought T_0 = I in as a witness of norm 1 - 4e-16
    projections = spectrum._isotypic_projections

    def patched(rep):
        numerators, found, ranks = projections(rep)
        return numerators, found * (1.0 + 2.0**-52) if nudged else found, ranks

    monkeypatch.setattr(spectrum, "_isotypic_projections", patched)
    rep = load_representation(str(FIXTURES / "threshold.json"))
    dec = es.Analysis(es.certify_boundedness(rep)).decomposition
    assert dec.stability_witness == 2
    assert dec.stability_norm < 1e-15


@pytest.mark.parametrize("case", ["Z8", "N1", "N1-dense"])
def test_each_character_factors_its_generator_once(case, monkeypatch):
    # one generator: the spectrum, the mean ergodic split and every pole
    # read one Schur form of T and one reordering of it per character over
    # N, whose basis Q is the eigenspace, with no SVD with factors, no
    # pivoted QR and no cut; over Z8 one pivoted QR of each isotypic
    # projection, at its known rank
    if case == "Z8":
        rep = es.regular_representation(cyclic_monoid(8))
    else:
        t = np.diag([1.0, 1j, -1.0, 0.5, 0.25]).astype(complex)
        if case == "N1-dense":
            basis = np.eye(5) + 0.3 * np.random.default_rng(5).standard_normal((5, 5))
            t = basis @ t @ np.linalg.inv(basis)
        rep = es.validate_representation(es.FreeCommutativeMonoid(1), [t])
    svd = np.linalg.svd
    factored = []

    def counted(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            factored.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    pivoted = _count_calls(monkeypatch, "range_basis", linalg)
    schur_forms = _count_schur_forms(monkeypatch)
    reordered = _count_calls(monkeypatch, "_spectral_cluster", linalg)
    analysis = ergodic.Analysis(es.certify_boundedness(rep))
    characters = analysis.spectrum.characters
    verdicts = [analysis.pole(chi) for chi in characters]
    assert None not in verdicts
    # the mean ergodic split is the trivial pole's, at the value the
    # spectrum holds
    assert analysis.ergodic.fix_dim == 1
    once = [(rep.dim, rep.dim)] * len(characters)
    if case == "Z8":
        assert factored == []
        assert [(np.shape(p), rank) for p, rank in pivoted] == [(shape, 1) for shape in once]
        assert (schur_forms, reordered) == ([], [])
    else:
        assert (factored, pivoted) == ([], [])
        assert schur_forms == [(rep.dim, rep.dim)]
        assert sorted(call[2] for call in reordered) == [(0,), (1,), (2,)]


def _record_kernel_svds(monkeypatch):
    """The input of each np.linalg.svd call that computes factors, as
    (shape, dtype, bytes)."""
    svd = np.linalg.svd
    inputs = []

    def recorded(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            a = np.ascontiguousarray(a)
            inputs.append((a.shape, a.dtype.str, a.tobytes()))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return inputs


def test_analyze_factors_no_kernel_twice(monkeypatch):
    # the spectrum, the poles, the mean ergodic split and the decomposition
    # of a finite monoid decide no rank: they take pivoted QRs of the
    # isotypic projections and of their sum, and no SVD with factors
    rep = es.regular_representation(product_monoid(chain_monoid(2), cyclic_monoid(4)))
    inputs = _record_kernel_svds(monkeypatch)
    assert es.analyze(rep).ok
    assert inputs == []


def _record_qrs(monkeypatch):
    """(shape, mode) of each np.linalg.qr call."""
    qr = np.linalg.qr
    calls = []

    def recorded(a, mode="reduced"):
        calls.append((np.shape(a), mode))
        return qr(a, mode)

    monkeypatch.setattr(np.linalg, "qr", recorded)
    return calls


def test_the_first_generator_is_factored_once_near_one(monkeypatch):
    # the certificate reorders the Schur form of each generator once per
    # peripheral cluster, and the spectrum, the poles, the mean ergodic
    # split (the cluster near 1, read at v/|v|) and the decomposition read
    # those reorderings: no other, no SVD with factors, no cut and no
    # range basis. The one QR is the decomposition's, stacked over the
    # trivial pole's n x 1 factors F (E_r) and W (E_s)
    rep = load_representation(str(FIXTURES / "circulant_stochastic_8.json"))
    n = rep.dim
    inputs = _record_kernel_svds(monkeypatch)
    reordered = _count_calls(monkeypatch, "_spectral_cluster", linalg)
    pivoted = _count_calls(monkeypatch, "range_basis", linalg)
    qrs = _record_qrs(monkeypatch)
    report = es.analyze(rep)
    assert report.ok
    assert (inputs, pivoted) == ([], [])
    assert [members for _, _, members, _ in reordered] == [(0,)]
    assert qrs == [((2, n, 1), "complete")]
    assert report.data["ergodic"]["fix_dim"] == 1


@pytest.mark.parametrize("name, expected", [
    # N^k: the spectrum holds the trivial character exactly (eigenvalue 1)
    ("identity_3", {"Analysis": 1, "_riesz_products": 1, "_riesz_pole": 1}),
    # N^k: the spectrum holds it as v/|v|, which the mean ergodic split and
    # the positive suite reuse
    ("circulant_stochastic_8", {"Analysis": 1, "_riesz_products": 1, "_riesz_pole": 1}),
])
def test_analyze_runs_the_trivial_pole_test_once(name, expected, monkeypatch):
    # the one Riesz pole test is the trivial character's, read by the
    # ergodic, pole, quasi-compactness and positivity sections of the one
    # Analysis, on the one product of Riesz projectors that the spectrum
    # walk formed; no rank is cut
    rep = load_representation(str(FIXTURES / f"{name}.json"))
    calls = {"Analysis": count_analyses(monkeypatch),
             "_riesz_products": _count_calls(monkeypatch, "_riesz_products", spectrum),
             "_riesz_pole": _count_riesz_poles(monkeypatch)}
    report = es.analyze(rep)
    assert report.ok
    assert report.data["unitary_spectrum"]["count"] == 1
    assert report.data["ergodic"]["is_uniformly_mean_ergodic"]
    assert report.data["positivity"]["nisa"]["trivial_char_riesz"]
    assert {route: len(calls[route]) for route in expected} == expected


def _count_schur_forms(monkeypatch):
    schur = scipy.linalg.schur
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return schur(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counted)
    return calls


def test_spectrum_op_decomposes_free_generators_once(monkeypatch):
    # certification takes one complex Schur form per generator, and the
    # spectrum walks eigenvalue clusters without another
    rep = load_representation(str(FIXTURES / "circulant_stochastic_8.json"))
    calls = _count_schur_forms(monkeypatch)
    report = es.analyze(rep, sections=["spectrum"])
    assert report.data["boundedness"]["status"] == "certified"
    assert calls == [(rep.dim, rep.dim)] * rep.semigroup.rank
    assert set(report.data["unitary_spectrum"]) == \
        {"count", "characters", "eigenspace_dims", "eigenspace_bases"}


@pytest.mark.parametrize("name", ["klein_four", "threshold", "semilattice"])
def test_spectrum_op_decomposes_no_finite_generators(name, monkeypatch):
    # a finite monoid is bounded by its finite range, and its spectrum is
    # read off its dual's isotypic projections
    rep = load_representation(str(FIXTURES / f"{name}.json"))
    calls = _count_schur_forms(monkeypatch)
    report = es.analyze(rep, sections=["spectrum"])
    assert calls == []
    assert report.data["unitary_spectrum"]["count"] > 0
    assert set(report.data["unitary_spectrum"]) == \
        {"count", "characters", "eigenspace_dims", "eigenspace_bases"}


def test_spectrum_takes_each_operator_norm_once(monkeypatch):
    rep = es.regular_representation(cyclic_monoid(8))
    single = _count_calls(monkeypatch, "operator_norm", linalg)
    stacked = []
    norms = linalg.operator_norms

    def counted(mats):
        mats = list(mats)
        stacked.append(len(mats))
        return norms(mats)

    for module in (linalg, representations):
        monkeypatch.setattr(module, "operator_norms", counted)
    spectrum = es.unitary_spectrum(rep)
    assert len(spectrum) == 8
    # the isotypic projections decide no rank, so no norm sets a scale;
    # counted by the matrices each call takes
    assert len(single) + sum(stacked) == 0


@pytest.mark.parametrize("m", [6, 12])
def test_no_pole_is_an_eigenvalue_on_its_range(m, monkeypatch):
    # oracle of the deleted post-check, computed here: once ker(chi - T) and
    # rg(chi - T) are direct complements, chi is no eigenvalue of
    # T|rg(chi - T); the pole verdicts restrict nothing
    rep = es.regular_representation(cyclic_monoid(m))
    analysis = ergodic.Analysis(rep)
    restricted = _count_calls(monkeypatch, "restrict")
    verdicts = [analysis.pole(chi) for chi in analysis.spectrum.characters]
    assert restricted == []
    for chi, verdict in zip(analysis.spectrum.characters, verdicts):
        assert verdict is not None
        rng_space = _range_oracle(rep, chi)
        full = es.restrict(rep, rng_space)
        assert len(full.matrices) == m
        assert eigenspace(full, chi).dim == 0


def _classes_at_infinity_oracle(rep, tol):
    """The classes at infinity by a dense 2-norm per comparison: the
    labels in every tail set s0 + S, grouped by equal operators."""
    classes, class_of = [], {}
    for s in rep.semigroup.elements():
        for c_idx, representative in enumerate(classes):
            if es.operator_norm(rep.matrices[s] - representative) <= tol:
                class_of[s] = c_idx
                break
        else:
            class_of[s] = len(classes)
            classes.append(rep.matrices[s])
    at_infinity = set(rep.semigroup.elements())
    for s0 in rep.semigroup.elements():
        at_infinity &= set(rep.semigroup.table[s0])
    grouped = {}
    for s in sorted(at_infinity):
        grouped.setdefault(class_of[s], []).append(s)
    return sorted(grouped.values())


def _z8_through(numerators, dense):
    """Z8 acting on C^d by s -> diag(exp(2 pi i j s / 8)) over the
    numerators j, turned by a seeded dense unitary when `dense`: a
    representation that is not faithful when the j share a factor."""
    n = len(numerators)
    u = np.eye(n, dtype=complex)
    if dense:
        rng = np.random.default_rng(8)
        u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    mats = [u @ np.diag(np.exp(2j * np.pi * np.array(numerators) * s / 8)) @ u.conj().T
            for s in range(8)]
    return es.certify_boundedness(es.validate_representation(cyclic_monoid(8), mats))


NON_FAITHFUL_Z8 = {"Z8/(0,4,4)": ((0, 4, 4), False),
                   "Z8/(2,6,0,0)-dense": ((2, 6, 0, 0), True)}


def _ill_conditioned(rep, seed):
    """rep conjugated by a seeded similarity of condition number 10^3."""
    n = rep.dim
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            for _ in range(2))
    similarity = u @ np.diag(np.logspace(0, 3, n)) @ v
    inverse = np.linalg.inv(similarity)
    return es.certify_boundedness(es.validate_representation(
        rep.semigroup, [similarity @ a @ inverse for a in rep.matrices]))


def test_cross_residual_matches_the_dense_loop():
    # eigenspaces of dimension 1, 2 and 3 under an oblique change of basis
    rng = np.random.default_rng(7)
    basis = np.eye(7) + 0.3 * rng.standard_normal((7, 7))
    t = basis @ np.diag([1, 1j, 1j, -1, -1, -1, 0.5]) @ np.linalg.inv(basis)
    analysis = ergodic.Analysis(n1_rep(t.astype(complex)))
    assert sorted(space.dim for space in analysis.spectrum.eigenspaces) == [1, 2, 3]
    projections = [analysis.pole(chi).projection for chi in analysis.spectrum.characters]
    dense = max(es.operator_norm(projections[a] @ projections[b])
                for a in range(3) for b in range(3) if a != b)
    assert abs(analysis.decomposition.cross_residual - dense) <= 1e-13


def test_analyze_computes_the_kernel_group_once(monkeypatch):
    # the dual, the isotypic projections and the semigroup at infinity all
    # read the one kernel group that the monoid keeps
    calls = _count_calls(monkeypatch, "kernel_group", semigroups)
    report = es.analyze(es.regular_representation(cyclic_monoid(8)))
    assert report.ok
    assert len(calls) == 1


# the fixtures, regular representations and planted N^k instances whose
# spectral characters the oracle tests below walk through
ORACLE_CASES = [*sorted(path.stem for path in FIXTURES.glob("*.json")),
                "Z8", "L2xZ4", "T7", "non_pole", *range(600, 606)]


def _oracle_rep(case):
    if isinstance(case, int):
        return random_certified_instance(case, max_rank=2, max_dim=10)[0]
    monoids = {"Z8": cyclic_monoid(8), "T7": truncated_monoid(7),
               "L2xZ4": product_monoid(chain_monoid(2), cyclic_monoid(4))}
    if case in monoids:
        return es.regular_representation(monoids[case])
    if case == "non_pole":   # ker(1 - T) = rg(1 - T) = span(e_1): 1 is no pole
        return n1_rep(np.array([[1.0, 1.5e-10], [0.0, 1.0]], dtype=complex))
    rep = load_representation(str(FIXTURES / f"{case}.json"))
    return es.certify_boundedness(rep)


# the finite monoids among ORACLE_CASES
FINITE_ORACLE_CASES = ["klein_four", "semilattice", "threshold", "Z8", "L2xZ4", "T7"]


@pytest.mark.parametrize("conjugated", [False, True], ids=["plain", "ill-conditioned"])
@pytest.mark.parametrize("case", [*FINITE_ORACLE_CASES, *NON_FAITHFUL_Z8])
def test_classes_at_infinity_match_the_dense_oracle(case, conjugated):
    rep = _z8_through(*NON_FAITHFUL_Z8[case]) if case in NON_FAITHFUL_Z8 \
        else _oracle_rep(case)
    if conjugated:
        rep = _ill_conditioned(rep, 55)
    infinity = es.Analysis(rep).infinity
    assert infinity.classes == _classes_at_infinity_oracle(rep, DEFAULT_CONFIG.tol_hom)
    assert infinity.residual <= DEFAULT_CONFIG.tol_hom
    if case in NON_FAITHFUL_Z8:
        assert len(infinity.classes) == {"Z8/(0,4,4)": 2, "Z8/(2,6,0,0)-dense": 4}[case]


def _angle_verdict(rep, chi, fix):
    """The direct-complement test that the pairing of ker(chi - T) with
    ker((chi - T)^H) replaced: dim F + dim R = n and sigma_min([F R]) >
    sqrt(tol_rank), R an orthonormal basis of rg(chi - T)."""
    rng_space = _range_oracle(rep, chi)
    if fix.dim + rng_space.dim != rep.dim:
        return False
    if fix.dim == 0 or rng_space.dim == 0:
        return True
    smin = np.linalg.svd(np.hstack([fix.basis, rng_space.basis]), compute_uv=False)[-1]
    return bool(smin > np.sqrt(DEFAULT_CONFIG.tol_rank))


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_pole_verdicts_decide_as_the_angle_test(case):
    rep = _oracle_rep(case)
    trivial = trivial_character(rep.semigroup)
    if case == "non_pole":
        # the certificate refuses the Jordan defect for which the angle test
        # finds 1 no pole
        assert rep.boundedness.status == "unbounded"
        fix = svd_route.null_space(np.eye(2) - rep.matrices[0], scale=1.0)
        assert not _angle_verdict(rep, trivial, fix)
        return
    assert rep.boundedness.is_certified
    analysis = ergodic.Analysis(rep)
    spectrum = analysis.spectrum
    for chi, fix in zip(spectrum.characters, spectrum.eigenspaces):
        assert (analysis.pole(chi) is not None) == _angle_verdict(rep, chi, fix)
    # the oracle confirms the trivial character's split, fix(T) the range of
    # the mean projection, also where 1 is no spectral value and 1 - T must
    # be invertible
    fix = svd_route.column_space(analysis.ergodic.mean_projection)
    assert fix.dim == analysis.ergodic.fix_dim
    assert _angle_verdict(rep, trivial, fix)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_verdicts_do_not_depend_on_the_basis(case):
    # T_s -> U^H T_s U for a seeded random unitary U: the same spectrum,
    # eigenspace dimensions and verdicts, and every projection P -> U^H P U
    rep = _oracle_rep(case)
    rng = np.random.default_rng(77)
    n = rep.dim
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    turned = es.certify_boundedness(es.validate_representation(
        rep.semigroup, [u.conj().T @ a @ u for a in rep.matrices]))
    assert (turned.boundedness.status, turned.boundedness.witness) == \
        (rep.boundedness.status, rep.boundedness.witness)
    if not rep.boundedness.is_certified:
        return
    before, after = ergodic.Analysis(rep), ergodic.Analysis(turned)

    def moved(p, q):
        return es.operator_norm(u.conj().T @ p @ u - q) <= 1e-10

    assert len(before.spectrum) == len(after.spectrum)
    for chi, psi in zip(before.spectrum.characters, after.spectrum.characters):
        assert es.char_distance(chi, psi) <= DEFAULT_CONFIG.tol_cluster
    assert [space.dim for space in before.spectrum.eigenspaces] == \
        [space.dim for space in after.spectrum.eigenspaces]
    for chi in before.spectrum.characters:
        old, new = before.pole(chi), after.pole(chi)
        assert (old is None) == (new is None)
        if old is not None:
            assert old.eigenspace_dim == new.eigenspace_dim
            assert moved(old.projection, new.projection)
    assert before.ergodic.fix_dim == after.ergodic.fix_dim
    assert moved(before.ergodic.mean_projection, after.ergodic.mean_projection)


def _planted_free_cases():
    """N^k inputs for the SVD-route oracle: the N^k fixtures, seeded
    planted inputs over N^1 to N^3 (the first three of each rank with a
    peripheral part) and seeded circulants."""
    for path in sorted(FIXTURES.glob("*.json")):
        rep = load_representation(str(path))
        if not rep.is_finite:
            yield pytest.param(rep, id=path.stem)
    ranks = {1: 0, 2: 0, 3: 0}
    seed = 0
    while min(ranks.values()) < 3:
        rep, planted = random_certified_instance(seed, max_rank=3, max_dim=16)
        if planted["tuples"] and ranks[rep.semigroup.rank] < 3:
            ranks[rep.semigroup.rank] += 1
            yield pytest.param(rep, id=f"planted-N{rep.semigroup.rank}-{seed}")
        seed += 1
    for seed in range(6):
        yield pytest.param(random_circulant_stochastic_instance(seed, max_dim=16),
                           id=f"circulant-{seed}")


@pytest.mark.parametrize("rep", _planted_free_cases())
def test_riesz_poles_match_the_svd_route(rep):
    # every N^k pole projection, a product of the generators' Riesz
    # projectors, is the pairing of ker(chi - T) with ker((chi - T)^H) by
    # SVDs, within 1e-12 relative, and both routes decide alike
    rep = es.certify_boundedness(rep)
    assert rep.boundedness.is_certified
    analysis = ergodic.Analysis(rep)
    for chi, space in zip(analysis.spectrum.characters, analysis.spectrum.eigenspaces):
        verdict = analysis.pole(chi)
        oracle = svd_route.pole_projection(rep, chi)
        assert (verdict is not None) == (oracle is not None)
        assert verdict.eigenspace_dim == space.dim
        if oracle is not None:
            error = es.operator_norm(verdict.projection - oracle)
            assert error <= 1e-12 * es.operator_norm(oracle)


@pytest.mark.parametrize("seed", range(3))
def test_an_nk_analyze_factors_each_generator_once(seed, monkeypatch):
    # one Schur form per generator, and no SVD with factors of an n x n
    # matrix: the eigenspaces, poles and split come from reorderings of
    # those forms, one product of Riesz projectors per character and
    # range bases. No rank is cut and no eigenvalue is taken again: each of
    # the two clusters of T_1 of size 2 splits into two characters, whose
    # eigenspaces are the range bases of the 2 x n factors Y, and the split
    # takes one stacked QR of the five poles' F and W
    rep = _branching_free_instance(seed)
    n = rep.dim
    schur_forms = _count_schur_forms(monkeypatch)
    inputs = _record_kernel_svds(monkeypatch)
    pivoted = _count_calls(monkeypatch, "range_basis", linalg)
    qrs = _record_qrs(monkeypatch)
    eigvals, taken = np.linalg.eigvals, []

    def counted(a):
        taken.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    report = es.analyze(rep)
    assert report.ok
    assert report.data["unitary_spectrum"]["count"] == 5
    assert schur_forms == [(n, n)] * rep.semigroup.rank
    assert [shape for shape, _, _ in inputs if shape == (n, n)] == []
    assert taken == []
    assert sorted((np.shape(a), rank) for a, rank in pivoted) == [((2, n), 1)] * 4
    assert qrs == [((2, n, 5), "complete")]


def _branching_free_instance(seed):
    """A validated, uncertified N^2 input on C^12: three roots of unity
    for T_1, two of them taken twice with different values of T_2, and
    contractions, under a similarity with condition at most 1e2."""
    rng = np.random.default_rng([12, seed])
    n = 12
    roots = np.exp(2j * np.pi * rng.permutation(8)[:3] / 8)
    first = np.concatenate([roots[[0, 0, 1, 1, 2]], rng.uniform(0, 0.8, n - 5)
                            * np.exp(2j * np.pi * rng.random(n - 5))])
    second = np.concatenate([[1.0, -1.0, 1j, -1j, 1.0], rng.uniform(0, 0.8, n - 5)
                             * np.exp(2j * np.pi * rng.random(n - 5))])
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    similarity = q @ np.diag(10 ** rng.uniform(0, 2, size=n))
    inverse = np.linalg.inv(similarity)
    return es.validate_representation(es.FreeCommutativeMonoid(2), [
        similarity @ np.diag(d) @ inverse for d in (first, second)])
