import numpy as np
import pytest

import ergospec as es
from ergospec import positivity
from ergospec.cli import main
from ergospec.ensembles import (
    random_circulant_stochastic_instance,
    random_polynomial_instance,
)
from ergospec.linalg import Subspace
from ergospec.serialize import representation_from_json

import svd_route
from conftest import FIXTURES, load_fixture, n1_rep


def _nisa_checked(rep):
    """The nisa report of `rep`, after checking the mean projection against
    the SVD route's pole projection of the trivial character, and that the
    peripheral decomposition splits at the eigenspaces' dimensions."""
    report = es.nisa_suite(rep)
    oracle = svd_route.pole_projection(rep, es.trivial_character(rep.semigroup))
    mean = es.mean_ergodic_analysis(rep).mean_projection
    assert es.operator_norm(mean - oracle) <= 1e-8
    assert report.fix_dim == report.projection_rank == round(np.trace(oracle).real)
    assert es.quasi_compactness_verdict(rep).decomposition_consistent
    return report


def test_klein_rep_is_positive(klein_rep):
    assert es.check_positive(klein_rep).is_positive


def test_imaginary_entry_violation():
    rep = n1_rep(np.diag([1j]))
    cert = es.check_positive(rep)
    assert not cert.is_positive
    idx, (i, j), value = cert.first_violation
    assert (idx, i, j) == (0, 0, 0)
    assert value == 1j


def test_negative_entry_violation():
    rep = n1_rep(np.array([[0.5, -0.25], [0.0, 0.5]], dtype=complex))
    cert = es.check_positive(rep)
    assert not cert.is_positive
    assert cert.first_violation[1] == (0, 1)


def test_circulant_fixture_nisa():
    rep = representation_from_json(load_fixture("circulant_stochastic_8"))
    rep = es.certify_boundedness(rep)
    assert es.check_positive(rep).is_positive
    report = _nisa_checked(rep)
    assert report.fix_dim == 1          # irreducible aperiodic circulant
    assert es.quasi_compactness_verdict(rep).eigenspace_dims == [1]
    mean = es.mean_ergodic_analysis(rep).mean_projection
    np.testing.assert_allclose(mean, np.full((8, 8), 1 / 8), atol=1e-8)


def test_klein_nisa(klein_rep):
    assert _nisa_checked(klein_rep).fix_dim == 2


def test_nilpotent_generator_nisa():
    rep = n1_rep(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    assert _nisa_checked(rep).fix_dim == 0
    assert es.quasi_compactness_verdict(rep).eigenspace_dims == []
    ergodic = es.mean_ergodic_analysis(rep)
    np.testing.assert_allclose(ergodic.mean_projection, np.zeros((2, 2)), atol=1e-12)


@pytest.mark.parametrize("argv, checks", [
    (["analyze", str(FIXTURES / "klein_four.json")], 1),
    (["analyze", str(FIXTURES / "circulant_stochastic_8.json")], 1),
    (["ensemble", "--ensemble", "circulant", "--count", "2", "--n", "6"], 2),
], ids=["klein_four", "circulant_stochastic_8", "ensemble"])
def test_one_positivity_check_per_analysis(argv, checks, monkeypatch, capsys):
    # the report, nisa and domination read Analysis.positivity
    calls = []
    check = positivity.check_positive
    monkeypatch.setattr(positivity, "check_positive",
                        lambda *args: calls.append(args) or check(*args))
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == checks


def test_nisa_rejects_non_positive():
    rep = n1_rep(np.diag([1j]))
    with pytest.raises(ValueError, match="not positive"):
        es.nisa_suite(rep)


def test_domination_cyclic_permutation():
    shift = np.roll(np.eye(4), -1, axis=0).astype(complex)
    rep = n1_rep(shift)
    report = es.domination_check(rep)
    assert report.fix_dim == 1
    assert len(report.profile) == 4      # all fourth roots of unity
    assert all(dim == 1 for _, dim in report.profile)


def test_domination_klein(klein_rep):
    report = es.domination_check(klein_rep)
    assert report.fix_dim == 2
    assert sorted(dim for _, dim in report.profile) == [1, 1, 2]


def test_domination_identity():
    rep = n1_rep(np.eye(3, dtype=complex))
    report = es.domination_check(rep)
    assert report.fix_dim == 3
    assert [dim for _, dim in report.profile] == [3]


def test_positivity_preserved_by_direct_sum(klein_rep):
    total = es.direct_sum(klein_rep, klein_rep)
    assert es.check_positive(total).is_positive


def test_positivity_preserved_by_coordinate_restriction():
    rep = n1_rep(np.diag([0.5, 0.25, 1.0]).astype(complex))
    basis = np.eye(3, dtype=complex)[:, :2]
    sub = es.restrict(rep, Subspace(basis))
    assert es.check_positive(sub).is_positive


def test_circulant_ensemble_smoke():
    for seed in range(12):
        rep = random_circulant_stochastic_instance(seed, max_dim=12)
        assert es.check_positive(rep).is_positive
        _nisa_checked(rep)
        es.domination_check(rep)


def test_polynomial_ensemble_smoke():
    for seed in range(12):
        rep = random_polynomial_instance(seed, max_dim=12)
        assert es.check_positive(rep).is_positive
        _nisa_checked(rep)
        es.domination_check(rep)
