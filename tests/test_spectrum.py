import numpy as np
import pytest
import scipy.linalg

import ergospec as es
from ergospec.config import DEFAULT_CONFIG
from ergospec.ensembles import random_certified_instance, random_circulant_stochastic_instance
from ergospec.errors import ErgospecError, NotBounded
from ergospec.linalg import SchurForm, _peripheral_clusters
from ergospec.serialize import load_representation
from ergospec.spectrum import _isotypic_projections

import derived
import svd_route
from conftest import (
    FIXTURES,
    angles,
    chain_monoid,
    cyclic_monoid,
    eigenspace,
    free,
    n1_rep,
    permuted,
    product_monoid,
    relabeled,
    truncated_monoid,
)


def klein_char(monoid, row):
    dual = es.enumerate_unitary_dual(monoid)
    for chi in dual:
        if tuple(int(round(v.real)) for v in chi.values()) == row:
            return chi
    raise AssertionError(f"no character with row {row}")


def test_klein_spectrum_excludes_det(klein_rep):
    spectrum = es.unitary_spectrum(klein_rep)
    rows = sorted(tuple(int(round(v.real)) for v in chi.values())
                  for chi in spectrum.characters)
    assert rows == sorted([(1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1)])
    dims = {tuple(int(round(v.real)) for v in chi.values()): space.dim
            for chi, space in zip(spectrum.characters, spectrum.eigenspaces)}
    assert dims[(1, 1, 1, 1)] == 2
    assert dims[(1, -1, 1, -1)] == 1
    assert dims[(1, 1, -1, -1)] == 1


def test_klein_eigenspaces_match_hand_solution(klein_rep):
    one = es.trivial_character(klein_rep.semigroup)
    fix = eigenspace(klein_rep, one)
    expected = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=complex) / np.sqrt(2)
    p_fix = derived.projector(fix)
    p_expected = expected @ expected.conj().T
    assert es.operator_norm(p_fix - p_expected) < 1e-10

    det = klein_char(klein_rep.semigroup, (1, -1, -1, 1))
    assert eigenspace(klein_rep, det).dim == 0


def test_identity_rep_full_fixed_space():
    rep = n1_rep(np.eye(3, dtype=complex))
    one = es.trivial_character(rep.semigroup)
    assert eigenspace(rep, one).dim == 3


def test_jordan_half_spectrum_empty():
    rep = n1_rep(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    assert len(es.unitary_spectrum(rep)) == 0


def _certified_just_outside_the_circle():
    """diag(1 + 5e-9, 0.5) over N: its eigenvalue 1 + 5e-9 lies within
    tol_char of the circle but beyond the rank cutoff tol_rank * ||T|| of 1."""
    return n1_rep(np.diag([1.0 + 5e-9, 0.5]).astype(complex))


def test_certified_just_outside_the_circle_keeps_one_in_brute_force():
    rep = _certified_just_outside_the_circle()
    assert rep.boundedness.status == "certified"
    assert [chi.gen_values for chi in svd_route.brute_force_spectrum(rep)] == [(1.0,)]


def test_certified_just_outside_the_circle_keeps_one_in_the_spectrum():
    # the certificate accepted the cluster 1 + 5e-9 as peripheral, and its
    # eigenspace is the cluster's spectral subspace: no rank is cut at 1
    rep = _certified_just_outside_the_circle()
    spectrum = es.unitary_spectrum(rep)
    assert [chi.gen_values for chi in spectrum.characters] == [(1.0,)]
    assert abs(abs(spectrum.eigenspaces[0].basis[0, 0]) - 1.0) < 1e-15


def test_circle_discretization_m4():
    z = np.exp(2j * np.pi * np.arange(4) / 4)
    rep = es.certify_boundedness(es.validate_representation(
        free(2), [np.diag(z), np.diag(-z)]))
    spectrum = es.unitary_spectrum(rep)
    assert len(spectrum) == 4
    key = lambda pair: (round(pair[0].real, 6), round(pair[0].imag, 6))
    expected = sorted(((zj, -zj) for zj in z), key=key)
    got = sorted((chi.gen_values for chi in spectrum.characters), key=key)
    for (a1, b1), (a2, b2) in zip(expected, got):
        assert abs(a1 - a2) < 1e-9 and abs(b1 - b2) < 1e-9
    one = es.trivial_character(rep.semigroup)
    assert spectrum.index(one) is None
    # yet 1 is a spectral value of every individual generator power:
    # z^a = 1 at z = 1, and (-z)^b = 1 at z = -1
    for power in range(1, 7):
        for s in ((power, 0), (0, power)):
            values = np.linalg.eigvals(rep.matrix(s))
            assert np.abs(values - 1).min() < 1e-12, s


def test_spectrum_requires_certificate(klein_monoid, klein_rep):
    bare = es.validate_representation(klein_monoid, list(klein_rep.matrices))
    with pytest.raises(NotBounded):
        es.unitary_spectrum(bare)


def test_spectral_value_is_pointwise_eigenvalue(klein_rep):
    # necessary condition: chi(s) is an eigenvalue of the single matrix T_s
    spectrum = es.unitary_spectrum(klein_rep)
    for chi in spectrum.characters:
        for s in klein_rep.semigroup.elements():
            eigs = np.linalg.eigvals(klein_rep.matrices[s])
            assert np.abs(eigs - chi(s)).min() < 1e-9


def test_pointwise_eigenvalue_converse_fails(klein_rep):
    # det(A) is an eigenvalue of every element matrix, yet det is not in the
    # unitary spectrum: the paper's counterexample configuration, asserted exactly
    det = klein_char(klein_rep.semigroup, (1, -1, -1, 1))
    for s in klein_rep.semigroup.elements():
        eigs = np.linalg.eigvals(klein_rep.matrices[s])
        assert np.abs(eigs - det(s)).min() < 1e-12
    assert es.unitary_spectrum(klein_rep).index(det) is None


def test_falsifier_refutes_det(klein_rep):
    det = klein_char(klein_rep.semigroup, (1, -1, -1, 1))
    verdict = es.laplace_falsifier(klein_rep, det)
    assert verdict.refuted
    assert verdict.lhs == pytest.approx(4.0)
    assert verdict.rhs <= 1e-12
    assert verdict.elements == [0, 1, 2, 3]


def test_falsifier_consistent_for_member(klein_rep):
    one = es.trivial_character(klein_rep.semigroup)
    verdict = es.laplace_falsifier(klein_rep, one, trials=64)
    assert not verdict.refuted


def test_falsifier_refutes_on_contraction():
    rep = n1_rep(np.diag([0.5]).astype(complex))
    chi = es.character_from_gen_values(rep.semigroup, [1.0])
    verdict = es.laplace_falsifier(rep, chi)
    assert verdict.refuted
    assert verdict.lhs > verdict.rhs  # |1| > 1/2 already at the generator


def test_falsifier_refutes_on_a_seeded_trial():
    # T = diag(1, -1) and chi(g) = i: the conjugate pattern at the generator
    # gives 1 <= 1, and the third seeded draw refutes. Its elements and
    # coefficients are pinned, so the draw order stays as it is
    rep = n1_rep(np.diag([1.0, -1.0]).astype(complex))
    chi = es.character_from_gen_values(rep.semigroup, [1j])
    verdict = es.laplace_falsifier(rep, chi)
    assert verdict.refuted
    assert verdict.trials == 4
    assert verdict.elements == [[0], [1], [2], [4], [0], [3], [1], [5]]
    assert verdict.coefficients == [
        -0.8322640402333679 + 0.2986189594387649j, 0.601321794598111 + 1.1794009507846244j,
        1.089255138815239 - 0.9414451654417698j, -0.2992425106413198 - 0.38770673868719935j,
        -0.5599124849815853 + 1.3270246580685625j, 0.36352861391811203 - 0.0013504640980436112j,
        -1.089734481861684 + 0.5412352376836578j, 2.0110335346157417 + 0.6667595771217304j]
    assert verdict.lhs > verdict.rhs + DEFAULT_CONFIG.tol_char


def test_approximate_eigenvector_check(klein_rep):
    chi = klein_char(klein_rep.semigroup, (1, -1, 1, -1))
    vec = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2)
    assert svd_route.approximate_eigenvector_check(klein_rep, chi, vec, 1e-12)

    det = klein_char(klein_rep.semigroup, (1, -1, -1, 1))
    # the defect form is bounded below on the unit sphere: lambda_min of
    # sum_s (det(s) - T_s)^H (det(s) - T_s) gives the best possible defect
    form = sum((det(s) * np.eye(4) - klein_rep.matrices[s]).conj().T
               @ (det(s) * np.eye(4) - klein_rep.matrices[s])
               for s in klein_rep.semigroup.elements())
    floor = float(np.linalg.eigvalsh(form).min())
    assert np.sqrt(floor) > 0.1
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        assert not svd_route.approximate_eigenvector_check(klein_rep, det, v, 0.1)


def test_approximate_eigenvector_check_identity():
    rep = n1_rep(np.eye(3, dtype=complex))
    one = es.trivial_character(rep.semigroup)
    v = np.array([1.0, 0.0, 0.0])
    assert svd_route.approximate_eigenvector_check(rep, one, v, 1e-15)


def test_approximate_eigenvector_requires_unit_norm(klein_rep):
    one = es.trivial_character(klein_rep.semigroup)
    with pytest.raises(svd_route.NotNormalized):
        svd_route.approximate_eigenvector_check(klein_rep, one, np.ones(4), 1e-6)


def _branching_instance(k, seed):
    """A certified N^k input whose joint unimodular tuples share values of
    T_1, so that the walk branches on the restricted T_2 and T_3, and the
    planted tuples.

    Peripheral values are exact roots of unity, each tuple one to two
    times; every other value has modulus at most 1 - 1e-6, with a
    contracting Jordan pair now and then. A similarity with kappa <= 1e2
    conjugates the whole."""
    rng = np.random.default_rng([k, seed])
    roots = [np.exp(2j * np.pi * p / q) for q in (1, 2, 3, 4, 6, 8) for p in range(q)]
    shared = [roots[int(rng.integers(len(roots)))] for _ in range(2)]
    tuples = set()
    while len(tuples) < 4:
        first = shared[int(rng.integers(2))]
        rest = tuple(roots[int(rng.integers(len(roots)))] for _ in range(k - 1))
        tuples.add((first, *rest))
    tuples = sorted(tuples, key=lambda t: [(z.real, z.imag) for z in t])
    columns = [t for t in tuples for _ in range(int(rng.integers(1, 3)))]
    n = len(columns) + int(rng.integers(2, 5))
    mats = [np.zeros((n, n), dtype=complex) for _ in range(k)]
    for pos, tup in enumerate(columns):
        for mat, z in zip(mats, tup):
            mat[pos, pos] = z
    for pos in range(len(columns), n):
        for mat in mats:
            mat[pos, pos] = (1 - 10 ** rng.uniform(-6, -0.2)) * np.exp(2j * np.pi * rng.random())
    if rng.random() < 0.5:   # a contracting Jordan pair in the first generator
        for mat in mats:
            mat[n - 1, n - 1] = mat[n - 2, n - 2]
        mats[0][n - 2, n - 1] = 0.01
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    similarity = q @ np.diag(10 ** rng.uniform(0, 2, size=n))
    inverse = np.linalg.inv(similarity)
    rep = es.validate_representation(free(k), [similarity @ a @ inverse for a in mats])
    return es.certify_boundedness(rep), tuples


def test_spectrum_matches_brute_force_small():
    cases = []
    z = np.exp(2j * np.pi * np.arange(4) / 4)
    cases.append(es.certify_boundedness(es.validate_representation(
        free(2), [np.diag(z), np.diag(-z)])))
    cases.append(n1_rep(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)))
    cases.append(n1_rep(np.eye(3, dtype=complex)))
    cases.append(n1_rep(np.diag([1.0, 1j, 0.5]).astype(complex)))
    planted = [_branching_instance(k, seed) for k in (2, 3) for seed in range(8)]
    for rep, tuples in planted:
        assert rep.boundedness.is_certified
        spectrum = es.unitary_spectrum(rep)
        assert len(spectrum) == len(tuples)
        for tup in tuples:
            assert spectrum.index(es.character_from_gen_values(rep.semigroup, tup)) is not None
    for rep in cases + [rep for rep, _ in planted]:
        spectrum = es.unitary_spectrum(rep)
        oracle = svd_route.brute_force_spectrum(rep)
        assert len(spectrum) == len(oracle)
        for chi in oracle:
            assert spectrum.index(chi) is not None


def test_spectrum_matches_brute_force_finite(klein_rep):
    spectrum = es.unitary_spectrum(klein_rep)
    oracle = svd_route.brute_force_spectrum(klein_rep)
    assert {angles(c) for c in spectrum.characters} == {angles(c) for c in oracle}


def test_eigenspace_bases_are_joint_eigenvectors(klein_rep):
    # every column of every basis, over Klein and planted N and N^2 inputs
    # with eigenspaces of dimension 2
    planted = [random_certified_instance(seed, max_rank=2, max_dim=8)[0] for seed in (6, 7, 9)]
    for rep in (klein_rep, *planted):
        spectrum = es.unitary_spectrum(rep)
        assert len(spectrum) > 0
        for chi, space in zip(spectrum.characters, spectrum.eigenspaces):
            for column in space.basis.T:
                assert svd_route.approximate_eigenvector_check(rep, chi, column, 1e-8)


def test_truncated_regular_representation_keeps_its_one_character():
    # T_g of truncated addition carries nilpotent Jordan cells whose
    # eigenvalues scatter by about eps^(1/7); decomposing them can push a
    # block value past tol_char and lose the trivial character
    for seed in range(40):
        monoid = relabeled(truncated_monoid(7), np.random.default_rng(seed))
        rep = es.regular_representation(monoid)
        report = es.analyze(rep, sections=["spectrum", "stability"])
        assert report.ok, seed
        assert report.data["unitary_spectrum"]["count"] == 1, seed
        assert report.data["unitary_spectrum"]["eigenspace_dims"] == [1], seed


@pytest.mark.parametrize("factors", [
    (cyclic_monoid(32),),
    (cyclic_monoid(16), cyclic_monoid(4)),
    (truncated_monoid(7), cyclic_monoid(4)),
], ids=["Z32", "Z16xZ4", "T7xZ4"])
def test_spectrum_does_not_depend_on_the_labels(factors):
    # characters read in the canonical labeling, with their eigenspace
    # dimensions, over 20 relabelings of the regular representation
    monoid = factors[0] if len(factors) == 1 else product_monoid(*factors)

    def spectrum_of(perm):
        spectrum = es.unitary_spectrum(es.regular_representation(permuted(monoid, perm)))
        return sorted((tuple(angles(chi)[perm[s]] for s in monoid.elements()), space.dim)
                      for chi, space in zip(spectrum.characters, spectrum.eigenspaces))

    expected = spectrum_of(np.arange(monoid.size))
    assert len(expected) == len(es.enumerate_unitary_dual(monoid))
    rng = np.random.default_rng(monoid.size)
    for copy in range(20):
        assert spectrum_of(rng.permutation(monoid.size)) == expected, copy


def _finite_cases():
    for path in sorted(FIXTURES.glob("*.json")):
        rep = load_representation(str(path))
        if rep.is_finite:
            yield pytest.param(es.certify_boundedness(rep), id=path.stem)
    for name, monoid in (("Z8", cyclic_monoid(8)),
                         ("L2xZ4", product_monoid(chain_monoid(2), cyclic_monoid(4))),
                         ("T7", truncated_monoid(7)),
                         ("L3xZ2", product_monoid(chain_monoid(3), cyclic_monoid(2)))):
        for seed in range(5):
            relabeling = relabeled(monoid, np.random.default_rng(seed))
            yield pytest.param(es.regular_representation(relabeling), id=f"{name}-{seed}")


@pytest.mark.parametrize("rep", [*_finite_cases(), pytest.param(
    es.regular_representation(cyclic_monoid(64)), id="Z64")])
def test_trace_multiplicities_match_eigenspaces_and_brute_force(rep):
    # the rank of each isotypic projection, read off its trace, is the
    # dimension of the joint kernel, and the projection is the pole's
    characters, projections, ranks = _isotypic_projections(rep)
    spectrum = es.unitary_spectrum(rep)
    assert spectrum.characters == characters
    assert [space.dim for space in spectrum.eigenspaces] == ranks
    assert [eigenspace(rep, chi).dim for chi in characters] == ranks
    assert [angles(chi) for chi in svd_route.brute_force_spectrum(rep)] == \
        [angles(chi) for chi in characters]
    for chi, projection, rank in zip(characters, projections, ranks):
        assert abs(np.trace(projection) - rank) < 1e-12
        paired = svd_route.pole_projection(rep, chi)
        assert es.operator_norm(projection - paired) <= 1e-12 * es.operator_norm(paired)
    # P_1 is the plain average of T over the kernel group
    group = rep.semigroup.kernel
    average = sum(rep.matrices[k] for k in group.carrier) / len(group.carrier)
    trivial = es.trivial_character(rep.semigroup)
    p_1 = next((p for chi, p in zip(characters, projections) if chi == trivial),
               np.zeros_like(average))
    assert es.operator_norm(p_1 - average) <= 1e-12 * max(1.0, es.operator_norm(average))


@pytest.mark.parametrize("conjugated", [False, True], ids=["real", "complex"])
def test_isotypic_projections_are_the_character_averages(conjugated):
    # real T_k take two real matmuls, complex ones one complex matmul; both
    # give P_chi = (1/|K|) sum over k in K of conj chi(k) T_k, summed here
    rep = es.regular_representation(product_monoid(chain_monoid(2), cyclic_monoid(4)))
    if conjugated:
        rng = np.random.default_rng(3)
        u = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0]
        rep = es.validate_representation(rep.semigroup,
                                         [u @ a @ u.conj().T for a in rep.matrices])
    characters, projections, ranks = _isotypic_projections(rep)
    assert ranks == [1, 1, 1, 1]
    carrier = rep.semigroup.kernel.carrier
    for chi, projection in zip(characters, projections):
        average = sum(np.conj(chi(k)) * rep.matrices[k] for k in carrier) / len(carrier)
        assert es.operator_norm(projection - average) <= 1e-14


@pytest.mark.parametrize("monoid, count", [
    (truncated_monoid(7), 1),
    (product_monoid(chain_monoid(2), cyclic_monoid(4)), 4)], ids=["T7", "L2xZ4"])
def test_an_ill_conditioned_conjugate_keeps_its_characters(monoid, count):
    # the regular representation conjugated by a similarity of condition
    # number 10^5.5 validates at default tolerances; its joint block
    # values once strayed past tol_char and lost characters
    n = monoid.size
    rng = np.random.default_rng(55)
    u, v = (np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            for _ in range(2))
    similarity = u @ np.diag(np.logspace(0, 5.5, n)) @ v
    inverse = np.linalg.inv(similarity)
    regular = es.regular_representation(monoid)
    rep = es.certify_boundedness(es.validate_representation(
        monoid, [similarity @ a @ inverse for a in regular.matrices]))
    report = es.analyze(rep, sections=["spectrum"])
    assert report.ok
    assert report.data["unitary_spectrum"]["count"] == count


def _planted_n16(seed):
    """A validated, uncertified N^2 input on C^16: four distinct tuples of
    roots of unity, two of them sharing the value of T_1, and contractions
    of modulus at most 0.8, conjugated by a similarity with kappa <= 1e2."""
    rng = np.random.default_rng([16, seed])
    n = 16
    roots = np.exp(2j * np.pi * rng.integers(0, 8, size=(4, 2)) / 8)
    roots[1, 0] = roots[0, 0]
    roots[1, 1] = -roots[0, 1]
    mats = [np.zeros((n, n), dtype=complex) for _ in range(2)]
    for j, mat in enumerate(mats):
        mat[np.arange(4), np.arange(4)] = roots[:, j]
        mat[np.arange(4, n), np.arange(4, n)] = \
            rng.uniform(0, 0.8, n - 4) * np.exp(2j * np.pi * rng.random(n - 4))
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    similarity = q @ np.diag(10 ** rng.uniform(0, 2, size=n))
    inverse = np.linalg.inv(similarity)
    return es.validate_representation(free(2), [similarity @ a @ inverse for a in mats])


@pytest.mark.parametrize("seed", range(3))
def test_analyze_factors_each_generator_once(seed, monkeypatch):
    # the certificate's Schur form is the only spectral factorization: the
    # spectrum walk tries the clusters the certificate recorded, and takes
    # no eigenvalues of its own
    rep = _planted_n16(seed)
    calls = {"eigvals": [], "schur": []}
    eigvals, schur = np.linalg.eigvals, scipy.linalg.schur

    def recording_eigvals(a):
        calls["eigvals"].append(np.shape(a))
        return eigvals(a)

    def recording_schur(a, *args, **kwargs):
        calls["schur"].append(np.shape(a))
        return schur(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
    monkeypatch.setattr(scipy.linalg, "schur", recording_schur)
    report = es.analyze(rep)
    assert report.ok
    assert report.data["unitary_spectrum"]["count"] == 4
    assert calls["schur"] == [(16, 16), (16, 16)]
    assert calls["eigvals"] == []


def _certified_ensemble():
    for seed in range(40):
        rep, _ = random_certified_instance(seed)
        yield rep
        yield random_circulant_stochastic_instance(seed)


def _assert_factors(form, a):
    """form is a complex Schur form of the matrix a."""
    assert np.array_equal(form.t, np.triu(form.t))
    scale = max(1.0, es.operator_norm(a))
    assert es.operator_norm(form.z @ form.t @ form.z.conj().T - a) <= 1e-13 * scale
    assert es.operator_norm(form.z.conj().T @ form.z - np.eye(len(a))) <= 1e-13


def test_certificate_keeps_a_schur_form_of_every_generator():
    # with the config it was issued at, its clusters: per generator, the
    # (mean / |mean|, SpectralCluster) of each peripheral cluster of the
    # eigenvalues of the generator's Schur form, with the bits of a fresh
    # reordering of that form
    for rep in _certified_ensemble():
        cert = rep.boundedness
        assert cert.config == DEFAULT_CONFIG
        assert len(cert.clusters) == rep.semigroup.rank
        for checked, a in zip(cert.clusters, rep.matrices):
            form = SchurForm.of(a)
            _assert_factors(form, a)
            peripheral = list(_peripheral_clusters(form.eigenvalues, DEFAULT_CONFIG))
            assert len(checked) == len(peripheral)
            for (value, cluster), (members, mean) in zip(checked, peripheral):
                assert value == mean / abs(mean)
                assert cluster.basis.tobytes() == form.cluster(members).basis.tobytes()
    finite = es.regular_representation(cyclic_monoid(4))
    assert finite.boundedness.clusters is None
    for cert in (finite.boundedness, rep.boundedness):
        assert not {"config", "clusters"} & set(cert.to_json())


def _spectrum_by_character(rep, config=DEFAULT_CONFIG):
    spectrum = es.unitary_spectrum(rep, config)
    return [(chi, space.dim) for chi, space in zip(spectrum.characters, spectrum.eigenspaces)]


def _assert_same_spectrum(got, want, tol, name=None):
    assert len(got) == len(want), name
    for chi_got, dim in got:
        matches = [d for tau, d in want if es.char_distance(chi_got, tau) <= tol]
        assert matches == [dim], name
    for i, (first, _) in enumerate(got):
        assert all(es.char_distance(first, other) > tol for other, _ in got[i + 1:]), name


def _certified_afresh(rep, config=DEFAULT_CONFIG):
    return es.certify_boundedness(es.validate_representation(rep.semigroup, rep.matrices),
                                  config)


@pytest.mark.parametrize("seed", range(6))
def test_derived_certificates_match_fresh_ones(seed):
    # rotate, restrict, dual_representation and direct_sum keep the verdict
    # of their parents' certificates but no clusters; the spectrum they
    # give is that of a fresh certificate
    tol = DEFAULT_CONFIG.tol_cluster
    rng = np.random.default_rng([17, seed])
    reps = [_branching_instance(2, seed)[0], _branching_instance(3, seed)[0],
            random_circulant_stochastic_instance(seed)]
    for rep in reps:
        chi = es.character_from_gen_values(
            rep.semigroup, np.exp(2j * np.pi * rng.random(rep.semigroup.rank)))
        reversible = es.Analysis(rep).decomposition.reversible
        derived_reps = {
            "rotate": derived.rotate(rep, chi),
            "restrict": es.restrict(rep, reversible),
            "dual": derived.dual_representation(rep),
            "sum": derived.direct_sum(rep, rep),
            "rotated sum": derived.direct_sum(rep, derived.rotate(rep, chi)),
        }
        for name, sub in derived_reps.items():
            assert sub.boundedness.is_certified, name
            assert sub.boundedness.clusters is None, name
            _assert_same_spectrum(_spectrum_by_character(sub),
                                  _spectrum_by_character(_certified_afresh(sub)), tol, name)


@pytest.mark.parametrize("seed", range(4))
def test_the_spectrum_of_a_restriction(seed, monkeypatch):
    # T on E_r has the spectrum of T, from one Schur form of each of its
    # own generators; T on E_s has none
    tol = DEFAULT_CONFIG.tol_cluster
    rep = _branching_instance(2 + seed % 2, seed)[0]
    decomposition = es.Analysis(rep).decomposition
    reversible = es.restrict(rep, decomposition.reversible)
    stable = es.restrict(rep, decomposition.stable)
    factored = []
    schur = scipy.linalg.schur

    def counted(a, *args, **kwargs):
        factored.append(np.shape(a))
        return schur(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counted)
    got = _spectrum_by_character(reversible)
    assert factored == [(reversible.dim, reversible.dim)] * rep.semigroup.rank
    _assert_same_spectrum(got, _spectrum_by_character(rep), tol)
    oracle = svd_route.brute_force_spectrum(reversible)
    assert len(oracle) == len(got)
    assert all(any(es.char_distance(chi, tau) <= tol for tau, _ in got) for chi in oracle)
    assert sum(dim for _, dim in got) == reversible.dim
    assert _spectrum_by_character(stable) == []


def test_the_spectrum_follows_its_own_tolerances():
    # the walk clusters the certificate's eigenvalues at the tolerances of
    # the spectrum's config, whatever config certified them: a loose config
    # admits the eigenvalue of modulus 1 - 1e-5 that the default rejects
    loose = es.ToleranceConfig(tol_rank=1e-3, tol_char=1e-4)
    t = np.diag([1.0, (1 - 1e-5) * np.exp(0.5j)])
    rep = es.certify_boundedness(es.validate_representation(free(1), [t]))
    assert len(_spectrum_by_character(rep)) == 1
    got = _spectrum_by_character(rep, loose)
    assert len(got) == 2
    _assert_same_spectrum(got, _spectrum_by_character(_certified_afresh(rep, loose), loose),
                          loose.tol_cluster)


def test_a_direct_sum_merges_at_the_tolerances_of_the_spectrum():
    # 1 and exp(3e-8 i) chain into one cluster at tol_cluster, on which a
    # tol_rank of 1e-5 finds both eigenvectors: one character, of
    # multiplicity 2, and no duplicate; 1 and exp(3e-7 i) stay two
    coarse = es.ToleranceConfig(tol_rank=1e-5)
    one = es.certify_boundedness(es.validate_representation(free(1), [np.eye(1)]))

    def summed(angle):
        near = es.certify_boundedness(
            es.validate_representation(free(1), [np.exp(1j * angle) * np.eye(1)]))
        return derived.direct_sum(one, near)

    for config in (DEFAULT_CONFIG, coarse):
        assert [dim for _, dim in _spectrum_by_character(summed(3e-7), config)] == [1, 1]
    total = summed(3e-8)
    got = _spectrum_by_character(total, coarse)
    assert [dim for _, dim in got] == [2]
    _assert_same_spectrum(got, _spectrum_by_character(_certified_afresh(total, coarse), coarse),
                          coarse.tol_cluster)


def test_isotypic_ranks_that_do_not_fit_are_refused_before_any_allocation():
    # klein_four with two entries that break the homomorphism law beyond
    # float64, certified without validation: its isotypic traces round to
    # ranks of about 3e13, whose range bases would take 1.7 PiB
    klein = load_representation(str(FIXTURES / "klein_four.json"))
    mats = np.array(klein.matrices)
    mats[1, 0, 0] += 1e30j
    mats[3, 1, 0] = 1e308
    rep = es.certify_boundedness(es.Representation(klein.semigroup, 4, mats))
    with pytest.raises(ErgospecError, match="do not fit in C"):
        es.unitary_spectrum(rep)
