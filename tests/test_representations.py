import math

import numpy as np
import pytest
import scipy.linalg

import ergospec as es
from ergospec import representations
from ergospec.cli import main
from ergospec.config import DEFAULT_CONFIG
from ergospec.errors import (
    BadNeutral,
    HomomorphismViolation,
    NotCommuting,
    NotInvariant,
)
from ergospec.linalg import Subspace
from ergospec.representations import representation_from_generators

import derived
from conftest import FIXTURES, chain_monoid, cyclic_monoid, free, n1_rep, product_monoid


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
    tol = DEFAULT_CONFIG.tol_hom
    a = np.diag([3.0, 1.0])
    t = factor * tol * 3.0
    b = np.array([[2.0, t], [0.0, 2.0]])
    residual = es.operator_norm(a @ b - b @ a)
    assert (residual <= tol * 3.0 * es.operator_norm(b)) == (factor < 1)
    if factor < 1:
        assert es.validate_representation(free(2), [a, b]).dim == 2
    else:
        with pytest.raises(NotCommuting):
            es.validate_representation(free(2), [a, b])


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


def test_certify_diagonal_with_a_near_double_one():
    # diag(1, 1 - 5e-9) is diagonal with eigenvalues in the closed disc,
    # so it is power-bounded: the 5e-9 spread of its one tol_cluster
    # cluster is no nilpotent defect
    rep = n1_rep(np.diag([1.0, 1.0 - 5e-9]).astype(complex))
    assert rep.boundedness.is_certified


def test_certify_modulus_above_one():
    rep = es.validate_representation(free(1), [np.diag([1.2, 0.5])])
    rep = es.certify_boundedness(rep)
    assert rep.boundedness.status == "unbounded"


@pytest.mark.parametrize("t", [np.diag([1.0, 0.5]), np.diag([2.0, 1.0]),
                               np.array([[1.0, 1.0], [0.0, 1.0]])],
                         ids=["certified", "modulus_above_one", "defect"])
def test_certification_keeps_the_generator_norms(t):
    rep = n1_rep(t.astype(complex))
    norms = rep.generator_norms
    assert es.certify_boundedness(rep).generator_norms is norms


def test_analyze_takes_the_generator_norms_once(monkeypatch, capsys):
    # validation takes them, and restricting the certified representation
    # to E_s for its stability witness reads them again: one more stacked
    # norm, that of the restriction's residuals
    calls = []
    norms = representations.operator_norms
    monkeypatch.setattr(representations, "operator_norms",
                        lambda mats: calls.append(np.shape(mats)) or norms(mats))
    assert main(["analyze", str(FIXTURES / "jordan_half.json")]) == 0
    capsys.readouterr()
    assert calls == [(1, 2, 2), (1, 2, 2)]


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
    rotated = derived.rotate(klein_rep, one)
    for a, b in zip(rotated.matrices, klein_rep.matrices):
        np.testing.assert_allclose(a, b)


def test_rotate_klein_by_chi(klein_rep):
    dual = es.enumerate_unitary_dual(klein_rep.semigroup)
    chi = [c for c in dual
           if tuple(int(round(v.real)) for v in c.values()) == (1, -1, 1, -1)][0]
    rotated = derived.rotate(klein_rep, chi)
    np.testing.assert_allclose(rotated.matrices[1], -klein_rep.matrices[1])
    np.testing.assert_allclose(rotated.matrices[2], klein_rep.matrices[2])


def test_rotate_diag_i_to_identity():
    rep = n1_rep(np.diag([1j]))
    chi = es.character_from_gen_values(rep.semigroup, [-1j])
    rotated = derived.rotate(rep, chi)
    np.testing.assert_allclose(rotated.matrices[0], np.eye(1))


def test_rotate_round_trip(klein_rep):
    dual = es.enumerate_unitary_dual(klein_rep.semigroup)
    for chi in dual:
        back = derived.rotate(derived.rotate(klein_rep, chi), derived.char_conj(chi))
        for a, b in zip(back.matrices, klein_rep.matrices):
            assert es.operator_norm(a - b) <= 1e-12


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
    back = derived.dual_representation(derived.dual_representation(klein_rep))
    for a, b in zip(back.matrices, klein_rep.matrices):
        np.testing.assert_allclose(a, b)


def test_direct_sum_diagonal_characters(klein_monoid):
    dual = es.enumerate_unitary_dual(klein_monoid)
    chi, tau = dual[1], dual[2]
    rep1 = es.validate_representation(
        klein_monoid, [np.array([[v]]) for v in chi.values()])
    rep2 = es.validate_representation(
        klein_monoid, [np.array([[v]]) for v in tau.values()])
    total = derived.direct_sum(rep1, rep2)
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
        # a finite bound above tol_hom / 2: a non-finite one is an overflow
        patch.setattr(representations, "_homomorphism_bound", lambda *args: 1.0)
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
        stack = np.stack(perturbed(eps))
        return representations._homomorphism_bound(monoid, stack, eta) <= tol / 2

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


def test_validate_representation_rejects_nonfinite(klein_rep):
    # finiteness is checked once, on the whole stack, whatever the input
    for where in ([np.nan, 0.0], [0.0, np.inf]):
        mats = np.array(klein_rep.matrices)
        mats[2, 1, 3] = complex(*where)
        for given in (mats, list(mats)):
            with pytest.raises(ValueError, match="finite"):
                es.validate_representation(klein_rep.semigroup, given)
    with pytest.raises(ValueError, match="finite"):
        es.validate_representation(free(1), [np.array([[np.nan]])])


def test_validate_representation_stacks_any_iterable(klein_rep):
    # a tuple, a list, a generator and an array give one equal stack; an
    # array that is already a C-contiguous complex128 stack is kept
    mats = np.array(klein_rep.matrices)
    stacks = [es.validate_representation(klein_rep.semigroup, given).matrices
              for given in (tuple(mats), list(mats), (a for a in mats),
                            mats.real.tolist(), mats)]
    for stack in stacks:
        assert (stack.shape, stack.dtype) == ((4, 4, 4), np.complex128)
        assert stack.flags.c_contiguous and not stack.flags.writeable
        assert stack.tobytes() == mats.tobytes()
    assert stacks[-1] is mats


def test_validate_representation_keeps_its_shape_errors():
    with pytest.raises(ValueError, match="at least one matrix"):
        es.validate_representation(free(1), [])
    for mats in ([np.ones(2)], [np.eye(2), np.eye(3)]):
        with pytest.raises(ValueError, match="square of equal dimension"):
            es.validate_representation(free(len(mats)), mats)
    with pytest.raises(ValueError, match="square of equal dimension"):
        es.validate_representation(free(1), np.ones((1, 2, 3)))


def _bytes(mats):
    return b"".join(np.ascontiguousarray(a).tobytes() for a in mats)


def test_derived_representations_match_the_matrix_by_matrix_forms():
    # every derived stack has the bits of the matrix-by-matrix product
    monoid = product_monoid(chain_monoid(2), cyclic_monoid(4))
    mats, _ = _conjugated_regular(monoid, 7)
    rep = es.certify_boundedness(es.validate_representation(monoid, mats))
    chi = es.enumerate_unitary_dual(monoid)[3]
    assert _bytes(derived.rotate(rep, chi).matrices) == \
        _bytes(chi(s) * a for s, a in enumerate(mats))
    assert _bytes(derived.dual_representation(rep).matrices) == _bytes(a.T.copy() for a in mats)

    space = es.Analysis(rep).decomposition.reversible
    basis = space.basis
    assert _bytes(es.restrict(rep, space).matrices) == \
        _bytes(basis.conj().T @ a @ basis for a in mats)

    scalars = derived.rotate(es.regular_representation(monoid), chi)
    total = derived.direct_sum(rep, scalars)
    blocks = []
    for a, b in zip(mats, scalars.matrices):
        block = np.zeros((2 * monoid.size,) * 2, dtype=np.complex128)
        block[:monoid.size, :monoid.size], block[monoid.size:, monoid.size:] = a, b
        blocks.append(block)
    assert _bytes(total.matrices) == _bytes(blocks)

    regular = []
    for s in monoid.elements():
        a = np.zeros((monoid.size,) * 2, dtype=np.complex128)
        for t in monoid.elements():
            a[monoid.add(s, t), t] = 1.0
        regular.append(a)
    assert _bytes(es.regular_representation(monoid).matrices) == _bytes(regular)

    generators = list(monoid.generators)
    rebuilt = representation_from_generators(monoid, generators, [mats[g] for g in generators])
    walked = {monoid.neutral: np.eye(monoid.size, dtype=np.complex128)}
    frontier = [monoid.neutral]
    while frontier:
        s = frontier.pop()
        for g in generators:
            t = monoid.add(s, g)
            if t not in walked:
                walked[t] = walked[s] @ mats[g]
                frontier.append(t)
    assert _bytes(rebuilt.matrices) == _bytes(walked[s] for s in monoid.elements())

    planted = es.certify_boundedness(es.validate_representation(
        free(2), [np.diag([1j, 0.5, -1.0]), np.diag([-1.0, 1.0, 0.25j])]))
    tau = es.character_from_gen_values(planted.semigroup, [np.exp(0.3j), -1j])
    assert _bytes(derived.rotate(planted, tau).matrices) == \
        _bytes(z * a for z, a in zip(tau.gen_values, planted.matrices))


def test_a_real_input_near_the_certificate_threshold_falls_to_all_pairs(monkeypatch):
    # a real input takes the certificate in real arithmetic; just above its
    # threshold tol_hom / 2 the all-pairs loop decides, with the verdict
    # and the witness that it alone gives
    monoid = product_monoid(chain_monoid(2), cyclic_monoid(3))
    base = es.regular_representation(monoid).matrices
    assert not base.imag.any()
    rng = np.random.default_rng(5)
    direction = rng.standard_normal((6, 6))
    direction /= np.linalg.norm(direction)
    element = monoid.add(*monoid.generators)

    def perturbed(eps):
        mats = np.array(base)
        mats[element] += eps * direction
        return mats

    tol = DEFAULT_CONFIG.tol_hom
    eps_certificate = _threshold(
        lambda eps: representations._homomorphism_bound(monoid, perturbed(eps), 0.0) <= tol / 2,
        1e-14, 1.0)
    eps_all_pairs = _threshold(
        lambda eps: _all_pairs_verdict(monoid, perturbed(eps), monkeypatch) == "accept",
        1e-14, 1.0)
    assert eps_certificate < eps_all_pairs
    calls = []
    norm = representations.operator_norm
    monkeypatch.setattr(representations, "operator_norm",
                        lambda a: calls.append(a.shape) or norm(a))
    for eps, pairs in ((eps_certificate * (1 - 1e-6), False),
                       (eps_certificate * (1 + 1e-6), True),
                       (eps_all_pairs * (1 + 1e-6), True)):
        calls.clear()
        verdict = _verdict(monoid, perturbed(eps))
        assert (len(calls) > 1) == pairs
        assert verdict == _all_pairs_verdict(monoid, perturbed(eps), monkeypatch)
    assert verdict != "accept"
