from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import ergospec as es
from ergospec.config import DEFAULT_CONFIG
from ergospec.linalg import (
    SchurForm,
    Subspace,
    _single_linkage_clusters,
    largest_cross_product,
    range_basis,
)
from ergospec.serialize import representation_from_json
from ergospec.spectrum import _isotypic_projections

from svd_route import (
    DimensionMismatch,
    column_space,
    kernel_and_cokernel,
    null_space,
    oblique_projection,
)
from test_cli import _ill_conditioned_regular_z8


def test_null_space_zero_matrix():
    assert null_space(np.zeros((3, 3))).dim == 3


def test_null_space_identity():
    assert null_space(np.eye(3)).dim == 0


def test_null_space_near_singular_diagonal():
    space = null_space(np.diag([1.0, 1e-15, 2.0]))
    assert space.dim == 1
    assert abs(abs(space.basis[1, 0]) - 1.0) < 1e-12


def test_null_space_scale_floor():
    # a numerically-zero matrix is all kernel once anchored to an O(1) scale
    noise = 1e-16 * np.arange(9, dtype=float).reshape(3, 3)
    assert null_space(noise, scale=1.0).dim == 3
    assert column_space(noise, scale=1.0).dim == 0


@pytest.mark.parametrize("rank, scale", [(0, 0.0), (0, 1.0), (1, 1.0), (3, 1.0),
                                         (5, 2.0), (6, 0.0)])
def test_kernel_and_range_are_null_space_and_column_space(rank, scale):
    # the kernel is null_space bit for bit; the cokernel is the orthogonal
    # complement of column_space
    rng = np.random.default_rng(rank)
    n = 6
    a = (rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))) \
        @ (rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n)))
    a += 1e-14 * rng.standard_normal((n, n))   # rank decided by the cutoff
    kernel, cokernel = kernel_and_cokernel(a, scale=scale)
    want = null_space(a, scale=scale)
    assert kernel.ambient_dim == want.ambient_dim
    assert kernel.basis.shape == want.basis.shape
    assert kernel.basis.tobytes() == want.basis.tobytes()
    range_ = column_space(a, scale=scale)
    assert cokernel.ambient_dim == n
    assert cokernel.dim + range_.dim == n
    assert np.abs(cokernel.basis.conj().T @ range_.basis).max(initial=0.0) < 1e-12
    gram = cokernel.basis.conj().T @ cokernel.basis
    np.testing.assert_allclose(gram, np.eye(cokernel.dim), atol=1e-12)
    assert cokernel.basis.base is None   # a copy: U is not kept alive
    zero = np.zeros((n, n), dtype=complex)
    assert [space.dim for space in kernel_and_cokernel(zero)] == [n, n]
    assert [space.dim for space in kernel_and_cokernel(np.zeros((0, 0)))] == [0, 0]


def test_is_direct_complement_45_degrees():
    # F = span(e_1) against R = span(e_1 + e_2), given by G = R^perp
    e = np.eye(2, dtype=complex)
    f = Subspace(e[:, :1])
    g = Subspace(np.array([[1.0], [-1.0]], dtype=complex) / np.sqrt(2))
    assert oblique_projection(f, g) is not None
    # dims 1 + 1 but R = F, so G = F^perp pairs to zero with F
    assert oblique_projection(f, Subspace(e[:, 1:])) is None
    # dim F != dim G: F + R cannot be the whole space
    assert oblique_projection(f, Subspace(e)) is None
    assert oblique_projection(f, Subspace.zero(2)) is None


def test_is_direct_complement_dimension_mismatch():
    f = Subspace(np.eye(2, dtype=complex)[:, :1])
    g = Subspace(np.eye(3, dtype=complex)[:, :1])
    with pytest.raises(DimensionMismatch):
        oblique_projection(f, g)


def test_projection_onto_along_oblique():
    f = Subspace(np.eye(2, dtype=complex)[:, :1])
    g = Subspace(np.array([[1.0], [-1.0]], dtype=complex) / np.sqrt(2))
    p = f.basis @ oblique_projection(f, g)
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    np.testing.assert_allclose(p @ np.array([1.0, 0.0]), [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(p @ np.array([1.0, 1.0]), [0.0, 0.0], atol=1e-12)
    # the zero space and the whole space project to 0 and to I
    assert (Subspace.zero(2).basis @ oblique_projection(Subspace.zero(2),
                                                       Subspace.zero(2))).shape == (2, 2)
    np.testing.assert_allclose(oblique_projection(Subspace.full(2), Subspace.full(2)),
                               np.eye(2), atol=1e-15)


def _angle_test(f, g, tol):
    """The direct-complement test that oblique_projection replaces:
    dim F + dim R = n and sigma_min([F R]) > sqrt(tol), R an orthonormal
    basis of G^perp."""
    n = f.ambient_dim
    if f.dim + (n - g.dim) != n:
        return False
    r = null_space(g.basis.conj().T) if g.dim else Subspace.full(n)
    if f.dim == 0 or r.dim == 0:
        return True
    return bool(np.linalg.svd(np.hstack([f.basis, r.basis]), compute_uv=False)[-1]
                > np.sqrt(tol))


def test_oblique_projection_decides_as_the_angle_test():
    # 1,000 seeded pairs whose smallest angle lies within 5 % of the
    # threshold angle, on both sides of it: the pairing test and the angle
    # test on an orthonormal range basis decide alike
    tol = DEFAULT_CONFIG.tol_rank
    threshold = np.arccos(1.0 - tol)
    rng = np.random.default_rng(2024)
    sides = {True: 0, False: 0}
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, n))
        q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        # R = span of q[:, d:]; F tilts q[:, 0] towards R by theta and keeps
        # the rest of q[:, :d], so theta is the smallest angle
        theta = threshold * rng.uniform(0.95, 1.05)
        tilted = np.cos(theta) * q[:, d] + np.sin(theta) * q[:, 0]
        f = Subspace(np.column_stack([tilted, q[:, 1:d]]))
        g = Subspace(q[:, :d])
        decided = oblique_projection(f, g, tol) is not None
        assert decided == _angle_test(f, g, tol), theta / threshold
        sides[decided] += 1
    assert min(sides.values()) > 300


def test_operator_norm_and_spectral_radius():
    assert es.operator_norm(np.eye(4)) == pytest.approx(1.0)
    nil = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert es.operator_norm(nil) == pytest.approx(2.0)
    diag = np.diag([0.9, 0.5])
    assert es.operator_norm(diag) == pytest.approx(0.9)


def _rational_nullity(rows):
    """Exact Gaussian-elimination nullity over the rationals."""
    rows = [[Fraction(x) for x in row] for row in rows]
    cols = len(rows[0]) if rows else 0
    rank = 0
    pivot_col = 0
    while rank < len(rows) and pivot_col < cols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][pivot_col] != 0),
                     None)
        if pivot is None:
            pivot_col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][pivot_col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][pivot_col] != 0:
                factor = rows[r][pivot_col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        pivot_col += 1
    return cols - rank


def test_null_space_matches_rational_elimination():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        mat = rng.integers(-3, 4, size=(n, n))
        if rng.random() < 0.5:
            mat[:, -1] = mat[:, 0]  # force singularity often
        assert null_space(mat.astype(float)).dim == _rational_nullity(mat.tolist())


def test_subspace_membership_and_projector():
    basis = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 2))
                         + 1j * np.random.default_rng(1).standard_normal((4, 2)))[0]
    space = Subspace(basis)
    p = space.projector()
    assert np.linalg.norm(p @ basis[:, 0] - basis[:, 0]) <= 1e-12
    np.testing.assert_allclose(p @ p, p, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_null_space_properties_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    rank = int(rng.integers(0, n + 1))
    factor_left = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    factor_right = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
    mat = factor_left @ factor_right if rank else np.zeros((n, n), dtype=complex)
    space = null_space(mat)
    assert space.dim == n - rank
    if space.dim:
        assert np.linalg.norm(mat @ space.basis) < 1e-8 * max(1, np.linalg.norm(mat))
        gram = space.basis.conj().T @ space.basis
        assert np.linalg.norm(gram - np.eye(space.dim)) <= 1e-11


def _clustered_matrix(rng, n):
    """A non-normal matrix whose eigenvalues sit in a few tight clusters,
    with Jordan cells of sizes up to 3 among them."""
    centres = rng.uniform(0.3, 1.0, 4) * np.exp(2j * np.pi * rng.random(4))
    t = np.zeros((n, n), dtype=np.complex128)
    pos = 0
    while pos < n:
        size = min(int(rng.integers(1, 4)), n - pos)
        t[pos:pos + size, pos:pos + size] = \
            centres[rng.integers(0, 4)] * np.eye(size) + 0.3 * np.eye(size, k=1)
        pos += size
    t += 1e-9 * np.diag(rng.standard_normal(n))
    q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return q @ t @ np.linalg.inv(q)


@pytest.mark.parametrize("n", [2, 6, 24, 80])
def test_reordered_schur_matches_sorted_schur(n):
    # one Schur form reordered per cluster gives the bits of a sorted Schur
    # factorization per cluster; n = 80 takes LAPACK's multishift QR path
    for seed in range(4):
        mat = _clustered_matrix(np.random.default_rng([n, seed]), n)
        form = SchurForm.of(mat)
        eigs = form.eigenvalues
        for radius in (DEFAULT_CONFIG.tol_cluster, 100 * DEFAULT_CONFIG.tol_cluster):
            for members in _single_linkage_clusters(eigs, radius)[0]:
                selected = eigs[members]

                def want(z):
                    return bool(np.min(np.abs(z - selected)) < radius / 2)

                _, z, sdim = scipy.linalg.schur(mat, output="complex", sort=want)
                basis = form.cluster(members).basis
                assert basis.shape[1] == sdim
                assert basis.tobytes() == z[:, :sdim].tobytes()


def _riesz_oracle(mat, members, eigs):
    """The spectral projector onto the eigenvectors of `mat` at the
    positions `members` of its eigenvalues `eigs`, by an eigendecomposition
    V diag(e) V^(-1): V E V^(-1), E selecting the cluster."""
    values, vectors = np.linalg.eig(mat)
    near = np.abs(values[:, None] - eigs[list(members)][None, :]).min(axis=1)
    order = np.argsort(near)[:len(members)]
    select = np.zeros(len(values))
    select[order] = 1.0
    return vectors @ np.diag(select) @ np.linalg.inv(vectors)


@pytest.mark.parametrize("n", [1, 4, 12])
def test_spectral_cluster_is_the_riesz_projector(n):
    # distinct eigenvalues under a seeded similarity: P = basis @ coordinates
    # is the eigenprojector, P^2 = P, A P = P A, and ||P|| <= 1 / s
    rng = np.random.default_rng([3, n])
    values = np.exp(2j * np.pi * rng.random(n)) * rng.uniform(0.3, 1.0, n)
    similarity = np.eye(n) + 0.4 * rng.standard_normal((n, n))
    mat = similarity @ np.diag(values) @ np.linalg.inv(similarity)
    form = SchurForm.of(mat)
    eigs = form.eigenvalues
    for members in ([0], list(range(n // 2)), list(range(n))):
        if not members:
            continue
        cluster = form.cluster(members)
        p = cluster.basis @ cluster.coordinates
        scale = es.operator_norm(p)
        assert es.operator_norm(p - _riesz_oracle(mat, members, eigs)) <= 1e-12 * scale
        assert es.operator_norm(p @ p - p) <= 1e-13 * scale
        assert es.operator_norm(mat @ p - p @ mat) <= 1e-13 * scale * es.operator_norm(mat)
        assert scale <= (1 + 1e-12) / cluster.s
        assert cluster.mean == eigs[members].mean()
    # on the unit circle, the certificate keeps the one list of clusters
    # that it checked, and the spectrum reads those very clusters
    unitary = similarity @ np.diag(values / np.abs(values)) @ np.linalg.inv(similarity)
    rep = es.certify_boundedness(
        es.validate_representation(es.FreeCommutativeMonoid(1), [unitary]))
    (checked,) = rep.boundedness.clusters
    assert len(checked) == n
    spectrum = es.unitary_spectrum(rep)
    assert sorted(id(cluster) for (cluster,) in spectrum.clusters) == \
        sorted(id(cluster) for _, cluster in checked)
    for value, cluster in checked:
        assert value == cluster.mean / abs(cluster.mean)


def test_range_basis_takes_the_known_rank():
    # an oblique projector of rank 3 under rounding noise far above any
    # relative cutoff: the first 3 pivoted columns span its range
    rng = np.random.default_rng(4)
    f = np.linalg.qr(rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3)))[0]
    wh = f.conj().T + 0.5 * (rng.standard_normal((3, 7)) @ (np.eye(7) - f @ f.conj().T))
    p = f @ wh + 1e-9 * rng.standard_normal((7, 7))
    space = range_basis(p, 3)
    assert space.dim == 3
    assert es.operator_norm(space.projector() - f @ f.conj().T) <= 1e-8
    assert range_basis(p, 0).dim == 0


def _oblique_projections(n, seed):
    """An oblique projection on C^n of each rank 1 to n, F (W^H F)^-1 W^H
    for seeded complex F and W."""
    rng = np.random.default_rng([n, seed])
    for rank in range(1, n + 1):
        f, w = (rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
                for _ in range(2))
        yield f"rank{rank}", f @ np.linalg.solve(w.conj().T @ f, w.conj().T), rank


def _z8_isotypic_projections(condition):
    """The isotypic projections of the regular representation of Z8 under a
    similarity of the given condition, each of rank 1."""
    rep = representation_from_json(_ill_conditioned_regular_z8(condition))
    _, projections, ranks = _isotypic_projections(rep)
    for index, (p, rank) in enumerate(zip(projections, ranks)):
        yield f"z8-{condition:.0e}-{index}", p, rank


def _dependent_leading_columns():
    """A rank-3 matrix on C^6 whose three columns of largest norm are
    multiples of one vector, so that a pivot order that ignored the
    deflation would take a dependent column second."""
    rng = np.random.default_rng(11)
    u, v, w = (rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(3))
    u *= 10.0 / np.linalg.norm(u)
    columns = [u, -0.9 * u, 0.8j * u, v, w, v + w]
    yield "dependent-leading", np.stack(columns, axis=1), 3


RANGE_INPUTS = [*_oblique_projections(8, 0), *_z8_isotypic_projections(1e3),
                *_z8_isotypic_projections(1e5), *_z8_isotypic_projections(1e7),
                *_dependent_leading_columns()]


@pytest.mark.parametrize("name, a, rank", RANGE_INPUTS, ids=[case[0] for case in RANGE_INPUTS])
def test_range_basis_matches_the_svd_oracle(name, a, rank):
    # the pivoted Gram-Schmidt stops at the known rank; its columns are
    # orthonormal and span the range that the SVD route finds, on oblique
    # projections of every rank, on the isotypic projections of an
    # ill-conditioned Z8 (norms up to 2e6 at condition 1e7) and on columns
    # whose largest ones are dependent
    basis = range_basis(a, rank).basis
    oracle = column_space(a)
    assert basis.shape == (len(a), rank) and oracle.dim == rank
    assert es.operator_norm(basis.conj().T @ basis - np.eye(rank)) <= 1e-14
    assert es.operator_norm(basis @ basis.conj().T - oracle.projector()) <= 1e-12


def test_tall_kernels_take_thin_factors(monkeypatch):
    rng = np.random.default_rng(8)
    cols = rng.standard_normal((48, 4)) + 1j * rng.standard_normal((48, 4))
    tall = cols @ (rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7)))
    u, s, vh = np.linalg.svd(tall)              # full factors, as before
    rank = int(np.sum(s > DEFAULT_CONFIG.tol_rank * s[0]))
    assert rank == 4

    requested = []
    full_svd = np.linalg.svd

    def recording_svd(a, full_matrices=True, **kwargs):
        requested.append((np.shape(a), full_matrices))
        return full_svd(a, full_matrices=full_matrices, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    kernel = null_space(tall)
    image = column_space(tall)
    assert kernel.basis.tobytes() == vh[rank:].conj().T.tobytes()
    assert image.basis.tobytes() == u[:, :rank].tobytes()
    assert requested == [((48, 7), False), ((48, 7), False)]
    # a wide matrix still needs the full V^H for its kernel
    assert null_space(tall.T).dim == 44
    assert requested[-1] == ((7, 48), True)


def _single_linkage_oracle(values, radius):
    """The scalar loop that _single_linkage_clusters replaced, and
    np.mean of each cluster."""
    remaining = set(range(len(values)))
    clusters = []
    while remaining:
        seed_idx = min(remaining, key=lambda i: (values[i].real, values[i].imag))
        cluster = {seed_idx}
        frontier = [seed_idx]
        remaining.discard(seed_idx)
        while frontier:
            i = frontier.pop()
            near = [j for j in remaining if abs(values[i] - values[j]) <= radius]
            for j in near:
                remaining.discard(j)
                cluster.add(j)
                frontier.append(j)
        clusters.append(sorted(cluster))
    clusters.sort(key=lambda c: (np.mean(values[c]).real, np.mean(values[c]).imag))
    return clusters, [np.mean(values[c]) for c in clusters]


def _assert_clusters_match_the_oracle(values, radius, name=None):
    clusters, centroids = _single_linkage_clusters(values, radius)
    oracle_clusters, oracle_centroids = _single_linkage_oracle(values, radius)
    assert clusters == oracle_clusters, name
    assert np.asarray(centroids).tobytes() == \
        np.asarray(oracle_centroids, dtype=np.complex128).tobytes(), name


def _reordered_basis_oracle(schur_form, selected, cluster_gap):
    """The reordered basis of a cluster, selected by the per-entry loop
    over the Schur diagonal that the selection by position replaced."""
    t, z = schur_form
    selected = np.asarray(selected)

    def want(w):
        return bool(np.min(np.abs(w - selected)) < cluster_gap / 2)

    select = np.array([want(w) for w in np.diag(t)], dtype=np.int32)
    trsen, = scipy.linalg.lapack.get_lapack_funcs(("trsen",), (t,))
    _, zs, _, sdim, _, _, info = trsen(select, t, z, job="N")
    assert info == 0
    return zs[:, :sdim], int(sdim)


def _tight_clusters(rng, radius):
    """Values in a few clusters whose spacings straddle `radius`: pairs
    just inside and just outside it, chains of near-radius steps, and
    exact repeats."""
    centres = np.exp(2j * np.pi * rng.random(5)) * rng.uniform(0.2, 1.0, 5)
    values = []
    for centre in centres:
        step = radius * rng.choice([0.5, 0.999, 1.001, 2.0])
        angle = np.exp(2j * np.pi * rng.random())
        values.extend(centre + angle * step * np.arange(int(rng.integers(1, 5))))
        values.append(centre + radius * rng.uniform(-1.5, 1.5) * 1j)
    values.append(values[0])
    return rng.permutation(np.array(values, dtype=np.complex128))


def _cluster_paths(rng, radius):
    """Inputs for _single_linkage_clusters at the edges of its chaining,
    placed and shuffled by `rng`."""
    centre = complex(*rng.uniform(-1, 1, 2))
    angle = np.exp(2j * np.pi * rng.random())
    grid = 3 * radius * (rng.permutation(25)[:7] + 1j * rng.permutation(25)[:7])
    chain = centre + angle * 0.9 * radius * np.arange(6)
    disc = centre + 0.2 * radius * np.exp(2j * np.pi * rng.random(11)) * rng.random(11)
    repeats = centre + 3 * radius * rng.integers(0, 3, 9)
    upper = 0.5 + 0.5j + 0.3 * radius * (rng.random(5) + 1j * rng.random(5))
    upper = np.append(upper, [0.2 + 0.4j, 0.2 + 0.7j])
    return {
        "empty": np.zeros(0, dtype=np.complex128),
        "single": np.array([centre]),
        "no near pair": centre + grid,
        "every pair near": disc,
        "chain of 6": rng.permutation(np.append(chain, chain[-1] + 5 * radius)),
        "exact repeats": repeats,
        "cluster of 11": rng.permutation(np.append(disc, centre + 3 * radius)),
        "conjugate clusters": rng.permutation(np.concatenate([upper, upper.conj()])),
    }


@pytest.mark.parametrize("seed", range(6))
def test_clusters_match_the_scalar_loop(seed):
    rng = np.random.default_rng([7, seed])
    for radius in (DEFAULT_CONFIG.tol_cluster, 100 * DEFAULT_CONFIG.tol_cluster):
        _assert_clusters_match_the_oracle(_tight_clusters(rng, radius), radius)
        for name, values in _cluster_paths(rng, radius).items():
            _assert_clusters_match_the_oracle(values, radius, name)


@pytest.mark.parametrize("n", [6, 24, 80])
def test_selection_matches_the_scalar_loop(n):
    # clustered spectra with Jordan scatter around the cluster radius
    for seed in range(4):
        mat = _clustered_matrix(np.random.default_rng([n, seed]), n)
        form = SchurForm.of(mat)
        eigs = form.eigenvalues
        for radius in (DEFAULT_CONFIG.tol_cluster, 100 * DEFAULT_CONFIG.tol_cluster):
            _assert_clusters_match_the_oracle(eigs, radius)
            for members in _single_linkage_clusters(eigs, radius)[0]:
                basis = form.cluster(members).basis
                oracle_basis, oracle_dim = _reordered_basis_oracle(
                    (form.t, form.z), eigs[members], radius)
                assert basis.shape[1] == oracle_dim
                assert basis.tobytes() == oracle_basis.tobytes()


@pytest.mark.parametrize("shape", [(0, 0), (1, 1), (2, 2), (3, 5), (8, 8), (64, 64)])
def test_operator_norms_match_the_two_norm_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    # 2^18 / 64^2 = 64 matrices fill a block, so 70 of them cross its boundary
    count = 70 if shape == (64, 64) else 5
    mats = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(count)]
    expected = [float(np.linalg.norm(a, 2)) if a.size else 0.0 for a in mats]
    assert es.operator_norms(mats) == expected
    assert es.operator_norms(iter(mats)) == expected
    assert [es.operator_norm(a) for a in mats] == expected
    assert es.operator_norms([]) == []


def _dense_cross_product(projections):
    """max ||P_a P_b|| over ordered pairs, one dense norm per product."""
    worst = 0.0
    for a in range(len(projections)):
        for b in range(len(projections)):
            if a != b:
                worst = max(worst, es.operator_norm(projections[a] @ projections[b]))
    return worst


@pytest.mark.parametrize("dims", [(1,), (1, 1, 1), (2, 2), (3, 1), (1, 2, 3), (3, 2, 1, 2)])
def test_cross_product_from_factors_matches_the_dense_loop(dims):
    rng = np.random.default_rng(len(dims) * 10 + sum(dims))
    n = 9
    factors = []
    for d in dims:
        f, _ = np.linalg.qr(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
        wh = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
        factors.append((f, wh))
    dense = _dense_cross_product([f @ wh for f, wh in factors])
    assert largest_cross_product(factors) == pytest.approx(dense, rel=1e-13, abs=1e-13)
