"""Dense complex linear algebra: rank decisions, kernels, oblique
projections, eigenvalue clusters and spectral subspaces.

All routines work on O(1)-normed matrices at desk scale (n <= 256). Rank
decisions use a relative singular-value threshold, anchored to the caller's
scale where the input matrix itself may be numerically zero.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack

from .config import DEFAULT_CONFIG
from .errors import DimensionMismatch


def as_complex_matrix(a):
    arr = np.array(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError("expected a matrix")
    if not (np.isfinite(arr.real).all() and np.isfinite(arr.imag).all()):
        raise ValueError("matrix entries must be finite")
    return arr


# entries of one stacked array of same-shape matrices (4 MB of complex128)
BLOCK_ENTRIES = 2**18


def operator_norm(a):
    """Largest singular value: the LAPACK call of np.linalg.norm(a, 2),
    without its wrapper."""
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def operator_norms(mats):
    """operator_norm of each matrix of an iterable of same-shape matrices.

    One stacked SVD serves each block of at most BLOCK_ENTRIES entries (at
    least one matrix), so extra memory stays bounded however many matrices
    the iterable yields. LAPACK factors each matrix of the stack on its
    own, so every norm has the bits of a separate call."""
    norms, block = [], []

    def flush():
        stacked = np.asarray(block, dtype=np.complex128)
        if stacked[0].size == 0:
            norms.extend([0.0] * len(block))
        else:
            norms.extend(np.linalg.svd(stacked, compute_uv=False)[:, 0].tolist())
        block.clear()

    for a in mats:
        if block and (len(block) + 1) * np.size(a) > BLOCK_ENTRIES:
            flush()
        block.append(a)
    if block:
        flush()
    return norms


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^n held as an orthonormal column basis."""

    ambient_dim: int
    basis: np.ndarray  # shape (n, d), orthonormal columns

    @property
    def dim(self):
        return self.basis.shape[1]

    def projector(self):
        return self.basis @ self.basis.conj().T

    @staticmethod
    def full(n):
        return Subspace(n, np.eye(n, dtype=np.complex128))

    @staticmethod
    def zero(n):
        return Subspace(n, np.zeros((n, 0), dtype=np.complex128))


def null_space(a, tol=None, scale=0.0):
    """Orthonormal basis of the numerical kernel of `a`.

    Right singular vectors whose singular value is at most
    tol_rank * max(sigma_max, scale). A positive `scale` anchors the rank
    decision to the caller's context when `a` itself may be numerically
    zero (e.g. I - T_s for T_s near the identity). `a` is read as it is,
    with no copy and no finiteness scan: the package builds its matrices
    from inputs that as_complex_matrix has checked.
    """
    tol = DEFAULT_CONFIG.tol_rank if tol is None else tol
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[0] == 0:
        return Subspace.full(a.shape[1])
    # V is square either way; only a wide matrix needs the full factors,
    # since its thin V^H lacks the kernel rows
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    if s.size == 0:
        return Subspace.full(a.shape[1])
    cutoff = tol * max(float(s[0]), scale)
    if cutoff == 0.0:
        return Subspace.full(a.shape[1])
    rank = int(np.sum(s > cutoff))
    return Subspace(a.shape[1], vh[rank:].conj().T)


def column_space(a, tol=None, scale=0.0):
    """Orthonormal basis of the numerical column space of `a`."""
    tol = DEFAULT_CONFIG.tol_rank if tol is None else tol
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[1] == 0:
        return Subspace.zero(a.shape[0])
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0:
        return Subspace.zero(a.shape[0])
    cutoff = tol * max(float(s[0]), scale)
    if cutoff == 0.0:
        return Subspace.zero(a.shape[0])
    rank = int(np.sum(s > cutoff))
    return Subspace(a.shape[0], u[:, :rank])


def kernel_and_cokernel(a, tol=None, scale=0.0):
    """(ker a, ker a^H) of a square matrix from one SVD: the trailing rows
    of V^H span the kernel, bit for bit that of null_space(a, tol, scale),
    and the trailing columns of U span ker a^H = rg(a)^perp (Golub and Van
    Loan, Matrix Computations, 4th ed., 2.4). The cokernel is a copy, so U
    is freed."""
    tol = DEFAULT_CONFIG.tol_rank if tol is None else tol
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    if n == 0:
        return Subspace.full(0), Subspace.full(0)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    cutoff = tol * max(float(s[0]), scale)
    if cutoff == 0.0:
        return Subspace.full(n), Subspace.full(n)
    rank = int(np.sum(s > cutoff))
    return Subspace(n, vh[rank:].conj().T), Subspace(n, u[:, rank:].copy())


def oblique_projection(f, g, tol=None):
    """W^H such that f.basis @ W^H projects onto F along G^perp, or None
    when F and G^perp are not direct complements.

    For F = ker(chi - T) and G = ker((chi - T)^H) = rg(chi - T)^perp this
    is Sine's criterion in finite dimension (Proc. AMS 24, 1970): the fixed
    space of conj(chi) T separates that of its adjoint exactly when the
    d x d pairing G^H F is invertible, and then P = F (G^H F)^(-1) G^H.

    The test requires dim F = dim G and sigma_min(G^H F)^2 > tol_rank
    (2 - tol_rank). As sigma_min(G^H F) = sin theta_min and
    sigma_min([F R])^2 = 1 - cos theta_min, theta_min the smallest
    principal angle between F and R = G^perp, this is exactly
    sigma_min([F R]) > sqrt(tol_rank), the angle test on F and an
    orthonormal basis R of the range. It costs a d x d SVD and a d x d
    solve.
    """
    tol = DEFAULT_CONFIG.tol_rank if tol is None else tol
    if f.ambient_dim != g.ambient_dim:
        raise DimensionMismatch("subspaces in different ambient dimensions")
    if f.dim != g.dim:
        return None
    gh = g.basis.conj().T
    if f.dim == 0:
        return gh
    pairing = gh @ f.basis
    smin = float(np.linalg.svd(pairing, compute_uv=False)[-1])
    if smin * smin <= tol * (2.0 - tol):
        return None
    return np.linalg.solve(pairing, gh)


def largest_cross_product(factors):
    """max ||P_a P_b|| over ordered pairs a != b of projections given by
    their factors (F, W^H), P = F W^H with F orthonormal; 0 for fewer than
    two.

    ||P_a P_b|| = ||W_a^H F_b W_b^H|| = ||(W_a^H F_b) R_b^H|| for the thin
    QR W_b = Q_b R_b. So one Gram product W^H F of size D x D, D the sum of
    the ranks, and norms of blocks of that size replace the r(r - 1) dense
    n x n products and norms. Factors of one rank take one stacked QR, and
    blocks of one shape one stacked norm."""
    if len(factors) < 2:
        return 0.0
    dims = np.array([f.shape[1] for f, _ in factors])
    starts = np.cumsum(dims) - dims
    gram = np.vstack([wh for _, wh in factors]) @ np.hstack([f for f, _ in factors])
    groups = [np.flatnonzero(dims == dim) for dim in np.unique(dims)]
    worst = 0.0
    for members_b in groups:
        dim_b = dims[members_b[0]]
        cols = (starts[members_b, None] + np.arange(dim_b)).ravel()
        coords = np.stack([factors[b][1] for b in members_b])
        if dim_b == 1:   # W_b is one column and R_b its length
            r = np.linalg.norm(coords, axis=2, keepdims=True)
        else:
            r = np.linalg.qr(coords.conj().transpose(0, 2, 1), mode="r")
        # scaled[j] holds the column block of members_b[j] times its R^H
        scaled = gram[:, cols].reshape(-1, len(members_b), dim_b).transpose(1, 0, 2) \
            @ r.conj().transpose(0, 2, 1)
        for members_a in groups:
            dim_a = dims[members_a[0]]
            rows = (starts[members_a, None] + np.arange(dim_a)).ravel()
            blocks = scaled[:, rows].reshape(len(members_b), len(members_a), dim_a, dim_b)
            blocks = blocks[members_b[:, None] != members_a[None, :]]
            if not blocks.size:
                continue
            # all blocks together hold at most the D x D entries of the Gram;
            # the 2-norm of a row or column is its Frobenius norm
            if min(dim_a, dim_b) == 1:
                norms = np.linalg.norm(blocks, axis=(1, 2))
            else:
                norms = np.linalg.svd(blocks, compute_uv=False)[:, 0]
            worst = max(worst, float(norms.max()))
    return worst


def _single_linkage_clusters(values, radius):
    """Indices grouped by single-linkage chaining at the given radius, and
    the centroid of each cluster, with the bits of np.mean over it.

    Each cluster lists its indices in ascending order. The clusters are
    ordered by centroid (real, imag), and clusters with equal centroids by
    their least value in (real, imag) order."""
    values = np.asarray(values)
    n = len(values)
    near = np.abs(values[:, None] - values[None, :]) <= radius
    order = np.lexsort((values.imag, values.real))
    # label each value with the least (real, imag) rank that it reaches
    # by chaining, one step of the chain per round
    label = np.empty(n, dtype=np.intp)
    label[order] = np.arange(n)
    while True:
        reached = np.where(near, label, n).min(axis=1, initial=n)
        if np.array_equal(reached, label):
            break
        label = reached
    # the clusters by least rank, each one's indices ascending
    members = np.argsort(label, kind="stable")
    sizes = np.bincount(label)
    sizes = sizes[sizes > 0]
    starts = np.cumsum(sizes) - sizes
    # the mean of a stacked row has the bits of np.mean of the cluster alone
    centroids = np.empty(len(sizes), dtype=np.complex128)
    for size in np.unique(sizes):
        rows = np.flatnonzero(sizes == size)
        centroids[rows] = values[members[starts[rows, None] + np.arange(size)]].mean(axis=1)
    by_centroid = np.lexsort((centroids.imag, centroids.real))
    flat, bounds = members.tolist(), np.append(starts, n).tolist()
    return ([flat[bounds[c]:bounds[c + 1]] for c in by_centroid.tolist()],
            centroids[by_centroid])


def _peripheral_clusters(values, config):
    """(indices, mean) of each cluster of the eigenvalues `values` at
    radius tol_cluster whose mean has modulus at least 1 - tol_char, in
    the order of _single_linkage_clusters."""
    clusters, centroids = _single_linkage_clusters(values, config.tol_cluster)
    for cluster, mean in zip(clusters, centroids.tolist()):
        if abs(mean) >= 1.0 - config.tol_char:
            yield cluster, mean


def _unimodular_values(values, config):
    """The mean of each cluster of the eigenvalues `values` at radius
    tol_cluster that lies within tol_char of the unit circle, scaled to
    modulus 1."""
    return [mean / abs(mean) for _, mean in _peripheral_clusters(values, config)
            if abs(mean) <= 1.0 + config.tol_char]


def _invariant_subspace(schur_form, selected, cluster_gap):
    """Orthonormal basis and dimension of the spectral subspace for the
    eigenvalues in `selected`, by reordering the complex Schur form (t, z)
    of the matrix so that they lead, and the reciprocal condition number
    s of their mean: 1 / s is the norm of the spectral projector, and a
    perturbation E moves the mean by at most about ||E|| / s (LAPACK
    Users' Guide, 4.8).

    This is the reordering (LAPACK trsen) that a sorted Schur
    factorization applies to the unsorted one, with the same selection,
    so one factorization serves every cluster and the bases keep their
    bits."""
    t, z = schur_form
    selected = np.asarray(selected)
    distance = np.abs(np.diag(t)[:, None] - selected[None, :]).min(axis=1)
    select = (distance < cluster_gap / 2).astype(np.int32)
    m = int(select.sum())
    trsen, = scipy.linalg.lapack.get_lapack_funcs(("trsen",), (t,))
    _, zs, _, sdim, s, _, info = trsen(select, t, z, job="E",
                                       lwork=max(1, 2 * m * (len(select) - m)))
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues could not be separated for reordering.")
    return zs[:, :sdim], int(sdim), float(s)
