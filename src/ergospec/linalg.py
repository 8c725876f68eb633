"""Dense complex linear algebra: operator norms, subspaces, eigenvalue
clusters and their spectral subspaces and Riesz projectors.

All routines work on O(1)-normed matrices at desk scale (n <= 256), and
none decides a rank. A subspace of known dimension comes from a pivoted
Gram-Schmidt that stops at that dimension. The spectral subspace and the Riesz
projector of an eigenvalue cluster come from one complex Schur form,
reordered per cluster (LAPACK trsen and trsyl).

SchurForm.of and _spectral_cluster are the only users of scipy.linalg and
import it on their first call. The N^k certificate is their one caller,
so an analysis of a finite monoid runs on numpy alone and never pays for
loading scipy.linalg.
"""

from dataclasses import dataclass

import numpy as np


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

    basis: np.ndarray  # shape (n, d), orthonormal columns

    @property
    def ambient_dim(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]

    def projector(self):
        return self.basis @ self.basis.conj().T

    @staticmethod
    def full(n):
        return Subspace(np.eye(n, dtype=np.complex128))

    @staticmethod
    def zero(n):
        return Subspace(np.zeros((n, 0), dtype=np.complex128))


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


# Size of the perturbation by which rounding of a matrix and of its Schur
# form moves eigenvalues, relative to ||A||_F. On seeded real and complex
# inputs (n <= 12, similarity condition <= 1e3), a unimodular Jordan pair
# that rounding split beyond tol_cluster sits within 2.7 eps ||A||_F / s
# of its other half, and bounded unimodular clusters lie 8000 eps
# ||A||_F / s or more from every other eigenvalue; 100 eps sits between.
_ROUNDING = 100 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class SpectralCluster:
    """One cluster of eigenvalues of a matrix A, read off the complex Schur
    form reordered so that the cluster leads (LAPACK trsen):
    A = Z [[T11, T12], [0, T22]] Z^H with the cluster's m eigenvalues on
    the diagonal of T11.

    `basis` is Q, the first m columns of Z: an orthonormal basis of the
    spectral subspace. The Riesz projector onto it along the spectral
    subspace of the other eigenvalues is P = Z [[I, R], [0, 0]] Z^H, where
    T11 R - R T22 = T12 (LAPACK trsyl; Golub and Van Loan, Matrix
    Computations, 4th ed., 7.6), held as P = basis @ coordinates with
    coordinates = Q^H + R Z_2^H. trsen's reciprocal condition number of
    the cluster is s = 1 / sqrt(1 + ||R||_F^2), so ||P|| <= 1 / s, and a
    perturbation E moves the cluster's mean by at most about ||E|| / s
    (LAPACK Users' Guide, 4.8)."""

    mean: complex             # the mean of the cluster's eigenvalues
    basis: np.ndarray         # Q, n x m
    coordinates: np.ndarray   # Q^H + R Z_2^H, m x n
    s: float
    defect: float             # ||N||, N the strictly upper triangle of T11
    gap: float                # the distance of the mean to the other eigenvalues
    rounding: float           # _ROUNDING ||A||_F, how far rounding may move an eigenvalue

    def acts_as_mean(self, norm, tol_rank):
        """A acts on the cluster's spectral subspace as its mean: a defect
        of at most tol_rank max(1, ||A||). T11 = D + N, D the diagonal of
        the cluster's eigenvalues, so this bounds the nilpotent part N; the
        spread of D about the mean is the clustering's, at most
        (m - 1) tol_cluster for m eigenvalues."""
        return self.defect <= tol_rank * max(1.0, norm)

    def separated(self):
        """The cluster lies further from the other eigenvalues than a
        perturbation of the size of the rounding can move its mean:
        gap > rounding / s."""
        return self.gap * self.s > self.rounding

    def inside(self):
        """The cluster's mean lies inside the unit circle by more than a
        perturbation of the size of the rounding can move it:
        1 - |mean| > rounding / s."""
        return (1.0 - abs(self.mean)) * self.s > self.rounding


class SchurForm:
    """The complex Schur form A = Z T Z^H of one matrix, and the
    SpectralCluster of a selection of its eigenvalues, each read off this
    one factorization."""

    def __init__(self, t, z):
        self.t, self.z = t, z

    @classmethod
    def of(cls, a):
        import scipy.linalg
        return cls(*scipy.linalg.schur(a, output="complex"))

    @property
    def eigenvalues(self):
        return np.diag(self.t)

    def cluster(self, members):
        """The SpectralCluster of the eigenvalues at the diagonal positions
        `members`, in ascending order."""
        return _spectral_cluster(self.t, self.z, tuple(members), self.eigenvalues)


def _spectral_cluster(t, z, members, eigenvalues):
    """The SpectralCluster of the eigenvalues at the diagonal positions
    `members` of the Schur form (t, z): the reordering that a sorted Schur
    factorization applies to the unsorted one with the same selection,
    then R from the reordered blocks."""
    import scipy.linalg.lapack
    n, m = len(t), len(members)
    select = np.zeros(n, dtype=np.int32)
    select[list(members)] = 1
    trsen, trsyl = scipy.linalg.lapack.get_lapack_funcs(("trsen", "trsyl"), (t,))
    ts, zs, _, _, _, _, info = trsen(select, t, z, job="N")
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues could not be separated for reordering.")
    mean = eigenvalues[list(members)].mean()
    basis = zs[:, :m].copy()
    coordinates = basis.conj().T
    s = 1.0
    if m < n:
        r, scale, info = trsyl(ts[:m, :m], ts[m:, m:], ts[:m, m:], isgn=-1)
        if info < 0:
            raise np.linalg.LinAlgError("Sylvester equation of the reordered form failed.")
        r /= scale
        s = 1.0 / np.sqrt(1.0 + float(np.linalg.norm(r)) ** 2)
        coordinates += r @ zs[:, m:].conj().T
    distance = np.abs(eigenvalues - mean)
    distance[list(members)] = np.inf
    # a cluster of one has no strictly upper triangle
    defect = operator_norm(np.triu(ts[:m, :m], 1)) if m > 1 else 0.0
    return SpectralCluster(mean=complex(mean), basis=basis, coordinates=coordinates,
                           s=s, defect=defect, gap=float(distance.min()),
                           rounding=_ROUNDING * float(np.linalg.norm(t)))


def range_basis(a, rank):
    """An orthonormal basis of the range of the matrix `a`, whose rank is
    known: Gram-Schmidt with column pivoting that stops after `rank`
    steps, O(n m rank) for `a` of shape (n, m) where a full pivoted QR
    takes O(n m min(n, m)). Each step takes the remaining column of
    largest norm, orthogonalizes it twice against the basis so far (CGS2;
    Giraud, Langou and Rozloznik, Comput. Math. Appl. 50, 2005),
    normalizes it and deflates the remaining columns by it, which puts a
    basis of the range first (Golub and Van Loan, Matrix Computations,
    4th ed., 5.4.2). No rank is decided."""
    basis = np.empty((len(a), rank), dtype=np.complex128)
    rest = np.asarray(a, dtype=np.complex128)
    for j in range(rank):
        norms = (rest.real ** 2 + rest.imag ** 2).sum(axis=0)
        pivot = norms.argmax()
        v, norm = rest[:, pivot], norms[pivot]
        if j:
            done = basis[:, :j]
            for _ in range(2):
                v = v - done @ (done.conj().T @ v)
            norm = np.vdot(v, v).real
        basis[:, j] = v = v / np.sqrt(norm)
        if j + 1 < rank:   # the last step leaves nothing to deflate
            rest = rest - v[:, None] * (v.conj() @ rest)
    return Subspace(basis)
