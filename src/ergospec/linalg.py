"""Dense complex linear algebra: rank decisions, kernels, oblique
projections, and joint triangularization of commuting families.

All routines work on O(1)-normed matrices at desk scale (n <= 256). Rank
decisions use a relative singular-value threshold, anchored to the caller's
scale where the input matrix itself may be numerically zero.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .config import DEFAULT_CONFIG, DEFAULT_SEED
from .errors import DimensionMismatch, NotCommuting


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


@dataclass
class BlockDecomposition:
    """Common unitary triangularization of a commuting family.

    `unitary` is n x n; conjugating any input matrix by it gives an upper
    triangular matrix, and the diagonal is constant on each block
    [block_starts[i], block_starts[i+1]). block_values[i][j] is the shared
    diagonal value of input matrix j on block i; distinct blocks carry
    distinct value tuples.
    """

    unitary: np.ndarray
    block_starts: list
    block_values: list  # per block: tuple with one complex value per matrix
    seed: int
    warnings: list = field(default_factory=list)

    @property
    def n(self):
        return self.unitary.shape[0]

    def block_slices(self):
        bounds = list(self.block_starts) + [self.n]
        return [slice(bounds[i], bounds[i + 1]) for i in range(len(self.block_starts))]


def _single_linkage_clusters(values, radius):
    """Indices grouped by single-linkage chaining at the given radius."""
    values = np.asarray(values)
    near = np.abs(values[:, None] - values[None, :]) <= radius
    if near.all():
        return [list(range(len(values)))]
    unassigned = np.ones(len(values), dtype=bool)
    clusters = []
    # each cluster grows from the least unassigned value by (real, imag)
    for seed_idx in np.lexsort((values.imag, values.real)):
        if not unassigned[seed_idx]:
            continue
        frontier = np.zeros_like(unassigned)
        frontier[seed_idx] = True
        members = frontier.copy()
        while frontier.any():
            frontier = near[frontier].any(axis=0) & ~members
            members |= frontier
        unassigned &= ~members
        clusters.append(np.flatnonzero(members).tolist())

    def centroid(cluster):
        mean = np.mean(values[cluster])
        return mean.real, mean.imag

    # deterministic order: by cluster centroid
    clusters.sort(key=centroid)
    return clusters


def _unitary_with_first_column(v):
    """A unitary matrix whose first column is the given unit vector."""
    n = v.shape[0]
    basis = np.eye(n, dtype=np.complex128)
    mat = np.column_stack([v, basis])
    q, r = np.linalg.qr(mat)
    # QR may flip the phase of the leading column; undo it.
    phase = r[0, 0] / abs(r[0, 0])
    q = q * phase
    q[:, 0] = v
    return q[:, :n]


def _joint_eigenvector(mats, config):
    """A common eigenvector of a commuting family (each matrix is assumed
    to have a single eigenvalue cluster on the current space)."""
    d = mats[0].shape[0]
    basis = np.eye(d, dtype=np.complex128)
    for a in mats:
        if basis.shape[1] == 1:
            break
        m = basis.conj().T @ a @ basis
        eigs = np.linalg.eigvals(m)
        lam = eigs[np.argmin(np.abs(eigs - eigs.mean()))]
        shifted = m - lam * np.eye(m.shape[0])
        # the scale floor keeps a numerically-zero shift (m = lam I) reading
        # as the full kernel instead of full rank of rounding noise
        ker = null_space(shifted, config.tol_rank,
                         scale=max(1.0, operator_norm(m)))
        if ker.dim == 0:
            # tolerance missed the kernel; fall back to the weakest singular vector
            _, _, vh = np.linalg.svd(shifted)
            ker_basis = vh[-1:].conj().T
        else:
            ker_basis = ker.basis
        basis = basis @ ker_basis
    v = basis[:, 0]
    return v / np.linalg.norm(v)


def _common_triangular(mats, config):
    """Unitary U with U^H A U upper triangular for every A, by deflation
    against common eigenvectors.

    A family whose entries are all at most tol_commute is triangular in any
    basis within the residual that _try_split accepts, so it keeps the
    identity: deflating it would cost an eigvals, two SVDs and a QR per
    column."""
    d = mats[0].shape[0]
    u = np.eye(d, dtype=np.complex128)
    if all(np.abs(a).max() <= config.tol_commute for a in mats):
        return u
    work = [a.copy() for a in mats]
    for col in range(d - 1):
        sub = [a[col:, col:] for a in work]
        v = _joint_eigenvector(sub, config)
        h = _unitary_with_first_column(v)
        full = np.eye(d, dtype=np.complex128)
        full[col:, col:] = h
        work = [full.conj().T @ a @ full for a in work]
        u = u @ full
    return u


def _invariant_subspace(schur_form, selected, cluster_gap):
    """Orthonormal basis of the spectral subspace for the eigenvalues in
    `selected`, by reordering the complex Schur form (t, z) of the matrix
    so that they lead.

    This is the reordering (LAPACK trsen) that a sorted Schur
    factorization applies to the unsorted one, with the same selection,
    so one factorization serves every cluster and the bases keep their
    bits."""
    t, z = schur_form
    selected = np.asarray(selected)
    distance = np.abs(np.diag(t)[:, None] - selected[None, :]).min(axis=1)
    select = (distance < cluster_gap / 2).astype(np.int32)
    trsen, = scipy.linalg.lapack.get_lapack_funcs(("trsen",), (t,))
    _, zs, _, sdim, _, _, info = trsen(select, t, z, job="N")
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues could not be separated for reordering.")
    return zs[:, :sdim], int(sdim)


def _conjugated_diagonal(u, a):
    """diag(U^H A U) for n x n factors, by one contraction that forms U^H A
    first. For n >= 2 that is the order the greedy search of
    np.einsum(..., optimize=True) picks, and at n = 1 the block
    decomposition's U is 1, so the bits are the search's; naming the order
    skips the search, which costs more than the contraction at desk
    scale."""
    return np.einsum("ij,jk,ki->i", u.conj().T, a, u,
                     optimize=["einsum_path", (0, 1), (0, 1)])


def _runs_from_diagonals(diags, radius):
    """Block starts from consecutive runs of near-equal joint diagonals."""
    d = diags[0].shape[0]
    starts = [0]
    for i in range(1, d):
        if max(abs(diag[i] - diag[i - 1]) for diag in diags) > radius:
            starts.append(i)
    return starts


def _strict_lower_residual(mat, starts):
    """Largest entry magnitude strictly below the block diagonal."""
    d = mat.shape[0]
    bounds = list(starts) + [d]
    worst = 0.0
    for b in range(len(starts)):
        lo = bounds[b + 1]
        if lo < d:
            worst = max(worst, float(np.abs(mat[lo:, bounds[b]:lo]).max()))
    return worst


class _Splitter:
    """A matrix whose spectral clusters may split a family, with its
    eigenvalues and complex Schur form each computed once, on first use,
    for every cluster radius tried."""

    def __init__(self, matrix):
        self.matrix = matrix

    @cached_property
    def eigenvalues(self):
        return np.linalg.eigvals(self.matrix)

    @cached_property
    def schur_form(self):
        return scipy.linalg.schur(self.matrix, output="complex")


def _try_split(mats, splitter, radius, config, rng, warnings):
    """Attempt to split along the spectral clusters of a _Splitter.

    The assembled basis is only accepted if every matrix actually comes
    out block upper triangular: the eigenvalues of a defective block
    scatter like eps^(1/blocksize), and the resulting spurious
    one-dimensional subspaces are nearly parallel, which wrecks the
    orthogonalized basis. Returns (U, starts) or None."""
    d = mats[0].shape[0]
    eigs = splitter.eigenvalues
    clusters = _single_linkage_clusters(eigs, radius)
    if len(clusters) < 2:
        return None

    bases = []
    for cluster in clusters:
        basis, sdim = _invariant_subspace(splitter.schur_form, eigs[cluster], radius)
        if sdim != len(cluster) or sdim in (0, d):
            return None
        bases.append(basis)
    if sum(b.shape[1] for b in bases) != d:
        return None

    child_bases = []
    child_starts = []
    child_warnings = []
    offset = 0
    for basis in bases:
        restricted = [basis.conj().T @ a @ basis for a in mats]
        sub_u, sub_starts = _split_family(restricted, config, rng, child_warnings)
        child_bases.append(basis @ sub_u)
        child_starts.extend(offset + s for s in sub_starts)
        offset += basis.shape[1]

    stacked = np.hstack(child_bases)
    q, r = np.linalg.qr(stacked)
    # conjugation by the upper triangular R preserves within-block
    # triangularity and diagonals; fix column phases for determinism
    rdiag = np.diag(r).copy()
    rdiag[rdiag == 0] = 1.0
    q = q * (rdiag / np.abs(rdiag))

    for a in mats:
        transformed = q.conj().T @ a @ q
        residual = _strict_lower_residual(transformed, child_starts)
        # the bound is at least tol_commute, so only a residual above it
        # needs the norm
        if residual > config.tol_commute and \
                residual > config.tol_commute * max(1.0, operator_norm(a)):
            return None
    warnings.extend(child_warnings)
    return q, child_starts


def _split_family(mats, config, rng, warnings):
    """Recursive simultaneous triangularization.

    Returns (U, starts): in the basis U every matrix is upper triangular
    and the diagonal is constant on each block."""
    d = mats[0].shape[0]
    if d == 1:
        return np.eye(1, dtype=np.complex128), [0]

    # the coarse radius absorbs the eigenvalue scatter of defective blocks
    # (eps^(1/3) for blocks up to size 3) that the fine radius would split
    fine = config.tol_cluster
    coarse = max(100 * config.tol_cluster, fine)

    # splitting spectra: a generic combination first, then each matrix on
    # its own (for the measure-zero case of a degenerate combination)
    coeffs = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
    coeffs /= np.abs(coeffs).sum()
    generic = sum(c * a for c, a in zip(coeffs, mats))
    splitters = [_Splitter(a) for a in (generic, *mats)]

    for radius in (fine, coarse):
        for splitter in splitters:
            result = _try_split(mats, splitter, radius, config, rng, warnings)
            if result is not None:
                if radius is not fine:
                    warnings.append(
                        "spectral split needed a coarsened cluster radius "
                        "(defective eigenvalue scatter)")
                return result

    # no splitter separates the spectrum: triangularize by deflation and
    # read the block structure off the diagonal runs
    u = _common_triangular(mats, config)
    diags = [_conjugated_diagonal(u, a) for a in mats]
    return u, _runs_from_diagonals(diags, coarse)


def joint_block_decomposition(family, config=None, seed=DEFAULT_SEED):
    """Simultaneously triangularize a commuting family and read off the
    per-block joint diagonal values.

    The family is split recursively along the spectral clusters of a
    seeded generic linear combination (coefficients normalized so cluster
    separation transfers to the joint values); exhausted blocks are
    triangularized by deflating common eigenvectors. Raises NotCommuting
    if a pairwise commutator exceeds tol_commute relative to the norms.
    """
    config = DEFAULT_CONFIG if config is None else config
    mats = [as_complex_matrix(a) for a in family]
    if not mats:
        raise ValueError("family must contain at least one matrix")
    n = mats[0].shape[0]
    for a in mats:
        if a.shape != (n, n):
            raise DimensionMismatch("family matrices must share one square shape")
    if n > config.max_dim:
        raise ValueError(f"dimension {n} exceeds supported maximum {config.max_dim}")

    # the max(1, .) floor keeps the bound meaningful for near-zero matrices
    norms = [max(1.0, norm) for norm in operator_norms(mats)]
    for p in range(len(mats)):
        for q in range(p + 1, len(mats)):
            residual = operator_norm(mats[p] @ mats[q] - mats[q] @ mats[p])
            if residual > config.tol_commute * norms[p] * norms[q]:
                raise NotCommuting(p, q, residual)

    warnings = []
    rng = np.random.default_rng(seed)
    unitary, starts = _split_family(mats, config, rng, warnings)

    # per-block diagonal values
    diags = [_conjugated_diagonal(unitary, a) for a in mats]
    bounds = starts + [n]
    block_values = []
    for b in range(len(starts)):
        lo, hi = bounds[b], bounds[b + 1]
        segments = [diag[lo:hi] for diag in diags]
        means = [segment.mean() for segment in segments]
        for j, segment in enumerate(segments):
            spread = np.abs(segment - means[j]).max()
            if spread > config.tol_cluster:
                warnings.append(
                    f"block {b}: diagonal spread {spread:.2e} of matrix {j} "
                    f"exceeds tol_cluster (cluster instability)")
        block_values.append(tuple(complex(mean) for mean in means))

    # adjacent blocks whose joint tuples collide are merged and reported
    merged_starts, merged_values = [starts[0]], [block_values[0]]
    for b in range(1, len(starts)):
        prev = merged_values[-1]
        cur = block_values[b]
        if max(abs(p - c) for p, c in zip(prev, cur)) < config.tol_cluster:
            warnings.append(
                f"blocks at {merged_starts[-1]} and {starts[b]} sit within "
                f"tol_cluster of merging (cluster instability); merged")
            continue
        merged_starts.append(starts[b])
        merged_values.append(cur)

    return BlockDecomposition(
        unitary=unitary,
        block_starts=merged_starts,
        block_values=merged_values,
        seed=seed,
        warnings=warnings,
    )
