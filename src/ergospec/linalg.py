"""Dense complex linear algebra: rank decisions, subspace arithmetic, and
joint triangularization of commuting families.

All routines work on O(1)-normed matrices at desk scale (n <= 256). Rank
decisions use a relative singular-value threshold, anchored to the caller's
scale where the input matrix itself may be numerically zero.
"""

import math
from dataclasses import dataclass, field

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


def operator_norm(a):
    """Largest singular value."""
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


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
    zero (e.g. I - T_s for T_s near the identity).
    """
    tol = DEFAULT_CONFIG.tol_rank if tol is None else tol
    a = as_complex_matrix(a)
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
    a = as_complex_matrix(a)
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


def subspace_sum(spaces, tol=None):
    """Sum of subspaces via orthonormalization of the concatenated bases."""
    spaces = list(spaces)
    if not spaces:
        raise ValueError("need at least one subspace")
    n = spaces[0].ambient_dim
    for sp in spaces:
        if sp.ambient_dim != n:
            raise DimensionMismatch("subspace sum across different ambient dimensions")
    stacked = np.hstack([sp.basis for sp in spaces])
    if stacked.shape[1] == 0:
        return Subspace.zero(n)
    return column_space(stacked, tol)


def subspace_intersect(spaces, tol=None):
    """Intersection via the joint kernel of the complement projections."""
    spaces = list(spaces)
    if not spaces:
        raise ValueError("need at least one subspace")
    n = spaces[0].ambient_dim
    for sp in spaces:
        if sp.ambient_dim != n:
            raise DimensionMismatch("subspace intersection across different ambient dimensions")
    eye = np.eye(n, dtype=np.complex128)
    stacked = np.vstack([eye - sp.projector() for sp in spaces])
    return null_space(stacked, tol, scale=1.0)


def is_direct_complement(f, r, tol=None):
    """True iff dim F + dim R = n and the smallest principal angle between
    F and R is bounded away from zero.

    The test requires sigma_min([F R]) > sqrt(tol_rank); for small angles
    sigma_min([F R]) is theta_min / sqrt(2), so this is an angle threshold
    of about sqrt(2 * tol_rank).
    """
    tol = DEFAULT_CONFIG.tol_rank if tol is None else tol
    if f.ambient_dim != r.ambient_dim:
        raise DimensionMismatch("subspaces in different ambient dimensions")
    n = f.ambient_dim
    if f.dim + r.dim != n:
        return False
    if f.dim == 0 or r.dim == 0:
        return True
    stacked = np.hstack([f.basis, r.basis])
    smin = np.linalg.svd(stacked, compute_uv=False)[-1]
    return bool(smin > math.sqrt(tol))


def projection_onto_along(f, r):
    """The (oblique) projection onto F along R, given a direct complement."""
    n = f.ambient_dim
    basis = np.hstack([f.basis, r.basis])
    coords = np.linalg.solve(basis, np.eye(n, dtype=np.complex128))
    return f.basis @ coords[: f.dim, :]


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
    # deterministic order: by cluster centroid
    clusters.sort(key=lambda c: (np.mean(values[c]).real, np.mean(values[c]).imag))
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
    against common eigenvectors."""
    d = mats[0].shape[0]
    u = np.eye(d, dtype=np.complex128)
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


def _try_split(mats, splitter, radius, config, rng, warnings):
    """Attempt to split along the spectral clusters of `splitter`.

    The assembled basis is only accepted if every matrix actually comes
    out block upper triangular: the eigenvalues of a defective block
    scatter like eps^(1/blocksize), and the resulting spurious
    one-dimensional subspaces are nearly parallel, which wrecks the
    orthogonalized basis. Returns (U, starts) or None."""
    d = mats[0].shape[0]
    eigs = np.linalg.eigvals(splitter)
    clusters = _single_linkage_clusters(eigs, radius)
    if len(clusters) < 2:
        return None

    schur_form = scipy.linalg.schur(splitter, output="complex")
    bases = []
    for cluster in clusters:
        basis, sdim = _invariant_subspace(schur_form, eigs[cluster], radius)
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
        if _strict_lower_residual(transformed, child_starts) > \
                config.tol_commute * max(1.0, operator_norm(a)):
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

    for radius in (fine, coarse):
        for splitter in [generic, *mats]:
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
    diags = [np.einsum("ij,jk,ki->i", u.conj().T, a, u, optimize=True) for a in mats]
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
    norms = [max(1.0, operator_norm(a)) for a in mats]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            residual = operator_norm(mats[i] @ mats[j] - mats[j] @ mats[i])
            if residual > config.tol_commute * norms[i] * norms[j]:
                raise NotCommuting(i, j, residual)

    warnings = []
    rng = np.random.default_rng(seed)
    unitary, starts = _split_family(mats, config, rng, warnings)

    # per-block diagonal values; diag(U^H A U) via one contraction per matrix
    diags = [np.einsum("ij,jk,ki->i", unitary.conj().T, a, unitary, optimize=True)
             for a in mats]
    bounds = starts + [n]
    block_values = []
    for b in range(len(starts)):
        lo, hi = bounds[b], bounds[b + 1]
        values = []
        for m_idx, diag in enumerate(diags):
            segment = diag[lo:hi]
            spread = np.abs(segment - segment.mean()).max() if hi > lo else 0.0
            if spread > config.tol_cluster:
                warnings.append(
                    f"block {b}: diagonal spread {spread:.2e} of matrix {m_idx} "
                    f"exceeds tol_cluster (cluster instability)")
            values.append(complex(segment.mean()))
        block_values.append(tuple(values))

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
