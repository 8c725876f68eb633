"""The SVD route to kernels, ranges, pole projections and the unitary
spectrum, kept as a test oracle: every subspace from an SVD and a relative
rank cutoff (null_space, column_space), every pole projection from the
pairing of ker(chi - T) with ker((chi - T)^H), and the spectrum from a
joint kernel per candidate character.

The package computes these from isotypic projections (finite monoids) and
from the generators' Schur forms (N^k); the tests hold it to this route.
"""

import itertools

import numpy as np

from ergospec.characters import UnitaryCharacter, char_distance, enumerate_unitary_dual
from ergospec.config import DEFAULT_CONFIG
from ergospec.errors import ErgospecError
from ergospec.linalg import Subspace, operator_norm


class NotNormalized(ErgospecError):
    pass


class DimensionMismatch(ErgospecError):
    pass


def _rank(s, tol, scale):
    """The count of singular values s[0] >= s[1] >= ... above
    tol * max(s[0], scale); None for a cutoff of 0, a zero matrix."""
    cutoff = tol * max(float(s[0]), scale)
    return None if cutoff == 0.0 else int(np.sum(s > cutoff))


def null_space(a, tol=None, scale=0.0):
    """Orthonormal basis of the numerical kernel of `a`.

    Right singular vectors whose singular value is at most
    tol_rank * max(sigma_max, scale). A positive `scale` anchors the rank
    decision to the caller's context when `a` itself may be numerically
    zero (e.g. I - T_s for T_s near the identity).
    """
    tol = DEFAULT_CONFIG.tol_rank if tol is None else tol
    a = np.asarray(a, dtype=np.complex128)
    if 0 in a.shape:
        return Subspace.full(a.shape[1])
    # V is square either way; only a wide matrix needs the full factors,
    # since its thin V^H lacks the kernel rows
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    rank = _rank(s, tol, scale)
    if rank is None:
        return Subspace.full(a.shape[1])
    return Subspace(vh[rank:].conj().T)


def column_space(a, tol=None, scale=0.0):
    """Orthonormal basis of the numerical column space of `a`."""
    tol = DEFAULT_CONFIG.tol_rank if tol is None else tol
    a = np.asarray(a, dtype=np.complex128)
    if 0 in a.shape:
        return Subspace.zero(a.shape[0])
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = _rank(s, tol, scale)
    if rank is None:
        return Subspace.zero(a.shape[0])
    return Subspace(u[:, :rank])


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
    rank = _rank(s, tol, scale)
    if rank is None:
        return Subspace.full(n), Subspace.full(n)
    return Subspace(vh[rank:].conj().T), Subspace(u[:, rank:].copy())


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
    orthonormal basis R of the range.
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


def joint_kernels(rep, values, config=DEFAULT_CONFIG):
    """(ker(chi - T), ker((chi - T)^H)) for the generator values of chi:
    one n x n SVD of chi(g_1) - T_1, each space then cut by the kernel of
    chi(g) - T_g (or its adjoint) on it for the later generators."""
    eye = np.eye(rep.dim, dtype=np.complex128)
    family = rep.family()
    scales = [max(1.0, norm) for norm in rep.generator_norms]
    kernel, cokernel = kernel_and_cokernel(values[0] * eye - family[0], config.tol_rank,
                                           scale=scales[0])

    def cut(space, a, scale):
        if space.dim == 0:
            return space
        inner = null_space(a @ space.basis, config.tol_rank, scale=scale)
        return space if inner.dim == space.dim else Subspace(space.basis @ inner.basis)

    for z, a, scale in zip(values[1:], family[1:], scales[1:]):
        kernel = cut(kernel, z * eye - a, scale)
        cokernel = cut(cokernel, (z * eye - a).conj().T, scale)
    return kernel, cokernel


def pole_projection(rep, chi, config=DEFAULT_CONFIG):
    """The pole projection of chi by the SVD route, F (G^H F)^(-1) G^H, or
    None when the pairing decides that chi is no pole."""
    fix, cokernel = joint_kernels(rep, [chi(g) for g in rep.semigroup.generators], config)
    coordinates = oblique_projection(fix, cokernel, config.tol_rank)
    return None if coordinates is None else fix.basis @ coordinates


def approximate_eigenvector_check(rep, chi, v, eps):
    """True iff max_g ||chi(g) v - T_g v|| <= eps over the generators g."""
    v = np.asarray(v, dtype=np.complex128)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise NotNormalized("test vector must have unit norm")
    worst = 0.0
    for g, mat in zip(rep.semigroup.generators, rep.family()):
        worst = max(worst, float(np.linalg.norm(chi(g) * v - mat @ v)))
    return worst <= eps


def brute_force_spectrum(rep, config=None):
    """Independent oracle: enumerate joint eigenvalue tuples directly.

    Finite monoid: test every character of the enumerated dual for a
    nonzero joint kernel. N^k: try every tuple of per-generator
    eigenvalues. Only intended for small dimensions.
    """
    config = DEFAULT_CONFIG if config is None else config
    n = rep.dim
    eye = np.eye(n, dtype=np.complex128)

    def joint_kernel_dim(values, mats):
        stacked = np.vstack([v * eye - a for v, a in zip(values, mats)])
        scale = max(1.0, max(operator_norm(a) for a in mats))
        return null_space(stacked, config.tol_rank, scale=scale).dim

    found = []
    if rep.is_finite:
        for chi in enumerate_unitary_dual(rep.semigroup):
            values = chi.values()
            if joint_kernel_dim(values, rep.matrices) > 0:
                found.append(chi)
        return found

    spectra = [np.linalg.eigvals(a) for a in rep.matrices]
    for combo in itertools.product(*spectra):
        if any(abs(abs(v) - 1.0) > config.tol_char for v in combo):
            continue
        if joint_kernel_dim(combo, rep.matrices) == 0:
            continue
        unit = tuple(v / abs(v) for v in combo)
        chi = UnitaryCharacter(rep.semigroup, gen_values=unit)
        if all(char_distance(chi, other) > config.tol_cluster for other in found):
            found.append(chi)
    return found
