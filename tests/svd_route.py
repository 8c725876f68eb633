"""The SVD route to kernels, ranges and pole projections, kept as a test
oracle: every subspace from an SVD and a relative rank cutoff, every pole
projection from the pairing of ker(chi - T) with ker((chi - T)^H).

The package computes these from isotypic projections (finite monoids) and
from the generators' Schur forms (N^k); the tests hold it to this route.
"""

import numpy as np

from ergospec.config import DEFAULT_CONFIG
from ergospec.errors import DimensionMismatch
from ergospec.linalg import Subspace, _rank, null_space


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
