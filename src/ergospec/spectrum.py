"""The unitary spectrum of a representation and its cross-checks.

In finite dimension the unitary spectrum coincides with the unitary point
spectrum: a unitary character belongs to the spectrum exactly when the
commuting family has a joint eigenvector for it. Candidates are read off
the trace multiplicities of the exact dual (finite monoid) or the
generators' unimodular eigenvalue clusters (N^k) and confirmed by a
nonzero joint kernel.
The coefficient-inequality falsifier provides an independent one-sided
refutation route.
"""

from dataclasses import dataclass

import numpy as np

from .characters import (
    UnitaryCharacter,
    _characters_from_numerators,
    _dual_numerators,
    char_distance,
    enumerate_unitary_dual,
)
from .config import DEFAULT_CONFIG, DEFAULT_SEED
from .errors import NotBounded, NotNormalized
from .linalg import (
    Subspace,
    _unimodular_values,
    kernel_and_cokernel,
    null_space,
    operator_norm,
)


@dataclass
class UnitarySpectrumResult:
    characters: list          # UnitaryCharacter, canonically ordered
    eigenspaces: list         # Subspace per character, each nonzero
    witnesses: list           # one joint eigenvector per character

    def __len__(self):
        return len(self.characters)

    def contains(self, chi, tol=None):
        tol = DEFAULT_CONFIG.tol_cluster if tol is None else tol
        return any(char_distance(chi, c) <= tol for c in self.characters)


class JointKernels:
    """ker(chi - T) and ker((chi - T)^H) = rg(chi - T)^perp over the first
    j generators, by the tuple (chi(g_1), ..., chi(g_j)) of generator
    values, each computed on first use. The pair of a one-value tuple comes
    from one SVD (linalg.kernel_and_cokernel); a longer tuple cuts its
    prefix's space by the next generator (_cut).

    An Analysis holds one, so the spectrum walk, the eigenspaces, the poles
    and the mean ergodic split read the same factorizations, and characters
    that agree on the leading generators share them. The cokernel over all
    generators is that of chi - T, since rg(chi - T) is the sum of the
    rg(chi(g) - T_g): chi(g+h) - T_g T_h = chi(h) (chi(g) - T_g) +
    T_g (chi(h) - T_h)."""

    def __init__(self, rep, config):
        self.rep = rep
        self.config = config
        self._spaces = {}

    def kernel(self, values):
        return self._space(tuple(values), False)

    def cokernel(self, values):
        return self._space(tuple(values), True)

    def _space(self, values, adjoint):
        key = (values, adjoint)
        if key not in self._spaces:
            rep, config, index = self.rep, self.config, len(values) - 1
            if index == 0:
                a = values[0] * np.eye(rep.dim, dtype=np.complex128) - rep.family()[0]
                # the scale floor keeps z - T_g near zero from reading as full rank
                self._spaces[values, False], self._spaces[values, True] = \
                    kernel_and_cokernel(a, config.tol_rank,
                                        scale=max(1.0, rep.generator_norms[0]))
            else:
                prefix = self._space(values[:-1], adjoint)
                self._spaces[key] = prefix if prefix.dim == 0 else \
                    _cut(rep, prefix, index, values[index], config, adjoint)
        return self._spaces[key]


def _cut(rep, kernel, index, z, config, adjoint=False):
    """The kernel of z - T_g, or of (z - T_g)^H when `adjoint` is set,
    inside the subspace `kernel`, g the generator at `index`: the kernel of
    the n x dim K matrix (z - T_g) K, with the scale floor of the full
    kernel."""
    a = z * np.eye(rep.dim, dtype=np.complex128) - rep.family()[index]
    if adjoint:
        a = a.conj().T
    inner = null_space(a @ kernel.basis, config.tol_rank,
                       scale=max(1.0, rep.generator_norms[index]))
    if inner.dim < kernel.dim:   # else K's basis stays as it is
        kernel = Subspace(kernel.basis @ inner.basis)
    return kernel


def eigenspace(rep, chi, config=None, kernels=None):
    """ker(chi - T): the joint kernel over the generator matrices, which
    suffice because a joint generator eigenvector is an eigenvector of every
    product. `kernels` is the caller's JointKernels of rep, by default a
    fresh one.
    """
    config = DEFAULT_CONFIG if config is None else config
    kernels = JointKernels(rep, config) if kernels is None else kernels
    return kernels.kernel(chi(g) for g in rep.semigroup.generators)


def _trace_multiplicities(rep):
    """The dual of a finite monoid, as _dual_numerators gives it, and the
    multiplicity of each character in T,

        dim ker(chi - T) = (1/|K|) sum over k in K of conj chi(k) tr T_k,

    by the orthogonality relations of the kernel group K (Serre, Linear
    Representations of Finite Groups, 2.3): ker(chi - T) lies in rg T_e,
    on which K acts as a group, and T_k vanishes on ker T_e."""
    group, numerators = _dual_numerators(rep.semigroup)
    order = len(group.carrier)
    traces = np.array([np.trace(rep.matrices[k]) for k in group.carrier])
    conjugates = np.exp(-2j * np.pi * np.arange(order) / order)
    return numerators, (conjugates[numerators[:, group.carrier]] @ traces).real / order


def _joint_unimodular_kernels(rep, config, kernels):
    """N^k: (generator values, joint kernel) of each unimodular joint
    eigenvalue tuple of the generators with a nonzero joint kernel.

    The walk takes each unimodular eigenvalue cluster z of T_1, whose
    eigenvalues the boundedness certificate recorded, and the kernel
    K = ker(z - T_1), which every later generator leaves invariant as it
    commutes with T_1. It continues with the clusters of K^H T_2 K,
    cutting K by each, and so on through the generators, reading every
    kernel from `kernels`. A leaf's kernel is the joint kernel of its
    character."""
    family = rep.family()
    found = []

    def walk(values):
        kernel = kernels.kernel(values)
        if not kernel.dim:
            return
        index = len(values)
        if index == len(family):
            found.append((values, kernel))
            return
        a = kernel.basis.conj().T @ family[index] @ kernel.basis
        for z in _unimodular_values(np.linalg.eigvals(a), config):
            walk(values + (z,))

    for z in _unimodular_values(np.array(rep.boundedness.eigenvalues), config):
        walk((z,))
    return found


def _spectral_order(chi):
    """Exact angles for a finite monoid. Over N^k the generator values
    rounded to 6 decimals first, and then the exact values. Rounding noise
    then flips two characters with equal parts, such as a conjugate pair
    on one vertical line, only when that part lies within the noise of a
    rounding boundary, an odd multiple of 5e-7."""
    if chi.is_exact:
        return chi.canonical_key()
    return (tuple((round(z.real, 6), round(z.imag, 6)) for z in chi.gen_values),
            chi.canonical_key())


def unitary_spectrum(rep, config=None, kernels=None):
    """Compute sigma_uni(T) with eigenspaces and witnesses.

    Requires a Certified representation. An empty result is a valid
    outcome (a stable representation), not an error. Over a finite monoid
    the candidates are the dual characters of trace multiplicity at least
    1/2, each kept when its joint kernel is nonzero. Over N^k they come
    from the walk of _joint_unimodular_kernels. `kernels` is the caller's
    JointKernels of rep.
    """
    config = DEFAULT_CONFIG if config is None else config
    if not rep.boundedness.is_certified:
        raise NotBounded("unitary_spectrum requires a Certified representation")
    kernels = JointKernels(rep, config) if kernels is None else kernels

    if rep.is_finite:
        numerators, multiplicities = _trace_multiplicities(rep)
        candidates = _characters_from_numerators(
            rep.semigroup, numerators[multiplicities >= 0.5], len(numerators))
        found = [(chi, eigenspace(rep, chi, config, kernels)) for chi in candidates]
        found = [(chi, space) for chi, space in found if space.dim]
    else:
        found = [(UnitaryCharacter(rep.semigroup, gen_values=values), space)
                 for values, space in _joint_unimodular_kernels(rep, config, kernels)]

    found.sort(key=lambda pair: _spectral_order(pair[0]))
    return UnitarySpectrumResult(
        characters=[chi for chi, _ in found],
        eigenspaces=[space for _, space in found],
        witnesses=[space.basis[:, 0] for _, space in found],
    )


def approximate_eigenvector_check(rep, chi, v, eps):
    """True iff max_g ||chi(g) v - T_g v|| <= eps over the generators g."""
    v = np.asarray(v, dtype=np.complex128)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise NotNormalized("test vector must have unit norm")
    worst = 0.0
    for g, mat in zip(rep.semigroup.generators, rep.family()):
        worst = max(worst, float(np.linalg.norm(chi(g) * v - mat @ v)))
    return worst <= eps


@dataclass
class FalsifierVerdict:
    refuted: bool
    elements: list = None
    coefficients: list = None
    lhs: float = 0.0
    rhs: float = 0.0
    trials: int = 0

    @property
    def label(self):
        return "Refuted" if self.refuted else "ConsistentWithMembership"


def laplace_falsifier(rep, chi, trials=64, config=None, seed=DEFAULT_SEED):
    """Search for coefficients violating |sum b_k chi(s_k)| <= ||sum b_k T_{s_k}||.

    A violation proves chi is not in the unitary spectrum (with the found
    witness); no violation proves nothing. Always tries the conjugate
    pattern b_s = conj(chi(s)) over all elements (finite monoid), the
    deterministic +-1 sign patterns for monoids with at most 16 elements,
    and `trials` random coefficient vectors over small element subsets.
    """
    config = DEFAULT_CONFIG if config is None else config
    if not rep.boundedness.is_certified:
        raise NotBounded("laplace_falsifier requires a Certified representation")
    def candidates():
        """(elements, coefficients): the deterministic patterns, then
        `trials` seeded draws."""
        if rep.is_finite:
            elements = list(rep.semigroup.elements())
            yield elements, [np.conj(chi(s)) for s in elements]
            if rep.semigroup.size <= 16:
                m = rep.semigroup.size
                for bits in range(2 ** (m - 1)):
                    yield elements, [1.0] + [1.0 if (bits >> i) & 1 == 0 else -1.0
                                             for i in range(m - 1)]
        else:
            base = list(rep.semigroup.generators)
            yield base, [np.conj(chi(g)) for g in base]
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            if rep.is_finite:
                m = rep.semigroup.size
                size = int(rng.integers(1, min(m, 8) + 1))
                elements = [int(s) for s in rng.choice(m, size=size, replace=False)]
            else:
                k = rep.semigroup.rank
                size = int(rng.integers(1, 9))
                elements = [tuple(int(x) for x in rng.integers(0, 6, size=k))
                            for _ in range(size)]
            yield elements, rng.standard_normal(size) + 1j * rng.standard_normal(size)

    attempts = 0
    for elements, coeffs in candidates():
        attempts += 1
        lhs = abs(sum(c * chi(s) for c, s in zip(coeffs, elements)))
        rhs = operator_norm(sum(c * rep.matrix(s) for c, s in zip(coeffs, elements)))
        if lhs > rhs + config.tol_char:
            return FalsifierVerdict(True, [list(s) if isinstance(s, tuple) else s
                                           for s in elements],
                                    [complex(c) for c in coeffs], lhs, rhs, attempts)
    return FalsifierVerdict(False, trials=attempts)


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

    import itertools
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
