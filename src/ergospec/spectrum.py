"""The unitary spectrum of a representation and its cross-checks.

In finite dimension the unitary spectrum coincides with the unitary point
spectrum: a unitary character belongs to the spectrum exactly when the
commuting family has a joint eigenvector for it. A finite monoid's
eigenspaces are the ranges of the isotypic projections of its exact dual.
Over N^k the candidates are the generators' unimodular eigenvalue
clusters, read off the Schur forms that the boundedness certificate
kept, each confirmed by a nonzero joint kernel: T_1's cluster's spectral
subspace, cut by the later generators.
The coefficient-inequality falsifier provides an independent one-sided
refutation route.
"""

from dataclasses import dataclass
from functools import cached_property

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
    SchurForm,
    Subspace,
    _peripheral_clusters,
    _unimodular_values,
    null_space,
    operator_norm,
    range_basis,
)


@dataclass
class UnitarySpectrumResult:
    characters: list          # UnitaryCharacter, canonically ordered
    eigenspaces: list         # Subspace per character, each nonzero
    witnesses: list           # one joint eigenvector per character
    projections: list = None  # finite monoid: the isotypic P_chi per character

    def __len__(self):
        return len(self.characters)

    def contains(self, chi, tol=None):
        tol = DEFAULT_CONFIG.tol_cluster if tol is None else tol
        return any(char_distance(chi, c) <= tol for c in self.characters)


class JointKernels:
    """The spectral data of an N^k representation that the spectrum, the
    eigenspaces, the poles and the mean ergodic split share: one Schur
    form per generator (the certificate's, or one taken here when a
    derived representation has none), the unimodular clusters of its
    eigenvalues at this config, and ker(chi - T) over the first j
    generators, by the tuple (chi(g_1), ..., chi(g_j)) of generator values,
    each computed on first use.

    The kernel of a one-value tuple z is the spectral subspace Q of T_1's
    cluster at z, which T_1 acts on as the cluster's mean once it passes
    the certificate's test, so no rank is decided there; a longer tuple
    cuts its prefix's kernel by the next generator (_cut). Characters that
    agree on the leading generators share their kernels."""

    def __init__(self, rep, config):
        self.rep = rep
        self.config = config
        self._kernels = {}

    @cached_property
    def forms(self):
        return self.rep.boundedness.schur_forms or tuple(
            SchurForm.of(a) for a in self.rep.family())

    def clusters(self, index):
        """(value, members) of each cluster of generator `index`'s
        eigenvalues at radius tol_cluster whose mean lies within tol_char
        of the unit circle, the value being that mean scaled to modulus 1."""
        return _unimodular_values(self.forms[index].peripheral(self.config), self.config)

    def cluster(self, index, z):
        """The SpectralCluster of generator `index` whose value is nearest
        z, within tol_cluster; None when there is none."""
        distance, members = min(((abs(value - z), members)
                                 for value, members in self.clusters(index)),
                                default=(np.inf, None))
        if distance > self.config.tol_cluster:
            return None
        return self.forms[index].cluster(members)

    def kernel(self, values):
        values = tuple(values)
        if values not in self._kernels:
            rep, config, index = self.rep, self.config, len(values) - 1
            if index == 0:
                cluster = self.cluster(0, values[0])
                if cluster is None:
                    space = Subspace.zero(rep.dim)
                else:
                    space = Subspace(cluster.basis)
                    # a config looser than the certificate's admits clusters
                    # that it never checked
                    if not cluster.acts_as_mean(rep.generator_norms[0], config.tol_rank):
                        space = _cut(rep, space, 0, values[0], config)
            else:
                prefix = self.kernel(values[:-1])
                space = prefix if prefix.dim == 0 else \
                    _cut(rep, prefix, index, values[index], config)
            self._kernels[values] = space
        return self._kernels[values]


def _cut(rep, kernel, index, z, config, adjoint=False):
    """The kernel of z - T_g, or of (z - T_g)^H when `adjoint` is set,
    inside the subspace `kernel`, g the generator at `index`: the kernel of
    the n x dim K matrix (z - T_g) K, with the rank decided at tol_rank
    times max(1, ||T_g||)."""
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


def _isotypic_projections(rep):
    """The characters chi of a finite monoid with tr P_chi >= 1/2, in
    canonical order, their isotypic projections P_chi = (1/|K|) sum over
    k in K of conj chi(k) T_k, from one matmul with the stacked T_k, and
    their ranks, the rounded traces. The kernel group K acts as a group on
    rg T_e and T_k vanishes on ker T_e, so P_chi projects onto ker(chi - T)
    along rg(chi - T) (Serre, Linear Representations of Finite Groups,
    2.6, Thm 8)."""
    group, numerators = _dual_numerators(rep.semigroup)
    order, n = len(group.carrier), rep.dim
    conjugates = np.exp(-2j * np.pi * np.arange(order) / order) / order
    table = conjugates[numerators[:, group.carrier]]
    stacked = np.stack([rep.matrices[k] for k in group.carrier])
    ranks = np.floor((table @ np.trace(stacked, axis1=1, axis2=2)).real + 0.5).astype(int)
    spectral = ranks >= 1
    projections = (table[spectral] @ stacked.reshape(order, n * n)).reshape(-1, n, n)
    return (_characters_from_numerators(rep.semigroup, numerators[spectral], order),
            projections, ranks[spectral].tolist())


def _joint_unimodular_kernels(rep, config, kernels):
    """N^k: (generator values, joint kernel) of each unimodular joint
    eigenvalue tuple of the generators with a nonzero joint kernel.

    The walk takes each unimodular eigenvalue cluster z of T_1, from the
    Schur form that the boundedness certificate kept, and the kernel
    K = ker(z - T_1), its spectral subspace, which every later generator
    leaves invariant as it commutes with T_1. It continues with the
    clusters of K^H T_2 K, cutting K by each, and so on through the
    generators, reading every kernel from `kernels`. A leaf's kernel is the
    joint kernel of its character."""
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
        peripheral = _peripheral_clusters(np.linalg.eigvals(a), config)
        for z, _ in _unimodular_values(peripheral, config):
            walk(values + (z,))

    for z, _ in kernels.clusters(0):
        walk((z,))
    return found


def unitary_spectrum(rep, config=None, kernels=None):
    """Compute sigma_uni(T) with eigenspaces and witnesses.

    Requires a Certified representation. An empty result is a valid
    outcome (a stable representation), not an error. Over a finite monoid
    each eigenspace is the first d columns of a pivoted QR of the isotypic
    projection of rank d: no rank is decided. Over N^k the characters come
    from the walk of _joint_unimodular_kernels, reading `kernels`, the
    caller's JointKernels of rep.
    """
    config = DEFAULT_CONFIG if config is None else config
    if not rep.boundedness.is_certified:
        raise NotBounded("unitary_spectrum requires a Certified representation")

    if rep.is_finite:
        characters, projections, ranks = _isotypic_projections(rep)
        spaces = [range_basis(p, d) for p, d in zip(projections, ranks)]
    else:
        # by the generator values rounded to 6 decimals, then the exact ones:
        # rounding noise flips two characters with equal parts, such as a
        # conjugate pair, only near a rounding boundary, an odd multiple of 5e-7
        kernels = JointKernels(rep, config) if kernels is None else kernels
        found = sorted(_joint_unimodular_kernels(rep, config, kernels), key=lambda pair: (
            [(round(z.real, 6), round(z.imag, 6)) for z in pair[0]],
            [(z.real, z.imag) for z in pair[0]]))
        characters = [UnitaryCharacter(rep.semigroup, gen_values=values) for values, _ in found]
        spaces, projections = [space for _, space in found], None
    return UnitarySpectrumResult(characters=characters, eigenspaces=spaces,
                                 witnesses=[space.basis[:, 0] for space in spaces],
                                 projections=projections)


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
