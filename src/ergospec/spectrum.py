"""The unitary spectrum of a representation and its cross-checks.

In finite dimension the unitary spectrum coincides with the unitary point
spectrum: a unitary character belongs to the spectrum exactly when the
commuting family has a joint eigenvector for it. A finite monoid's
eigenspaces are the ranges of the isotypic projections of its exact dual.
Over N^k the candidates are the tuples of the generators' unimodular
eigenvalue clusters that the boundedness certificate checked, at the
spectrum's own config, and a tuple is a character when the product of the
clusters' Riesz projectors, the projection onto its joint spectral
subspace, has a nonzero trace, its rank.
The coefficient-inequality falsifier provides an independent one-sided
refutation route.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .characters import UnitaryCharacter, _dual_numerators, char_distance
from .config import DEFAULT_CONFIG, DEFAULT_SEED
from .errors import NotBounded
from .linalg import Subspace, operator_norm, range_basis
from .representations import certify_boundedness


@dataclass
class UnitarySpectrumResult:
    characters: list          # UnitaryCharacter, canonically ordered
    eigenspaces: list         # Subspace per character, each nonzero
    witnesses: list           # one joint eigenvector per character
    projections: list = None  # finite monoid: the isotypic P_chi per character
    clusters: list = None     # N^k: the SpectralCluster of each T_g at chi(g), per character
    coordinates: list = None  # N^k: W^H with P_chi = F W^H, F the range basis of P_chi

    def __len__(self):
        return len(self.characters)

    @cached_property
    def _positions(self):
        # by key: a scan per call would take 0.14 s of a 0.69 s Z128 analyze
        return {chi.canonical_key(): i for i, chi in enumerate(self.characters)}

    def index(self, chi, tol=None):
        """The position of the spectral character nearest chi, found by its
        key when the spectrum holds chi itself; None when none lies within
        tol (default tol_cluster)."""
        tol = DEFAULT_CONFIG.tol_cluster if tol is None else tol
        position = self._positions.get(chi.canonical_key())
        if position is None:
            distance, position = min(((char_distance(chi, c), i)
                                      for i, c in enumerate(self.characters)),
                                     default=(np.inf, None))
            if distance > tol:
                return None
        return position

    def contains(self, chi, tol=None):
        return self.index(chi, tol) is not None


def eigenspace(rep, chi, config=None):
    """ker(chi - T): the eigenspace of the spectral character nearest chi,
    within tol_cluster, and {0} when there is none. Requires a Certified
    representation."""
    config = DEFAULT_CONFIG if config is None else config
    spectrum = unitary_spectrum(rep, config)
    index = spectrum.index(chi, config.tol_cluster)
    return Subspace.zero(rep.dim) if index is None else spectrum.eigenspaces[index]


def _isotypic_projections(rep):
    """The characters chi of a finite monoid with tr P_chi >= 1/2, in
    canonical order, their isotypic projections P_chi = (1/|K|) sum over
    k in K of conj chi(k) T_k, from one matmul with the stacked T_k, and
    their ranks, the rounded traces. The kernel group K acts as a group on
    rg T_e and T_k vanishes on ker T_e, so P_chi projects onto ker(chi - T)
    along rg(chi - T) (Serre, Linear Representations of Finite Groups,
    2.6, Thm 8). Real T_k, as in every regular representation, take two
    real matmuls, one per part of the table: half the flops of one complex
    matmul."""
    group, numerators = _dual_numerators(rep.semigroup)
    order, n = len(group.carrier), rep.dim
    conjugates = np.exp(-2j * np.pi * np.arange(order) / order) / order
    table = conjugates[numerators[:, group.carrier]]
    stacked = rep.matrices[list(group.carrier)].reshape(order, n * n)
    real = not stacked.imag.any()
    if real:
        stacked = np.ascontiguousarray(stacked.real)
    ranks = np.floor((table @ np.trace(stacked.reshape(order, n, n), axis1=1, axis2=2)).real
                     + 0.5).astype(int)
    spectral = ranks >= 1
    rows = table[spectral]
    if real:
        projections = np.empty((len(rows), n * n), dtype=np.complex128)
        projections.real = np.ascontiguousarray(rows.real) @ stacked
        projections.imag = np.ascontiguousarray(rows.imag) @ stacked
    else:
        projections = rows @ stacked
    projections = projections.reshape(-1, n, n)
    return ([UnitaryCharacter(rep.semigroup, numerators=tuple(row))
             for row in numerators[spectral].tolist()],
            projections, ranks[spectral].tolist())


def _riesz_products(clusters):
    """N^k: (values, clusters, eigenspace, W^H) of each tuple of a
    certificate's `clusters`, one per generator, whose product P of Riesz
    projectors is nonzero: the clusters' means scaled to modulus 1, and
    P = F W^H, F an orthonormal basis of its range.

    The generators commute, so their Riesz projectors do, and a product of
    them is the projection onto the joint spectral subspace of its
    clusters, with its rank as its trace. The walk holds the product as
    P = Q_1 Y, Q_1 the basis of T_1's cluster: it takes each cluster of
    T_1, with Y = W_1^H, tries each cluster of the next generator,
    Y <- Y Q_g W_g^H, and drops a prefix once round(tr(Y Q_1)) = 0. A
    leaf of rank d has F = Q_1 when d is the size of T_1's cluster, as
    always over N, else Q_1 times the range basis of Y at rank d
    (range_basis). The certificate checked that each generator acts on
    the spectral subspace of each cluster as the cluster's mean, so F is
    the eigenspace and no rank is decided."""
    found = []

    def walk(values, chosen, y):
        first = chosen[0].basis
        rank = int(np.floor((y * first.T).sum().real + 0.5))
        if rank < 1:
            return
        if len(chosen) < len(clusters):
            for value, cluster in clusters[len(chosen)]:
                walk(values + (value,), chosen + (cluster,),
                     (y @ cluster.basis) @ cluster.coordinates)
            return
        if rank == first.shape[1]:
            basis, coordinates = first, y
        else:
            inner = range_basis(y, rank).basis
            basis, coordinates = first @ inner, inner.conj().T @ y
        found.append((values, chosen, Subspace(basis), coordinates))

    for value, cluster in clusters[0]:
        walk((value,), (cluster,), cluster.coordinates)
    return found


def unitary_spectrum(rep, config=None):
    """Compute sigma_uni(T) with eigenspaces and witnesses.

    Requires a Certified representation. An empty result is a valid
    outcome (a stable representation), not an error. Over a finite monoid
    each eigenspace is the range basis of the isotypic projection at its
    rank d, the rounded trace (range_basis); over N^k it is the range of
    the character's product of Riesz projectors (_riesz_products), which
    the result keeps with its clusters for the pole test. Those clusters
    are the ones that a certificate checked at `config`: an N^k
    certificate issued at another config, or one that a derived
    representation holds without clusters, is issued again, and
    NotBounded is raised if that fails.
    """
    config = DEFAULT_CONFIG if config is None else config
    if not rep.boundedness.is_certified:
        raise NotBounded("unitary_spectrum requires a Certified representation")

    if rep.is_finite:
        characters, projections, ranks = _isotypic_projections(rep)
        spaces = [range_basis(p, d) for p, d in zip(projections, ranks)]
        extra = {"projections": projections}
    else:
        cert = rep.boundedness
        if cert.clusters is None or cert.config != config:
            cert = certify_boundedness(rep, config).boundedness
            if not cert.is_certified:
                raise NotBounded(f"not bounded at the spectrum's config: {cert.detail}")
        found = _riesz_products(cert.clusters)
        # by the generator values rounded to 6 decimals, then the exact ones:
        # rounding noise flips two characters with equal parts, such as a
        # conjugate pair, only near a rounding boundary, an odd multiple of 5e-7
        found.sort(key=lambda leaf: ([(round(z.real, 6), round(z.imag, 6)) for z in leaf[0]],
                                     [(z.real, z.imag) for z in leaf[0]]))
        characters = [UnitaryCharacter(rep.semigroup, gen_values=values)
                      for values, _, _, _ in found]
        spaces = [space for _, _, space, _ in found]
        extra = {"clusters": [clusters for _, clusters, _, _ in found],
                 "coordinates": [coordinates for _, _, _, coordinates in found]}
    return UnitarySpectrumResult(characters=characters, eigenspaces=spaces,
                                 witnesses=[space.basis[:, 0] for space in spaces], **extra)


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
        lhs = float(abs(sum(c * chi(s) for c, s in zip(coeffs, elements))))
        rhs = operator_norm(sum(c * rep.matrix(s) for c, s in zip(coeffs, elements)))
        if lhs > rhs + config.tol_char:
            return FalsifierVerdict(True, [list(s) if isinstance(s, tuple) else s
                                           for s in elements],
                                    [complex(c) for c in coeffs], lhs, rhs, attempts)
    return FalsifierVerdict(False, trials=attempts)
