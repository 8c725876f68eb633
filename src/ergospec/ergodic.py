"""Mean ergodic structure: projections, poles, peripheral decomposition,
stability, the semigroup at infinity, and quasi-compactness.

Two independent routes are always computed and cross-checked: the algebraic
route (the fixed space paired with ker (1 - T)^H = rg(1 - T)^perp) and the
constructive ergodic net (the exact kernel average for a finite monoid, a
composed Cesaro rectangle mean for N^k).

`Analysis` holds the routes of one input and computes each of them once;
the public verdict functions are thin wrappers over it.
"""

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .characters import char_distance, trivial_character
from .config import DEFAULT_CONFIG
from .errors import NonPoleSpectrum
from .linalg import (
    Subspace,
    column_space,
    largest_cross_product,
    oblique_projection,
    operator_norm,
    operator_norms,
)
from .representations import restrict
from .spectrum import JointKernels, unitary_spectrum

_CESARO_POWER = 3  # p, the power of the composed Cesaro mean C_N^p
_WITNESS_BUDGET = 1_000_000  # norms the N^k witness search takes at most


def _kernel_average(rep):
    """The exact zero element of co T(S) for a finite monoid: the average
    of T over the kernel group."""
    group = rep.semigroup.kernel
    total = sum(rep.matrices[k] for k in group.carrier)
    return total / len(group.carrier)


def _cesaro_rectangle_chain(rep, reference, config):
    """The distances of the dyadic Cesaro rectangle means C_N and of their
    _CESARO_POWER-fold composition to `reference`, one entry per side.

    C_N factors over the commuting generators as a product of one-
    dimensional averages A_g(N) = (1/N) sum_{i<N} T_g^i, which double via
    A_g(2N) = (I + T_g^N) A_g(N) / 2. The composed mean C_N^p is itself a
    convex combination of the T_s, hence an ergodic net, and converges like
    1/N^p instead of 1/N. The distances are taken by stacked norms as the
    chain yields them, so at most one block of differences is held.
    """
    sides = [1]
    while sides[-1] * 2 <= config.cesaro_max_side:
        sides.append(sides[-1] * 2)
    if reference is None:
        return [(side, float("nan"), float("nan")) for side in sides]

    def differences():
        """C_N - reference and C_N^p - reference, side after side."""
        eye = np.eye(rep.dim, dtype=np.complex128)
        averages = [eye.copy() for _ in rep.matrices]   # A_g(1) = I
        powers = [a.copy() for a in rep.matrices]       # T_g^N
        for index in range(len(sides)):
            if index:
                averages = [(avg + powm @ avg) / 2.0
                            for avg, powm in zip(averages, powers)]
                powers = [powm @ powm for powm in powers]
            mean = eye.copy()
            for avg in averages:
                mean = mean @ avg
            yield mean - reference
            yield np.linalg.matrix_power(mean, _CESARO_POWER) - reference

    norms = operator_norms(differences())
    return list(zip(sides, norms[0::2], norms[1::2]))


@dataclass
class ErgodicReport:
    fix_space: Subspace
    cokernel: Subspace      # ker (1 - T)^H, the orthogonal complement of rg(1 - T)
    is_ume: bool
    mean_projection: np.ndarray = None
    cesaro_trace: list = field(default_factory=list)  # (side, plain, composed)
    net_divergence: bool = False
    kernel_average_residual: float = None  # finite monoid only

    @property
    def fix_dim(self):
        return self.fix_space.dim


def mean_ergodic_analysis(rep, config=None):
    """The mean ergodic split and its ergodic net; see Analysis.ergodic."""
    return Analysis(rep, config).ergodic


POLE = "pole"
NOT_POLE = "not_pole"
NOT_IN_SPECTRUM = "not_in_spectrum"


@dataclass
class PoleVerdict:
    status: str
    projection: np.ndarray = None
    eigenspace_dim: int = 0
    factors: tuple = None  # a pole's (F, W^H): projection = F @ W^H, F orthonormal

    @property
    def is_pole(self):
        return self.status == POLE

    @property
    def counts_as_pole(self):
        """A character outside the spectrum is trivially a pole (the zero
        projection onto the zero eigenspace works)."""
        return self.status in (POLE, NOT_IN_SPECTRUM)


def is_pole(rep, chi, config=None):
    """Pole test: chi is a pole of T iff ker(chi - T) and rg(chi - T) are
    direct complements; see Analysis.pole."""
    return Analysis(rep, config).pole(chi)


@dataclass
class PeripheralDecomposition:
    characters: list
    reversible: Subspace        # E_r, the sum of the unimodular eigenspaces
    stable: Subspace            # E_s, where the net decays to zero
    projection: np.ndarray      # onto E_r along E_s
    stability_witness: object = None  # element with ||T_s restricted|| <= 1 - tol_char
    stability_norm: float = None
    cross_residual: float = 0.0  # max ||P_chi P_tau|| over distinct characters


STABLE = "stable"
NOT_STABLE = "not_stable"


@dataclass
class StabilityVerdict:
    status: str
    witness: object = None          # element with ||T_s|| <= 1 - tol_char
    witness_norm: float = None
    blocking_character: object = None
    budget_exceeded: bool = False
    zero_in_range: bool = None      # finite monoid: 0 occurs among the T_s

    @property
    def is_stable(self):
        return self.status == STABLE


def _witness_search_free(rep, config):
    """Smallest (total-degree-lexicographic) exponent with ||T_s|| <=
    1 - tol_char and that norm; (None, None) once the budget is spent."""
    k = rep.semigroup.rank
    power_cache = [{0: np.eye(rep.dim, dtype=np.complex128)} for _ in range(k)]

    def gen_power(j, e):
        cache = power_cache[j]
        if e not in cache:
            top = max(cache)
            mat = cache[top]
            for i in range(top + 1, e + 1):
                mat = mat @ rep.matrices[j]
                cache[i] = mat
        return cache[e]

    evaluations = 0
    for degree in itertools.count(1):
        for exponents in itertools.product(range(degree + 1), repeat=k):
            if sum(exponents) != degree:
                continue
            mat = np.eye(rep.dim, dtype=np.complex128)
            for j, e in enumerate(exponents):
                if e:
                    mat = mat @ gen_power(j, e)
            evaluations += 1
            norm = operator_norm(mat)
            if norm <= 1.0 - config.tol_char:
                return exponents, norm
            if evaluations >= _WITNESS_BUDGET:
                return None, None


def _stable_verdict(rep, config):
    """The STABLE verdict of a representation whose unitary spectrum is
    empty, with a norm-contraction witness: the kernel identity e of a
    finite monoid, whose T_e vanishes on a stable representation
    (Analysis.stability), the smallest exponent of N^k with
    ||T_s|| <= 1 - tol_char. The margin keeps a norm that rounding pulled
    just below 1, as that of an identity restricted to a subspace, from
    passing for a contraction."""
    if rep.is_finite:
        e = rep.semigroup.kernel.identity
        norm = operator_norm(rep.matrices[e])
        if norm <= 1.0 - config.tol_char:
            return StabilityVerdict(STABLE, witness=e, witness_norm=norm)
        return StabilityVerdict(STABLE)

    if rep.dim == 0:
        return StabilityVerdict(STABLE, witness=(0,) * rep.semigroup.rank,
                                witness_norm=0.0)
    exponents, norm = _witness_search_free(rep, config)
    return StabilityVerdict(STABLE, witness=exponents, witness_norm=norm,
                            budget_exceeded=exponents is None)


@dataclass
class InfinitySemigroup:
    classes: list     # labels of K with equal T_k, each class and the list by label
    residual: float   # largest ||T_k - T_r|| over each class, r its first member


def semigroup_at_infinity(rep, config=None):
    """The operators at infinity by classes of labels; see Analysis.infinity."""
    return Analysis(rep, config).infinity


QUASI_COMPACT = "quasi_compact"


@dataclass
class QuasiCompactnessVerdict:
    status: str
    characters: list
    eigenspace_dims: list
    riesz_all: bool
    decomposition_consistent: bool

    @property
    def is_quasi_compact(self):
        return self.status == QUASI_COMPACT


class Analysis:
    """One Certified representation under one configuration, with each
    route computed on first use and at most once (poles per character).

    Verdicts read the routes they need from here. Each route is
    deterministic, so sharing its result gives the bits of recomputing it.
    """

    def __init__(self, rep, config=None):
        self.rep = rep
        self.config = DEFAULT_CONFIG if config is None else config
        self._poles = {}
        # ker(chi - T) and ker((chi - T)^H) by generator values, each
        # factored once for the spectrum, the poles and the mean ergodic split
        self.kernels = JointKernels(rep, self.config)

    @cached_property
    def spectrum(self):
        return unitary_spectrum(self.rep, self.config, self.kernels)

    @cached_property
    def positivity(self):
        from .positivity import check_positive  # positivity imports this module
        return check_positive(self.rep, self.config)

    @cached_property
    def trivial(self):
        """The trivial character as the spectrum holds it, so that the mean
        ergodic split is its pole's: over N^k the spectrum holds it as v/|v|
        for the generators' eigenvalues v near 1. When it is not spectral,
        the exact one."""
        trivial = trivial_character(self.rep.semigroup)
        return next((chi for chi in self.spectrum.characters
                     if char_distance(chi, trivial) <= self.config.tol_cluster), trivial)

    def _values(self, chi):
        """chi on the generators, the key of its kernels."""
        return tuple(chi(g) for g in self.rep.semigroup.generators)

    def pole(self, chi):
        """chi is a pole of T iff ker(chi - T) and rg(chi - T) are direct
        complements, decided by their pairing (linalg.oblique_projection).

        A pole needs no further check of the complement: when ker(chi - T)
        and rg(chi - T) are direct complements, a chi-eigenvector of T
        restricted to rg(chi - T) would lie in their intersection, which
        is 0."""
        # repr tells -0.0 from 0.0, so equal keys mean bit-equal characters
        key = repr(chi.canonical_key())
        if key not in self._poles:
            values = self._values(chi)
            fix = self.kernels.kernel(values)
            if fix.dim == 0 and not self.spectrum.contains(chi, self.config.tol_cluster):
                zero = np.zeros((self.rep.dim, self.rep.dim), dtype=np.complex128)
                verdict = PoleVerdict(NOT_IN_SPECTRUM, projection=zero, eigenspace_dim=0)
            else:
                coordinates = oblique_projection(fix, self.kernels.cokernel(values),
                                                 self.config.tol_rank)
                verdict = PoleVerdict(NOT_POLE, eigenspace_dim=fix.dim) \
                    if coordinates is None else \
                    PoleVerdict(POLE, projection=fix.basis @ coordinates,
                                eigenspace_dim=fix.dim, factors=(fix.basis, coordinates))
            self._poles[key] = verdict
        return self._poles[key]

    @cached_property
    def ergodic(self):
        """Uniform mean ergodicity and the mean ergodic projection: the
        split of the trivial character, whose pole verdict pairs fix(T)
        with ker (1 - T)^H and so decides whether fix(T) and rg(1 - T) are
        direct complements. The constructive ergodic net is then run and
        compared against the projection. A convergent-net failure while the
        algebraic verdict says ergodic is reported as net_divergence (a
        tolerance anomaly), never silently resolved."""
        rep, config = self.rep, self.config
        values = self._values(self.trivial)
        fix, cokernel = self.kernels.kernel(values), self.kernels.cokernel(values)
        pole = self.pole(self.trivial)
        # outside the spectrum fix(T) = 0, a complement of rg(1 - T) only
        # when that is all of C^n
        projection = pole.projection \
            if pole.counts_as_pole and fix.dim == cokernel.dim else None
        report = ErgodicReport(fix_space=fix, cokernel=cokernel,
                               is_ume=projection is not None, mean_projection=projection)

        if rep.is_finite:
            khat = _kernel_average(rep)
            if projection is not None:
                report.kernel_average_residual = operator_norm(khat - projection)
                if report.kernel_average_residual > config.tol_hom:
                    report.net_divergence = True
            else:
                report.kernel_average_residual = float("nan")
        else:
            report.cesaro_trace = _cesaro_rectangle_chain(rep, projection, config)
            if projection is not None:
                best = min(t[2] for t in report.cesaro_trace)
                if best > config.cesaro_target:
                    report.net_divergence = True
        return report

    @cached_property
    def decomposition(self):
        """Split C^n into the reversible part E_r (joint unimodular
        eigenspaces) and the stable part E_s, with the commuting projection.

        P is the sum of the pole projections onto ker(chi - T) along
        rg(chi - T); pairwise products of those projections must vanish,
        and their largest norm is read off the projections' factors.
        """
        rep, config = self.rep, self.config
        n = rep.dim
        verdicts = []
        for chi in self.spectrum.characters:
            verdict = self.pole(chi)
            if not verdict.is_pole:
                raise NonPoleSpectrum(chi)
            verdicts.append(verdict)
        projections = [verdict.projection for verdict in verdicts]
        cross = largest_cross_product([verdict.factors for verdict in verdicts])

        total = sum(projections) if projections else np.zeros((n, n), dtype=np.complex128)
        reversible = column_space(total, config.tol_rank, scale=1.0)
        eye = np.eye(n, dtype=np.complex128)
        stable = column_space(eye - total, config.tol_rank, scale=1.0)

        # T|E_s is stable, its unitary spectrum empty, by the pole verdicts
        # of T alone. P_chi P_tau = 0 for distinct characters puts
        # E_s = ker P inside every rg(chi - T). A unimodular joint
        # eigenvector v of T|E_s is one of T, for some spectral chi, so it
        # lies in ker(chi - T) and in rg(chi - T), whose intersection is 0
        # for a pole.
        witness, witness_norm = None, None
        if stable.dim > 0:
            verdict = _stable_verdict(restrict(rep, stable, config), config)
            witness, witness_norm = verdict.witness, verdict.witness_norm

        return PeripheralDecomposition(
            characters=self.spectrum.characters,
            reversible=reversible,
            stable=stable,
            projection=total,
            stability_witness=witness,
            stability_norm=witness_norm,
            cross_residual=cross,
        )

    @cached_property
    def stability(self):
        """Stable iff the unitary spectrum is empty; a norm-contraction
        witness is produced whenever possible.

        For a finite monoid the verdict is cross-checked against the exact
        criterion that the zero matrix occurs in T(S), which holds exactly
        when T_e = 0, e the kernel identity: if T_s = 0 and k is the
        inverse of s + e in K, then e = s + (e + k) and T_e = T_s T_(e+k)."""
        rep, config = self.rep, self.config
        verdict = _stable_verdict(rep, config) if len(self.spectrum) == 0 else \
            StabilityVerdict(NOT_STABLE, blocking_character=self.spectrum.characters[0])
        if rep.is_finite:   # a finite witness is e, with witness_norm ||T_e||
            norm = verdict.witness_norm if verdict.witness is not None else \
                operator_norm(rep.matrices[rep.semigroup.kernel.identity])
            verdict = replace(verdict, zero_in_range=norm <= config.tol_hom)
        return verdict

    @cached_property
    def infinity(self):
        """The exact intersection of the tail sets {T_s : s >= s0} over all
        s0 (finite monoid only), as classes of labels with equal operators.

        The tail sets s0 + S meet in the kernel group K, so the operators at
        infinity are T(K). K acts on rg T_e as a finite abelian group and
        T_k vanishes on ker T_e, so T_k is the sum of chi(k) P_chi over the
        spectrum (Serre, Linear Representations of Finite Groups, 2.3):
        T_k = T_k' exactly when every spectral character has the same angle
        at k and k'. The residual checks this against the operators."""
        rep = self.rep
        if not rep.is_finite:
            raise ValueError("the semigroup at infinity is only enumerated for "
                             "finite monoids; use peripheral_decomposition for N^k")
        classes = {}
        for k in rep.semigroup.kernel.carrier:
            key = tuple(chi.angles[k] for chi in self.spectrum.characters)
            classes.setdefault(key, []).append(k)
        classes = sorted(classes.values())
        residual = max(operator_norms(rep.matrices[k] - rep.matrices[members[0]]
                                      for members in classes for k in members[1:]),
                       default=0.0)
        return InfinitySemigroup(classes=classes, residual=residual)

    @cached_property
    def quasi_compactness(self):
        """Riesz-point criterion, cross-checked against the peripheral
        decomposition.

        For valid Certified finite-dimensional input the verdict is always
        quasi-compact; the value of the operation is the agreement of the
        two independent computations."""
        spectrum = self.spectrum
        verdicts = [self.pole(chi) for chi in spectrum.characters]
        riesz_all = all(verdict.is_pole for verdict in verdicts)
        dims = [space.dim for space in spectrum.eigenspaces]
        # the decomposition exists only when every spectral character is a pole
        consistent = riesz_all and self.decomposition.reversible.dim == sum(dims)
        status = QUASI_COMPACT if riesz_all else "not_quasi_compact"
        return QuasiCompactnessVerdict(
            status=status,
            characters=spectrum.characters,
            eigenspace_dims=dims,
            riesz_all=riesz_all,
            decomposition_consistent=consistent,
        )


def peripheral_decomposition(rep, config=None):
    """E_r + E_s with its projection; see Analysis.decomposition."""
    return Analysis(rep, config).decomposition


def stability_verdict(rep, config=None):
    """The stability verdict; see Analysis.stability."""
    return Analysis(rep, config).stability


def quasi_compactness_verdict(rep, config=None):
    """The quasi-compactness verdict; see Analysis.quasi_compactness."""
    return Analysis(rep, config).quasi_compactness
