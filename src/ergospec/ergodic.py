"""Mean ergodic structure: projections, poles, peripheral decomposition,
stability and the semigroup at infinity.

Every pole is read off the spectrum: over a finite monoid it is the
character's isotypic projection, over N^k the product of the generators'
Riesz projectors that made the character spectral, from the certificate's
Schur forms. The mean ergodic projection so obtained is cross-checked, over
N^k by the constructive ergodic net, a composed Cesaro rectangle mean. The
peripheral decomposition takes its parts at their known dimensions from
QRs of the poles' factors.

`Analysis` holds the routes of one input and computes each of them once.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property, reduce

import numpy as np

from .characters import trivial_character
from .config import DEFAULT_CONFIG
from .errors import ErgospecError, LostCharacter, NonPoleSpectrum
from .linalg import Subspace, largest_cross_product, operator_norm, operator_norms
from .positivity import check_positive
from .representations import restrict
from .spectrum import unitary_spectrum

_CESARO_POWER = 3  # p, the power of the composed Cesaro mean C_N^p


def _cesaro_rectangle_chain(rep, reference, config):
    """The distances of the dyadic Cesaro rectangle means C_N and of their
    _CESARO_POWER-fold composition to `reference`: one row per side, up to
    and including the first whose composed distance is within
    cesaro_target (all sides up to cesaro_max_side if none is).

    C_N factors over the commuting generators as a product of one-
    dimensional averages A_g(N) = (1/N) sum_{i<N} T_g^i, which double via
    A_g(2N) = (I + T_g^N) A_g(N) / 2. The composed mean C_N^p is itself a
    convex combination of the T_s, hence an ergodic net, and converges like
    1/N^p instead of 1/N.
    """
    sides = [1]
    while sides[-1] * 2 <= config.cesaro_max_side:
        sides.append(sides[-1] * 2)
    eye = np.eye(rep.dim, dtype=np.complex128)
    averages = np.broadcast_to(eye, rep.matrices.shape)   # A_g(1) = I, stacked
    powers = rep.matrices                                 # T_g^N, stacked
    trace = []
    for index, side in enumerate(sides):
        if index:
            averages = (averages + powers @ averages) / 2.0
            powers = powers @ powers
        mean = eye.copy()
        for avg in averages:
            mean = mean @ avg
        plain, composed = operator_norms(
            [mean - reference, np.linalg.matrix_power(mean, _CESARO_POWER) - reference])
        trace.append((side, plain, composed))
        if composed <= config.cesaro_target:
            break
    return trace


@dataclass
class ErgodicReport:
    fix_dim: int            # dim fix(T) = rank P
    mean_projection: np.ndarray = None
    cesaro_trace: list = field(default_factory=list)  # (side, plain, composed)
    net_divergence: bool = False
    kernel_average_residual: float = None  # finite: max_g ||T_g P - P|| / max(1, ||P||)


@dataclass
class PoleVerdict:
    projection: np.ndarray
    eigenspace_dim: int
    factors: tuple  # (F, W^H): projection = F @ W^H, F orthonormal


@dataclass
class PeripheralDecomposition:
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
    budget_exceeded: bool = False   # N^k: rho(T_u) < 1 - tol_char, no square contracts
    zero_in_range: bool = None      # finite monoid: 0 occurs among the T_s

    @property
    def is_stable(self):
        return self.status == STABLE


def _stable_verdict(rep, config):
    """The STABLE verdict of a representation whose unitary spectrum is
    empty, with a norm-contraction witness: the kernel identity e of a
    finite monoid, whose T_e vanishes on a stable representation
    (Analysis.stability); over N^k the first 2^j u, u = (1, ..., 1), with
    ||T_u^(2^j)|| <= 1 - tol_char, by squaring T_u. The margin keeps a
    norm that rounding pulled just below 1, as that of an identity
    restricted to a subspace, from passing for a contraction.

    A bounded commuting family, jointly triangular with its joint
    eigenvalues in the closed disc, is stable exactly when rho(T_u) < 1,
    and then some square contracts. When none does within 2^52, or a
    square overflows, rho(T_u) >= 1 - tol_char means the empty spectrum
    lost a character; a square that overflows is no witness."""
    if rep.is_finite:
        e = rep.semigroup.kernel.identity
        norm = operator_norm(rep.matrices[e])
        if norm <= 1.0 - config.tol_char:
            return StabilityVerdict(STABLE, witness=e, witness_norm=norm)
        return StabilityVerdict(STABLE)

    verdict = _squaring_witness(rep, config)
    if verdict is not None:
        return verdict
    radius = float(np.abs(np.linalg.eigvals(reduce(np.matmul, rep.matrices))).max())
    if radius >= 1.0 - config.tol_char:
        raise LostCharacter(radius)
    return StabilityVerdict(STABLE, budget_exceeded=True)


def _squaring_witness(rep, config):
    """The STABLE verdict of an N^k representation with the first 2^j u,
    j <= 52, whose norm ||T_u^(2^j)|| is at most 1 - tol_char; None when
    no square up to 2^52 contracts or a square overflows."""
    power = reduce(np.matmul, rep.matrices)
    for j in range(53):   # up to 2^52, an exact JSON integer
        if j:
            with np.errstate(over="ignore", invalid="ignore"):
                power = power @ power
            if not np.isfinite(power).all():
                return None
        norm = operator_norm(power)
        if norm <= 1.0 - config.tol_char:
            return StabilityVerdict(STABLE, witness=(2 ** j,) * rep.semigroup.rank,
                                    witness_norm=norm)
    return None


@dataclass
class InfinitySemigroup:
    classes: list     # labels of K with equal T_k, each class and the list by label
    residual: float   # largest ||T_k - T_r|| over each class, r its first member


class Analysis:
    """One Certified representation under one configuration, with each
    route computed on first use and at most once (poles per character).

    Verdicts read the routes they need from here. Each route is
    deterministic, so sharing its result gives the bits of recomputing it.
    """

    def __init__(self, rep, config=None):
        self.rep = rep
        self.config = DEFAULT_CONFIG if config is None else config
        self._poles = {}   # verdict or NonPoleSpectrum, by position in the spectrum

    @cached_property
    def spectrum(self):
        return unitary_spectrum(self.rep, self.config)

    @cached_property
    def positivity(self):
        return check_positive(self.rep, self.config)

    def pole(self, chi):
        """chi is a pole of T iff ker(chi - T) and rg(chi - T) are direct
        complements. In finite dimension a bounded representation has only
        poles, so the spectral character nearest chi, within tol_cluster,
        is one: over a finite monoid its pole projection is the isotypic
        projection P = F F^H P, F the eigenspace basis, and over N^k the
        product of Riesz projectors (_riesz_pole), whose factors must pass
        a rounding check. Any other chi is no spectral value: None.

        A pole needs no further check of the complement: when ker(chi - T)
        and rg(chi - T) are direct complements, a chi-eigenvector of T
        restricted to rg(chi - T) would lie in their intersection, which
        is 0. A verdict, or the NonPoleSpectrum raised, is kept per character."""
        spectrum = self.spectrum
        index = spectrum.index(chi)
        if index is None:
            return None
        if index not in self._poles:
            if self.rep.is_finite:
                space, p = spectrum.eigenspaces[index], spectrum.projections[index]
                self._poles[index] = PoleVerdict(p, space.dim,
                                                 (space.basis, space.basis.conj().T @ p))
            else:
                try:
                    self._poles[index] = self._riesz_pole(index)
                except NonPoleSpectrum as exc:
                    self._poles[index] = exc
        verdict = self._poles[index]
        if isinstance(verdict, NonPoleSpectrum):
            raise verdict
        return verdict

    def _riesz_pole(self, index):
        """The pole verdict of the N^k character at `index` in the spectrum.

        The Riesz projectors of the T_g's clusters at chi(g) commute, and
        their product P projects onto the joint spectral subspace along the
        others. The spectrum holds P = F W^H, F an orthonormal basis of its
        range, of rank d. The certificate, at the analysis's config, checked
        each cluster's separation and that T_g acts on the cluster's
        spectral subspace rg Q_g as the cluster's mean psi_g. F lies in
        every rg Q_g, so ||(T_g - psi_g) F|| <= ||T11 - psi_g I||, T11 the
        cluster's block of the Schur form, at most its certified defect
        plus its spread: P is the projection onto ker(chi - T) along
        rg(chi - T). What is left to check is rounding,
        as P^2 - P = F (W^H F - I) W^H: NonPoleSpectrum is raised when
        ||W^H F - I|| exceeds tol_rank."""
        spectrum = self.spectrum
        f, coordinates = spectrum.eigenspaces[index].basis, spectrum.coordinates[index]
        d = f.shape[1]
        rounding = operator_norm(coordinates @ f - np.eye(d))
        if rounding > self.config.tol_rank:
            raise NonPoleSpectrum(spectrum.characters[index],
                                  f"rounding check ||W^H F - I|| = {rounding:.3e} exceeds "
                                  f"tol_rank {self.config.tol_rank:.3e}")
        return PoleVerdict(f @ coordinates, d, (f, coordinates))

    @cached_property
    def poles(self):
        """The pole verdict of every spectral character, in spectrum order;
        raises the first NonPoleSpectrum."""
        return [self.pole(chi) for chi in self.spectrum.characters]

    def _inside(self, index):
        """A cluster of the N^k character at `index` in the spectrum lies
        strictly inside the unit circle (SpectralCluster.inside)."""
        return any(cluster.inside() for cluster in self.spectrum.clusters[index])

    @cached_property
    def ergodic(self):
        """Uniform mean ergodicity and the mean ergodic projection: the
        split of the trivial character's pole, fix(T) = rg P, which pole()
        takes at the nearest spectral character: over N^k v/|v| for the
        generators' eigenvalues v near 1. The trivial character is a pole,
        or outside the spectrum (P = 0), so T is uniformly mean ergodic.
        Over a finite monoid P is P_1, cross-checked by
        max_g ||T_g P_1 - P_1|| / max(1, ||P_1||) over the generators; over
        N^k the Cesaro chain is run and compared against it. A failed
        cross-check is reported as net_divergence (a tolerance anomaly),
        never silently resolved."""
        rep, config = self.rep, self.config
        pole = self.pole(trivial_character(rep.semigroup))
        fix, projection = (0, np.zeros((rep.dim, rep.dim), dtype=np.complex128)) \
            if pole is None else (pole.eigenspace_dim, pole.projection)
        if rep.is_finite:
            residual = max(operator_norms(rep.family() @ projection - projection))
            residual /= max(1.0, operator_norm(projection))
            return ErgodicReport(fix_dim=fix, mean_projection=projection,
                                 kernel_average_residual=residual,
                                 net_divergence=residual > config.tol_hom)
        trace = _cesaro_rectangle_chain(rep, projection, config)
        return ErgodicReport(fix_dim=fix, mean_projection=projection, cesaro_trace=trace,
                             net_divergence=min(t[2] for t in trace) > config.cesaro_target)

    @cached_property
    def _decomposition(self):
        """The decomposition or the ErgospecError it raised: it runs once."""
        try:
            return self._split()
        except ErgospecError as exc:
            return exc

    @property
    def decomposition(self):
        """Split C^n into the reversible part E_r (joint unimodular
        eigenspaces) and the stable part E_s, with the commuting projection.

        P is the sum of the pole projections onto ker(chi - T) along
        rg(chi - T); pairwise products of those projections must vanish,
        and their largest norm is read off the projections' factors. A
        failed split raises its one error on every read.
        """
        if isinstance(self._decomposition, ErgospecError):
            raise self._decomposition
        return self._decomposition

    def _split(self):
        rep, config = self.rep, self.config
        n = rep.dim
        verdicts = self.poles
        projections = [verdict.projection for verdict in verdicts]
        cross = largest_cross_product([verdict.factors for verdict in verdicts])

        # P = sum of F W^H over the poles, with the F jointly independent
        # and the W too: E_r = rg P = rg [F ...] and E_s = ker P =
        # rg [W ...]^perp, of the known dimensions r = sum of the d_chi and
        # n - r. One stacked complete QR of [F ...] and [W ...] gives both:
        # the first r columns of the one and the last n - r of the other
        total = sum(projections) if projections else np.zeros((n, n), dtype=np.complex128)
        if verdicts:
            fs, whs = zip(*(verdict.factors for verdict in verdicts))
            rank = sum(f.shape[1] for f in fs)
            q = np.linalg.qr(np.stack([np.hstack(fs), np.vstack(whs).conj().T]), mode="complete")[0]
            reversible, stable = Subspace(q[0, :, :rank]), Subspace(q[1, :, rank:])
        else:
            reversible, stable = Subspace.zero(n), Subspace.full(n)

        # T|E_s is stable, its unitary spectrum empty, by the pole verdicts
        # of T alone. P_chi P_tau = 0 for distinct characters puts
        # E_s = ker P inside every rg(chi - T). A unimodular joint
        # eigenvector v of T|E_s is one of T, for some spectral chi, so it
        # lies in ker(chi - T) and in rg(chi - T), whose intersection is 0
        # for a pole.
        witness, witness_norm = None, None
        if stable.dim > 0:
            verdict = _stable_verdict(restrict(rep, stable), config)
            witness, witness_norm = verdict.witness, verdict.witness_norm

        return PeripheralDecomposition(
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

        Over N^k the spectrum keeps every tuple of certified clusters, one
        per generator, whose means lie within tol_char of the unit circle,
        inside it too, and whose joint spectral subspace is nonzero:
        diag(1, 1/2), diag(1 + 5e-9, 1/2) over N^2 keeps (1, 1). A
        contraction T_s has no unimodular eigenvalue, so when every
        character has a cluster that lies inside the circle by more than
        rounding can move its mean (SpectralCluster.inside), the squaring
        witness is sought first, and one that it finds refutes those
        characters: diag(1 - 5e-9, 1/2) is stable with witness 4, and so is
        diag(1, 1/2), diag(1 - 5e-9, 1/2) over N^2 with witness (4, 4).

        For a finite monoid the verdict is cross-checked against the exact
        criterion that the zero matrix occurs in T(S), which holds exactly
        when T_e = 0, e the kernel identity: if T_s = 0 and k is the
        inverse of s + e in K, then e = s + (e + k) and T_e = T_s T_(e+k)."""
        rep, config = self.rep, self.config
        if len(self.spectrum) == 0:
            verdict = _stable_verdict(rep, config)
        else:
            verdict = StabilityVerdict(NOT_STABLE,
                                       blocking_character=self.spectrum.characters[0])
            if not rep.is_finite and all(map(self._inside, range(len(self.spectrum)))):
                verdict = _squaring_witness(rep, config) or verdict
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
        T_k = T_k' exactly when every spectral character has the same
        numerator at k and k'. The residual checks this against the operators."""
        rep = self.rep
        if not rep.is_finite:
            raise ValueError("the semigroup at infinity is only enumerated for "
                             "finite monoids; use Analysis.decomposition for N^k")
        classes = {}
        for k in rep.semigroup.kernel.carrier:
            key = tuple(chi.numerators[k] for chi in self.spectrum.characters)
            classes.setdefault(key, []).append(k)
        classes = sorted(classes.values())
        residual = max(operator_norms(rep.matrices[k] - rep.matrices[members[0]]
                                      for members in classes for k in members[1:]),
                       default=0.0)
        return InfinitySemigroup(classes=classes, residual=residual)
