"""Matrix representations of commutative monoids and their derived forms.

A representation stores one read-only complex128 stack of shape (count, n, n),
one matrix per element (finite monoid) or per generator (N^k), built once;
every layer reads it. Validation certifies the homomorphism law from the
generators, checking every pair against the Cayley table only when that
certificate fails, or checks pairwise commutation of the generators.
Boundedness over N^k is decided one generator at a time: every spectral
subspace of a generator for a unimodular eigenvalue must be acted on by
that generator as the scalar itself, and lie further from the rest of its
spectrum than rounding can move it.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .config import DEFAULT_CONFIG
from .errors import (
    BadNeutral,
    HomomorphismViolation,
    MismatchedSemigroup,
    NotCommuting,
    NotInvariant,
)
from .linalg import (
    BLOCK_ENTRIES,
    SchurForm,
    _peripheral_clusters,
    operator_norm,
    operator_norms,
)
from .semigroups import FiniteCommutativeMonoid, FreeCommutativeMonoid

MAX_DIM = 256  # the largest matrix dimension accepted

CERTIFIED = "certified"
UNBOUNDED = "unbounded"
NOT_CHECKED = "not_checked"

@dataclass(frozen=True)
class BoundednessCertificate:
    status: str
    witness: tuple = None   # generator direction for unbounded growth
    detail: str = ""
    # Certified N^k: the ToleranceConfig it was issued at, and per
    # generator the (mean / |mean|, linalg.SpectralCluster) of each
    # peripheral eigenvalue cluster that it checked there; the spectrum,
    # the poles and the stability test read them. None otherwise, and not
    # reported.
    config: object = None
    clusters: tuple = None

    @property
    def is_certified(self):
        return self.status == CERTIFIED

    def to_json(self):
        out = {"status": self.status}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True, eq=False)
class Representation:
    semigroup: object
    dim: int
    matrices: np.ndarray  # (count, n, n): per element (finite) or per generator (N^k)
    boundedness: BoundednessCertificate = BoundednessCertificate(NOT_CHECKED)

    @property
    def is_finite(self):
        return isinstance(self.semigroup, FiniteCommutativeMonoid)

    def family(self):
        """The matrices of the semigroup's generators, as a stack."""
        if self.is_finite:
            return self.matrices[list(self.semigroup.generators)]
        return self.matrices

    @cached_property
    def generator_norms(self):
        """The operator norm of each matrix of family(), taken once per
        representation: the matrices never change."""
        return operator_norms(self.family())

    def matrix(self, s):
        """The matrix representing an arbitrary element."""
        if self.is_finite:
            return self.matrices[s]
        result = np.eye(self.dim, dtype=np.complex128)
        for gen, exponent in zip(self.matrices, s):
            if exponent:
                result = result @ np.linalg.matrix_power(gen, int(exponent))
        return result


def validate_representation(semigroup, matrices, config=None):
    """Check the homomorphism law and wrap the matrices, an iterable or an
    array of shape (count, n, n): a C-contiguous complex128 array is kept,
    read-only, and anything else is copied into one.

    Over a finite monoid the law T_s T_t = T_(s+t) is first certified from
    the generators G. With D(s, g) = T_(s+g) - T_s T_g and
    D'(s, g) = T_(s+g) - T_g T_s, take

        delta = max over s in S, g in G of ||D(s, g)||_F and ||D'(s, g)||_F,
        eta   = ||T_e - I||,  M = max_s ||T_s||_F  (>= the 2-norm),

    and L the depth of the breadth-first word tree over G from e. Every
    t at depth j > 0 is t' + g with t' at depth j - 1, and

        T_s T_t = (T_(s+g) - D(s, g)) T_t' + T_s D'(t', g),

    so E(s, t) = T_s T_t - T_(s+t) telescopes as
    E(s, t) = E(s+g, t') - D(s, g) T_t' + T_s D'(t', g), each step adding
    at most 2 M delta. At depth 0, E(s, e) = T_s (T_e - I) has norm at most
    M eta. Hence

        ||T_s T_t - T_(s+t)|| <= 2 L M delta + M eta   for all s, t.

    When that bound is at most tol_hom / 2 the all-pairs check below, whose
    threshold is tol_hom * max(1, max_s ||T_s||^2) >= tol_hom, passes on
    every pair: the factor 1/2 absorbs the rounding of the computed
    products and norms, which is about n * eps relative. Otherwise the
    all-pairs loop decides, so every verdict and every
    HomomorphismViolation witness is the one it alone gives.
    """
    config = DEFAULT_CONFIG if config is None else config
    mats = _stack(matrices)
    rep = Representation(semigroup=semigroup, dim=mats.shape[1], matrices=mats)
    count, n = len(mats), rep.dim
    if n == 0:
        raise ValueError("dimension must be at least 1")
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds supported maximum {MAX_DIM}")

    if isinstance(semigroup, FiniteCommutativeMonoid):
        if count != semigroup.size:
            raise ValueError("finite monoid needs one matrix per element")
        eye = np.eye(n)
        eta = operator_norm(mats[semigroup.neutral] - eye)
        if eta > config.tol_hom:
            raise BadNeutral(semigroup.neutral)
        if _homomorphism_bound(semigroup, mats, eta) > config.tol_hom / 2:
            scale = max(1.0, max(operator_norms(mats)) ** 2)
            for s in semigroup.elements():
                for t in range(s, semigroup.size):
                    residual = operator_norm(mats[s] @ mats[t] - mats[semigroup.add(s, t)])
                    if residual > config.tol_hom * scale:
                        raise HomomorphismViolation(s, t, residual)
    elif isinstance(semigroup, FreeCommutativeMonoid):
        if count != semigroup.rank:
            raise ValueError("N^k needs one matrix per generator")
        norms = rep.generator_norms   # kept: the certificate reads them
        for i in range(count):
            for j in range(i + 1, count):
                residual = operator_norm(mats[i] @ mats[j] - mats[j] @ mats[i])
                bound = config.tol_hom * max(1.0, norms[i]) * max(1.0, norms[j])
                if residual > bound:
                    raise NotCommuting(i, j, residual)
    else:
        raise TypeError("unsupported semigroup type")

    return rep


def _stack(matrices):
    """`matrices` as one read-only C-contiguous complex128 array of shape
    (count, n, n), count >= 1, with finite entries."""
    if not isinstance(matrices, np.ndarray):
        matrices = list(matrices)
        if len({np.shape(a) for a in matrices}) > 1:
            raise ValueError("all matrices must be square of equal dimension")
    mats = np.ascontiguousarray(matrices, dtype=np.complex128)
    if not len(mats):
        raise ValueError("representation needs at least one matrix")
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("all matrices must be square of equal dimension")
    if not np.isfinite(mats).all():
        raise ValueError("matrix entries must be finite")
    mats.flags.writeable = False
    return mats


def _homomorphism_bound(monoid, mats, eta):
    """2 L M delta + M eta, the bound on every ||T_s T_t - T_(s+t)|| that
    validate_representation derives, for the stack `mats`. The products
    T_s T_g and T_g T_s and the norms are taken for one row block of
    elements at a time, in real arithmetic when every T_s is real."""
    n = mats.shape[1]
    block = max(1, BLOCK_ENTRIES // (n * n))
    table = np.asarray(monoid.table)
    real = not mats.imag.any()
    source = mats.real if real else mats   # strided when real: copy one block
    delta = bound_m = 0.0
    for lo in range(0, monoid.size, block):
        rows = np.ascontiguousarray(source[lo:lo + block])
        bound_m = max(bound_m, float(np.linalg.norm(rows, axis=(1, 2)).max()))
        for g in monoid.generators:
            gen, target = np.ascontiguousarray(source[g]), source[table[lo:lo + block, g]]
            for products in (rows @ gen, gen @ rows):
                products -= target
                delta = max(delta, float(np.linalg.norm(products, axis=(1, 2)).max()))

    # L, the number of breadth-first rounds over G from e after the first
    depth, reached, frontier = -1, set(), {monoid.neutral}
    while frontier:
        depth, reached = depth + 1, reached | frontier
        frontier = {monoid.add(t, g) for t in frontier for g in monoid.generators} - reached
    return 2 * depth * bound_m * delta + bound_m * eta


def representation_from_generators(monoid, generator_indices, generator_matrices,
                                   config=None):
    """Materialize a finite-monoid representation from matrices on a
    generating set, by walking the Cayley table, then validate it."""
    config = DEFAULT_CONFIG if config is None else config
    gens = np.array(list(generator_matrices), dtype=np.complex128)
    if len(gens) != len(generator_indices):
        raise ValueError("one matrix per generator index required")
    n = gens[0].shape[0]
    known = {monoid.neutral: np.eye(n, dtype=np.complex128)}
    frontier = [monoid.neutral]
    while frontier:
        s = frontier.pop()
        for g_idx, g_mat in zip(generator_indices, gens):
            t = monoid.add(s, g_idx)
            if t not in known:
                known[t] = known[s] @ g_mat
                frontier.append(t)
    if len(known) != monoid.size:
        missing = [s for s in monoid.elements() if s not in known]
        raise ValueError(f"generators do not generate the monoid; missing {missing}")
    return validate_representation(monoid, [known[s] for s in monoid.elements()], config)


def certify_boundedness(rep, config=None):
    """Attach a boundedness certificate.

    Finite monoids are always bounded (finite range). Over N^k the
    generators commute, so ||T_s|| <= prod_g ||T_g^(s_g)|| and T is bounded
    iff every generator T_g is power-bounded: no eigenvalue of modulus above
    1 + tol_char, and T_g acts on the spectral subspace Q of each unimodular
    cluster psi of its eigenvalues as psi itself. The clusters are those of
    the diagonal of one complex Schur form of T_g at radius tol_cluster,
    and Q^H T_g Q = D + N is the leading block of that form reordered so
    that the cluster leads (linalg.SchurForm), D the diagonal of the
    cluster's eigenvalues and N the strictly upper triangle. The clustering
    bounds the spread of D about psi, so the one criterion for a Jordan
    defect is ||N|| <= tol_rank max(1, ||T_g||). No other test decides one:
    in finite dimension a power-bounded matrix has only semisimple
    unimodular eigenvalues, so every unitary character of a Certified
    representation is a pole (Engel and Nagel, One-Parameter Semigroups for
    Linear Evolution Equations, V.4; Krengel, Ergodic Theorems, 2.2).

    Rounding splits a defective eigenvalue into values whose spectral
    subspaces are nearly parallel, possibly by more than tol_cluster. So a
    unimodular cluster also fails when a perturbation of the size of the
    rounding, linalg._ROUNDING ||T_g||_F, can move its mean onto another
    eigenvalue: when that distance is at most _ROUNDING ||T_g||_F / s, 1 / s
    the bound on the norm of the cluster's spectral projector, which is
    also a lower bound of sup_m ||T_g^m||. The first generator that fails
    is the witness of an Unbounded certificate. A Certified one keeps
    `config` and every cluster it checked, with its mean scaled to modulus
    1, so that nothing downstream factors a generator again.
    """
    config = DEFAULT_CONFIG if config is None else config
    if rep.is_finite:
        cert = BoundednessCertificate(CERTIFIED, detail="finite range")
        return replace(rep, boundedness=cert)

    clusters = []
    for j, (label, a) in enumerate(zip(rep.semigroup.generators, rep.matrices)):
        form = SchurForm.of(a)
        checked = []
        for members, psi in _peripheral_clusters(form.eigenvalues, config):
            if abs(psi) > 1.0 + config.tol_char:
                detail = f"generator {j} has an eigenvalue of modulus {abs(psi):.6f} > 1"
            else:
                cluster = form.cluster(members)
                detail = None
                if not cluster.acts_as_mean(rep.generator_norms[j], config.tol_rank):
                    detail = (f"generator {j} is peripheral at {psi:.6f} "
                              f"but acts with nilpotent defect {cluster.defect:.3e}")
                elif not cluster.separated():
                    detail = (f"generator {j} is peripheral at {psi:.6f} "
                              f"with spectral projector norm {1 / cluster.s:.3e}, within "
                              f"rounding of another eigenvalue {cluster.gap:.3e} away")
                checked.append((psi / abs(psi), cluster))
            if detail:
                cert = BoundednessCertificate(UNBOUNDED, witness=label, detail=detail)
                return replace(rep, boundedness=cert)
        clusters.append(tuple(checked))
    return replace(rep, boundedness=BoundednessCertificate(
        CERTIFIED, detail="every generator acts as a scalar on each peripheral "
                          "spectral subspace", config=config, clusters=tuple(clusters)))


def rotate(rep, chi):
    """The twisted representation s -> chi(s) T_s. |chi| = 1, so the
    verdict of the certificate carries over, but not its clusters: the
    spectrum of the rotation certifies it again."""
    if chi.semigroup != rep.semigroup:
        raise MismatchedSemigroup("character over a different semigroup")
    values = chi.values() if rep.is_finite else chi.gen_values
    mats = np.asarray(values, dtype=np.complex128)[:, None, None] * rep.matrices
    return replace(rep, matrices=_stack(mats),
                   boundedness=replace(rep.boundedness, clusters=None))


def restrict(rep, subspace, config=None):
    """Express the representation on an invariant subspace, after checking
    that every generator leaves it invariant.

    The verdict of the certificate carries over, as a bounded family stays
    bounded on an invariant subspace, but not its clusters: the spectrum
    of the restriction certifies it again."""
    config = DEFAULT_CONFIG if config is None else config
    if subspace.ambient_dim != rep.dim:
        raise ValueError("subspace lives in a different ambient dimension")
    basis = subspace.basis
    proj = basis @ basis.conj().T
    eye = np.eye(rep.dim)
    residuals = operator_norms((eye - proj) @ rep.family() @ proj)
    for label, residual, norm in zip(rep.semigroup.generators, residuals,
                                     rep.generator_norms):
        if residual > config.tol_hom * max(1.0, norm):
            raise NotInvariant(label, residual)
    mats = basis.conj().T @ rep.matrices @ basis
    return Representation(semigroup=rep.semigroup, dim=subspace.dim, matrices=_stack(mats),
                          boundedness=replace(rep.boundedness, clusters=None))


def dual_representation(rep):
    """Transpose every matrix (bilinear dual pairing convention). The
    certificate keeps its verdict, but not its clusters: the spectrum of
    the dual certifies it again."""
    return replace(rep, matrices=_stack(rep.matrices.transpose(0, 2, 1)),
                   boundedness=replace(rep.boundedness, clusters=None))


def direct_sum(rep1, rep2):
    """The block diagonal sum. It is bounded when both summands are; its
    certificate keeps that verdict but no clusters, as eigenvalues of one
    summand may join those of the other: its spectrum certifies it
    again."""
    if rep1.semigroup != rep2.semigroup:
        raise MismatchedSemigroup("summands over different semigroups")
    n = rep1.dim + rep2.dim
    mats = np.zeros((len(rep1.matrices), n, n), dtype=np.complex128)
    mats[:, : rep1.dim, : rep1.dim], mats[:, rep1.dim:, rep1.dim:] = rep1.matrices, rep2.matrices
    if rep1.boundedness.is_certified and rep2.boundedness.is_certified:
        cert = BoundednessCertificate(CERTIFIED, detail="sum of certified summands")
    else:
        cert = BoundednessCertificate(NOT_CHECKED)
    return Representation(semigroup=rep1.semigroup, dim=n, matrices=_stack(mats),
                          boundedness=cert)


def regular_representation(monoid):
    """Left translations on C^|S|; entrywise 0/1, hence positive."""
    m = monoid.size
    mats = np.zeros((m, m, m), dtype=np.complex128)
    s, t = np.indices((m, m))
    mats[s, np.asarray(monoid.table), t] = 1.0   # T_s e_t = e_(s+t)
    return certify_boundedness(validate_representation(monoid, mats))
