"""Matrix representations of commutative monoids and their derived forms.

A representation stores one matrix per element (finite monoid) or one per
generator (N^k). Validation certifies the homomorphism law from the
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
import scipy.linalg

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
    _invariant_subspace,
    _peripheral_clusters,
    as_complex_matrix,
    operator_norm,
    operator_norms,
)
from .semigroups import FiniteCommutativeMonoid, FreeCommutativeMonoid

MAX_DIM = 256  # the largest matrix dimension accepted

CERTIFIED = "certified"
UNBOUNDED = "unbounded"
NOT_CHECKED = "not_checked"

# Size of the perturbation by which rounding of the input and of its Schur
# form moves eigenvalues, relative to ||T_g||_F. On seeded real and complex
# inputs (n <= 12, similarity condition <= 1e3), a unimodular Jordan pair
# that rounding split beyond tol_cluster sits within 2.7 eps ||T_g||_F / s
# of its other half, and bounded unimodular clusters lie 8000 eps
# ||T_g||_F / s or more from every other eigenvalue; 100 eps sits between.
_ROUNDING = 100 * np.finfo(float).eps


@dataclass(frozen=True)
class BoundednessCertificate:
    status: str
    witness: tuple = None   # generator direction for unbounded growth
    detail: str = ""
    # Certified N^k: the eigenvalues of T_1, from its Schur form, which
    # the unitary spectrum's walk starts from; None otherwise. Not reported.
    eigenvalues: tuple = None

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
    matrices: tuple  # per element (finite) or per generator (N^k)
    boundedness: BoundednessCertificate = BoundednessCertificate(NOT_CHECKED)

    @property
    def is_finite(self):
        return isinstance(self.semigroup, FiniteCommutativeMonoid)

    def family(self):
        """The matrices of the semigroup's generators."""
        if self.is_finite:
            return [self.matrices[g] for g in self.semigroup.generators]
        return list(self.matrices)

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
    """Check the homomorphism law and wrap the matrices, an iterable read
    once: each is copied as it is read.

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
    mats = tuple(as_complex_matrix(a) for a in matrices)
    if not mats:
        raise ValueError("representation needs at least one matrix")
    n = mats[0].shape[0]
    for a in mats:
        if a.shape != (n, n):
            raise ValueError("all matrices must be square of equal dimension")
    if n == 0:
        raise ValueError("dimension must be at least 1")
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds supported maximum {MAX_DIM}")

    if isinstance(semigroup, FiniteCommutativeMonoid):
        if len(mats) != semigroup.size:
            raise ValueError("finite monoid needs one matrix per element")
        eye = np.eye(n)
        eta = operator_norm(mats[semigroup.neutral] - eye)
        if eta > config.tol_hom:
            raise BadNeutral(semigroup.neutral)
        if _homomorphism_bound(semigroup, mats, eta) > config.tol_hom / 2:
            scale = max(1.0, max(operator_norm(a) for a in mats) ** 2)
            for s in semigroup.elements():
                for t in range(s, semigroup.size):
                    residual = operator_norm(mats[s] @ mats[t] - mats[semigroup.add(s, t)])
                    if residual > config.tol_hom * scale:
                        raise HomomorphismViolation(s, t, residual)
    elif isinstance(semigroup, FreeCommutativeMonoid):
        if len(mats) != semigroup.rank:
            raise ValueError("N^k needs one matrix per generator")
        norms = [max(1.0, norm) for norm in operator_norms(mats)]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                residual = operator_norm(mats[i] @ mats[j] - mats[j] @ mats[i])
                bound = config.tol_hom * norms[i] * norms[j]
                if residual > bound:
                    raise NotCommuting(i, j, residual)
    else:
        raise TypeError("unsupported semigroup type")

    return Representation(semigroup=semigroup, dim=n, matrices=mats)


def _homomorphism_bound(monoid, mats, eta):
    """2 L M delta + M eta, the bound on every ||T_s T_t - T_(s+t)|| that
    validate_representation derives. The products T_s T_g and T_g T_s are
    taken for one row block of elements at a time."""
    n = mats[0].shape[0]
    block = max(1, BLOCK_ENTRIES // (n * n))
    table = np.asarray(monoid.table)
    delta = 0.0
    for lo in range(0, monoid.size, block):
        rows = np.stack(mats[lo:lo + block])
        for g in monoid.generators:
            target = np.stack([mats[t] for t in table[lo:lo + block, g]])
            delta = max(delta, _largest_difference(rows @ mats[g], target),
                        _largest_difference(mats[g] @ rows, target))
    bound_m = max(float(np.linalg.norm(a)) for a in mats)

    depth = {monoid.neutral: 0}
    frontier = [monoid.neutral]
    while frontier:
        successors = []
        for t in frontier:
            for g in monoid.generators:
                u = monoid.add(t, g)
                if u not in depth:
                    depth[u] = depth[t] + 1
                    successors.append(u)
        frontier = successors
    return 2 * max(depth.values()) * bound_m * delta + bound_m * eta


def _largest_difference(products, targets):
    """The largest ||products[i] - targets[i]||_F; overwrites `products`."""
    products -= targets
    return max(float(np.linalg.norm(a)) for a in products)


def representation_from_generators(monoid, generator_indices, generator_matrices,
                                   config=None):
    """Materialize a finite-monoid representation from matrices on a
    generating set, by walking the Cayley table, then validate it."""
    config = DEFAULT_CONFIG if config is None else config
    gens = [as_complex_matrix(a) for a in generator_matrices]
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
    cluster psi of its eigenvalues as psi itself, ||Q^H T_g Q - psi I|| at
    most tol_rank max(1, ||T_g||) max(1, w) for a cluster of w eigenvalues.
    The clusters are those of the diagonal of one complex Schur form of
    T_g at radius tol_cluster.

    Rounding splits a defective eigenvalue into values whose spectral
    subspaces are nearly parallel, possibly by more than tol_cluster. So a
    unimodular cluster also fails when a perturbation of the size of the
    rounding, _ROUNDING ||T_g||_F, can move its mean onto another
    eigenvalue: when that distance is at most _ROUNDING ||T_g||_F / s, 1 / s
    the norm of the cluster's spectral projector, which is also a lower
    bound of sup_m ||T_g^m||. The first generator that fails is the witness
    of an Unbounded certificate. A Certified one keeps the eigenvalues of
    T_1, the diagonal of its Schur form: the unitary spectrum's walk
    clusters them at its own tolerances instead of computing them again.
    """
    config = DEFAULT_CONFIG if config is None else config
    if rep.is_finite:
        cert = BoundednessCertificate(CERTIFIED, detail="finite range")
        return replace(rep, boundedness=cert)

    eigenvalues = None
    for j, (label, a) in enumerate(zip(rep.semigroup.generators, rep.matrices)):
        schur_form = scipy.linalg.schur(a, output="complex")
        eigs = np.diag(schur_form[0])
        rounding = _ROUNDING * np.linalg.norm(a)
        if j == 0:
            eigenvalues = tuple(eigs.tolist())
        for cluster, psi in _peripheral_clusters(eigs, config):
            if abs(psi) > 1.0 + config.tol_char:
                detail = f"generator {j} has an eigenvalue of modulus {abs(psi):.6f} > 1"
            else:
                q, width, s = _invariant_subspace(schur_form, eigs[cluster],
                                                  config.tol_cluster)
                defect = operator_norm(q.conj().T @ a @ q - psi * np.eye(width))
                scale = max(1.0, rep.generator_norms[j])
                gap = np.abs(np.delete(eigs, cluster) - psi).min(initial=np.inf)
                detail = None
                if defect > config.tol_rank * scale * max(1, width):
                    detail = (f"generator {j} is peripheral at {psi:.6f} "
                              f"but acts with nilpotent defect {defect:.3e}")
                elif gap * s <= rounding:
                    detail = (f"generator {j} is peripheral at {psi:.6f} "
                              f"with spectral projector norm {1 / s:.3e}, within "
                              f"rounding of another eigenvalue {gap:.3e} away")
            if detail:
                cert = BoundednessCertificate(UNBOUNDED, witness=label, detail=detail)
                return replace(rep, boundedness=cert)
    return replace(rep, boundedness=BoundednessCertificate(
        CERTIFIED, detail="every generator acts as a scalar on each peripheral "
                          "spectral subspace", eigenvalues=eigenvalues))


def rotate(rep, chi):
    """The twisted representation s -> chi(s) T_s."""
    if chi.semigroup != rep.semigroup:
        raise MismatchedSemigroup("character over a different semigroup")
    cert = rep.boundedness
    if rep.is_finite:
        mats = tuple(chi(s) * rep.matrices[s] for s in rep.semigroup.elements())
    else:
        mats = tuple(z * a for z, a in zip(chi.gen_values, rep.matrices))
        if cert.eigenvalues is not None:
            w = chi.gen_values[0]
            cert = replace(cert, eigenvalues=tuple(w * z for z in cert.eigenvalues))
    # |chi| = 1, so the certificate transfers, and chi(g_1) T_1 has the
    # eigenvalues chi(g_1) z of T_1's eigenvalues z
    return replace(rep, matrices=mats, boundedness=cert)


def restrict(rep, subspace, config=None):
    """Express the representation on an invariant subspace, after checking
    that every generator leaves it invariant.

    The certificate carries over, with the eigenvalues of the parent's T_1:
    a superset of the restricted T_1's. The unitary spectrum then takes one
    kernel of the restricted T_1 for each unimodular cluster of the
    parent's, and drops those without an eigenvector in the subspace."""
    config = DEFAULT_CONFIG if config is None else config
    if subspace.ambient_dim != rep.dim:
        raise ValueError("subspace lives in a different ambient dimension")
    basis = subspace.basis
    proj = basis @ basis.conj().T
    eye = np.eye(rep.dim)
    residuals = operator_norms((eye - proj) @ a @ proj for a in rep.family())
    for label, residual, norm in zip(rep.semigroup.generators, residuals,
                                     rep.generator_norms):
        if residual > config.tol_hom * max(1.0, norm):
            raise NotInvariant(label, residual)
    mats = tuple(basis.conj().T @ a @ basis for a in rep.matrices)
    return Representation(semigroup=rep.semigroup, dim=subspace.dim,
                          matrices=mats, boundedness=rep.boundedness)


def dual_representation(rep):
    """Transpose every matrix (bilinear dual pairing convention)."""
    return replace(rep, matrices=tuple(a.T.copy() for a in rep.matrices))


def direct_sum(rep1, rep2):
    if rep1.semigroup != rep2.semigroup:
        raise MismatchedSemigroup("summands over different semigroups")
    mats = []
    for a, b in zip(rep1.matrices, rep2.matrices):
        block = np.zeros((rep1.dim + rep2.dim,) * 2, dtype=np.complex128)
        block[: rep1.dim, : rep1.dim] = a
        block[rep1.dim:, rep1.dim:] = b
        mats.append(block)
    if rep1.boundedness.is_certified and rep2.boundedness.is_certified:
        eigenvalues = None
        if not rep1.is_finite:   # T_1 of the sum is block diagonal
            eigenvalues = rep1.boundedness.eigenvalues + rep2.boundedness.eigenvalues
        cert = BoundednessCertificate(CERTIFIED, detail="sum of certified summands",
                                      eigenvalues=eigenvalues)
    else:
        cert = BoundednessCertificate(NOT_CHECKED)
    return Representation(semigroup=rep1.semigroup, dim=rep1.dim + rep2.dim,
                          matrices=tuple(mats), boundedness=cert)


def regular_representation(monoid):
    """Left translations on C^|S|; entrywise 0/1, hence positive."""
    m = monoid.size
    mats = []
    for s in monoid.elements():
        a = np.zeros((m, m), dtype=np.complex128)
        for t in monoid.elements():
            a[monoid.add(s, t), t] = 1.0
        mats.append(a)
    rep = validate_representation(monoid, mats)
    return certify_boundedness(rep)
