"""Seeded random instance generators for the theorem-equivalence suites.

Three families:
  * general certified N^k instances with planted joint spectrum
    (exact roots of unity on the peripheral part, contractions elsewhere,
    conjugated by a well-conditioned similarity);
  * circulant row-stochastic families (all circulants commute, and they
    are normal, so certification is automatic);
  * nonnegative polynomial families: polynomials with nonnegative
    coefficients of one random nonnegative matrix, rescaled to spectral
    radius at most one, with rejection of defective peripheral parts.
"""

import numpy as np

from .config import DEFAULT_CONFIG
from .representations import certify_boundedness, validate_representation
from .semigroups import FreeCommutativeMonoid

# roots of unity with orders small enough that the composed Cesaro mean
# passes cesaro_target within the side budget
_PERIPHERAL_ORDERS = (1, 2, 3, 4, 6, 8)


def _random_unitary(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_certified_instance(seed, max_rank=3, max_dim=24, config=None):
    """A certified representation of N^k with known peripheral structure.

    Returns (representation, planted) where planted records the peripheral
    joint tuples with multiplicity and the fixed-space dimension.
    """
    config = DEFAULT_CONFIG if config is None else config
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, max_rank + 1))
    n = int(rng.integers(2, max_dim + 1))

    peripheral = int(rng.integers(0, min(n, 6) + 1))
    if rng.random() < 0.2:
        peripheral = 0          # purely stable instances
    stable = n - peripheral

    diag = [np.zeros(n, dtype=np.complex128) for _ in range(k)]
    planted_tuples = []
    for pos in range(peripheral):
        tup = []
        for j in range(k):
            order = int(rng.choice(_PERIPHERAL_ORDERS))
            step = int(rng.integers(0, order))
            tup.append(np.exp(2j * np.pi * step / order))
        planted_tuples.append(tuple(tup))
        for j in range(k):
            diag[j][pos] = planted_tuples[-1][j]

    # stable part: commuting cells, either diagonal or alpha I + nu J
    mats = [np.diag(d) for d in diag]
    pos = peripheral
    while pos < n:
        cell = int(rng.integers(1, min(3, n - pos) + 1))
        jordan = cell > 1 and rng.random() < 0.5
        for j in range(k):
            alpha = rng.uniform(0.05, 0.8) * np.exp(2j * np.pi * rng.random())
            block = alpha * np.eye(cell, dtype=np.complex128)
            if jordan:
                nu = rng.uniform(0.1, 0.4)
                block += nu * np.diag(np.ones(cell - 1), 1)
            elif cell > 1:
                moduli = rng.uniform(0.05, 0.8, size=cell)
                phases = np.exp(2j * np.pi * rng.random(cell))
                block = np.diag(moduli * phases)
            mats[j][pos:pos + cell, pos:pos + cell] = block
        pos += cell

    # well-conditioned similarity: kappa <= (1.3/0.77)^2 < 3
    q = _random_unitary(rng, n) @ np.diag(rng.uniform(0.77, 1.3, size=n)) \
        @ _random_unitary(rng, n)
    q_inv = np.linalg.inv(q)
    generators = [q @ a @ q_inv for a in mats]

    rep = validate_representation(FreeCommutativeMonoid(k), generators, config)
    rep = certify_boundedness(rep, config)
    if not rep.boundedness.is_certified:
        raise AssertionError("planted instance failed certification: "
                             + rep.boundedness.detail)

    fix_dim = sum(1 for tup in planted_tuples
                  if all(abs(z - 1) < 1e-12 for z in tup))
    planted = {"tuples": planted_tuples, "fix_dim": fix_dim, "k": k, "n": n}
    return rep, planted


def _circulant(first_row):
    n = len(first_row)
    mat = np.zeros((n, n), dtype=np.complex128)
    for shift in range(n):
        mat += first_row[shift] * np.roll(np.eye(n), -shift, axis=0)
    return mat


def random_circulant_stochastic_instance(seed, max_rank=3, max_dim=24, config=None):
    """Commuting positive generators: random row-stochastic circulants,
    mixed with pure cyclic shifts for peripheral richness."""
    config = DEFAULT_CONFIG if config is None else config
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, max_rank + 1))
    n = int(rng.integers(2, max_dim + 1))
    generators = []
    for _ in range(k):
        style = rng.random()
        if style < 0.3:
            row = np.zeros(n)
            row[int(rng.integers(0, n))] = 1.0           # a permutation power
        elif style < 0.6:
            support = rng.integers(0, 2, size=n).astype(float)  # sparse support
            support[int(rng.integers(0, n))] = 1.0
            weights = rng.uniform(0.1, 1.0, size=n) * support
            row = weights / weights.sum()
        else:
            weights = rng.uniform(0.0, 1.0, size=n)
            row = weights / weights.sum()
        generators.append(_circulant(row))
    rep = validate_representation(FreeCommutativeMonoid(k), generators, config)
    return certify_boundedness(rep, config)


def random_polynomial_instance(seed, max_rank=3, max_dim=24, config=None,
                               max_attempts=50):
    """Commuting positive generators: nonnegative-coefficient polynomials
    of one random nonnegative matrix, rescaled to spectral radius <= 1.

    Defective peripheral parts are rejected via the boundedness
    certificate and resampled."""
    config = DEFAULT_CONFIG if config is None else config
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        k = int(rng.integers(1, max_rank + 1))
        n = int(rng.integers(2, max_dim + 1))
        density = rng.uniform(0.2, 1.0)
        base = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < density)
        generators = []
        for _ in range(k):
            degree = int(rng.integers(1, 4))
            coeffs = rng.uniform(0.0, 1.0, size=degree + 1)
            coeffs[int(rng.integers(0, degree + 1))] += 0.5
            mat = np.zeros_like(base)
            power = np.eye(n)
            for c in coeffs:
                mat = mat + c * power
                power = power @ base
            radius = float(np.abs(np.linalg.eigvals(mat)).max())
            if radius > 1e-10:
                target = 1.0 if rng.random() < 0.5 else rng.uniform(0.5, 0.95)
                mat = mat * (target / radius)
            generators.append(mat.astype(np.complex128))
        rep = validate_representation(FreeCommutativeMonoid(k), generators, config)
        # an unused draw that keeps the next attempt's samples of each seed
        rng.integers(0, 2**31)
        rep = certify_boundedness(rep, config)
        if rep.boundedness.is_certified:
            return rep
    raise RuntimeError("could not sample a certified positive instance")
