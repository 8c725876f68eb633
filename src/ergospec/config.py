"""Tolerance and budget configuration used by every numerical routine."""

import math
from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds and budgets.

    tol_rank is relative to the largest singular value; the remaining
    tolerances are absolute (representation matrices are O(1) in norm).
    tol_hom also bounds the commutators of the N^k generators, their
    homomorphism law. The Cesaro chain doubles its side up to
    cesaro_max_side, until its composed mean is within cesaro_target.
    """

    tol_rank: float = 1e-10
    tol_char: float = 1e-8
    tol_cluster: float = 1e-7
    tol_hom: float = 1e-8
    cesaro_max_side: int = 10_000
    cesaro_target: float = 1e-6

    def __post_init__(self):
        for name in ("tol_rank", "tol_char", "tol_cluster", "tol_hom", "cesaro_target"):
            value = getattr(self, name)
            # NaN fails every comparison, so it would pass a test of <= 0
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        # a unimodular eigenvalue lies within tol_char of the unit circle, so
        # at tol_char >= 1 the eigenvalue 0 would count as peripheral
        if self.tol_char >= 1:
            raise ValueError(f"tol_char must be below 1, got {self.tol_char}")
        if self.cesaro_max_side < 1:
            raise ValueError("cesaro budgets must be positive")

    def to_dict(self):
        return asdict(self)


DEFAULT_CONFIG = ToleranceConfig()

DEFAULT_SEED = 20240901
