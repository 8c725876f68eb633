"""Tolerance and budget configuration used by every numerical routine."""

import math
from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds and budgets.

    tol_rank is relative to the largest singular value; the remaining
    tolerances are absolute (representation matrices are O(1) in norm).
    cesaro_power is the number of times the rectangle mean is composed with
    itself before measuring distance to the mean projection; the plain
    rectangle mean converges only like 1/N, too slowly for cesaro_target
    within cesaro_max_side.
    """

    tol_rank: float = 1e-10
    tol_char: float = 1e-8
    tol_cluster: float = 1e-7
    tol_hom: float = 1e-8
    tol_commute: float = 1e-8
    cesaro_max_side: int = 10_000
    cesaro_target: float = 1e-6
    cesaro_power: int = 3
    witness_budget: int = 1_000_000
    max_monoid_size: int = 512
    max_dim: int = 256

    def __post_init__(self):
        for name in ("tol_rank", "tol_char", "tol_cluster", "tol_hom",
                     "tol_commute", "cesaro_target"):
            value = getattr(self, name)
            # NaN fails every comparison, so it would pass a test of <= 0
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.cesaro_max_side < 1 or self.cesaro_power < 1:
            raise ValueError("cesaro budgets must be positive")

    def to_dict(self):
        return asdict(self)


DEFAULT_CONFIG = ToleranceConfig()

DEFAULT_SEED = 20240901
