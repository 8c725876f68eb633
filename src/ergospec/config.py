"""Tolerance and budget configuration used by every numerical routine."""

import math
from dataclasses import dataclass, asdict
from typing import ClassVar


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds and budgets: the three fields that the CLI sets
    (--tol-rank, --tol-char, --max-cesaro) and three class constants.

    tol_rank is relative to the largest singular value; the remaining
    tolerances are absolute (representation matrices are O(1) in norm).
    tol_hom also bounds the commutators of the N^k generators, their
    homomorphism law. The Cesaro chain doubles its side up to
    cesaro_max_side, until its composed mean is within cesaro_target.
    """

    tol_rank: float = 1e-10
    tol_char: float = 1e-8
    cesaro_max_side: int = 10_000
    tol_cluster: ClassVar[float] = 1e-7
    tol_hom: ClassVar[float] = 1e-8
    cesaro_target: ClassVar[float] = 1e-6

    def __post_init__(self):
        for name in ("tol_rank", "tol_char"):
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
        """The fields and the constants: the report's `tolerances`."""
        return asdict(self) | {name: getattr(self, name)
                               for name in ("tol_cluster", "tol_hom", "cesaro_target")}


DEFAULT_CONFIG = ToleranceConfig()

DEFAULT_SEED = 20240901
