"""Spectral and ergodic structure of bounded representations of commutative
semigroups on C^n: unitary duals, unitary spectra, mean ergodic projections,
poles and Riesz points, peripheral decompositions, stability and
quasi-compactness verdicts, and the positive-representation equivalences.
"""

from .config import DEFAULT_CONFIG, DEFAULT_SEED, ToleranceConfig
from .semigroups import (
    FiniteCommutativeMonoid,
    FreeCommutativeMonoid,
    KernelGroup,
    idempotents,
    kernel_group,
    leq,
    validate_monoid,
)
from .characters import (
    UnitaryCharacter,
    char_conj,
    char_distance,
    char_mul,
    character_from_gen_values,
    enumerate_unitary_dual,
    trivial_character,
)
from .linalg import Subspace, operator_norm, operator_norms
from .representations import (
    Representation,
    certify_boundedness,
    direct_sum,
    dual_representation,
    regular_representation,
    representation_from_generators,
    restrict,
    rotate,
    validate_representation,
)
from .spectrum import (
    UnitarySpectrumResult,
    eigenspace,
    laplace_falsifier,
    unitary_spectrum,
)
from .ergodic import (
    Analysis,
    ErgodicReport,
    PeripheralDecomposition,
    is_pole,
    mean_ergodic_analysis,
    peripheral_decomposition,
    quasi_compactness_verdict,
    semigroup_at_infinity,
    stability_verdict,
)
from .positivity import check_positive, domination_check, nisa_suite
from .report import AnalysisReport, analyze, summarize

__all__ = [name for name in dir() if not name.startswith("_")]
