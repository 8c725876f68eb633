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
    validate_monoid,
)
from .characters import (
    UnitaryCharacter,
    char_distance,
    character_from_gen_values,
    enumerate_unitary_dual,
    trivial_character,
)
from .linalg import Subspace, operator_norm, operator_norms
from .representations import (
    Representation,
    certify_boundedness,
    regular_representation,
    representation_from_generators,
    restrict,
    validate_representation,
)
from .spectrum import (
    UnitarySpectrumResult,
    laplace_falsifier,
    unitary_spectrum,
)
from .ergodic import Analysis, ErgodicReport, PeripheralDecomposition
from .positivity import check_positive, domination_check, nisa_suite
from .report import AnalysisReport, analyze, summarize

__all__ = [
    "Analysis", "AnalysisReport", "DEFAULT_CONFIG", "DEFAULT_SEED", "ErgodicReport",
    "FiniteCommutativeMonoid", "FreeCommutativeMonoid", "KernelGroup",
    "PeripheralDecomposition", "Representation", "Subspace", "ToleranceConfig",
    "UnitaryCharacter", "UnitarySpectrumResult", "analyze", "certify_boundedness",
    "char_distance", "character_from_gen_values", "check_positive", "domination_check",
    "enumerate_unitary_dual", "idempotents", "kernel_group", "laplace_falsifier",
    "nisa_suite", "operator_norm", "operator_norms", "regular_representation",
    "representation_from_generators", "restrict", "summarize", "trivial_character",
    "unitary_spectrum", "validate_monoid", "validate_representation",
]
