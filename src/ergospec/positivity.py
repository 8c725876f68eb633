"""Positivity on C^n with entrywise order, and the equivalence suite for
positive representations: quasi-compactness, uniform mean ergodicity with
finite fixed space, and the Riesz-point property of the constant character
must coincide, and no unimodular eigenspace may exceed the fixed space in
dimension. The last two verdicts read one split, the pole of the trivial
character; quasi-compactness reads the pole verdicts of the whole spectrum
and the peripheral decomposition.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG
from .errors import DominationViolation, EquivalenceViolation, NotBounded
from .ergodic import Analysis


@dataclass
class PositivityCertificate:
    is_positive: bool
    first_violation: tuple = None  # (matrix index, (row, col), value)


def check_positive(rep, config=None):
    """Entrywise nonnegativity of the representing matrices."""
    config = DEFAULT_CONFIG if config is None else config
    for idx, mat in enumerate(rep.matrices):
        bad_real = mat.real < -config.tol_char
        bad_imag = np.abs(mat.imag) > config.tol_char
        bad = bad_real | bad_imag
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            return PositivityCertificate(False, (idx, (i, j), complex(mat[i, j])))
    return PositivityCertificate(True)


@dataclass
class NisaReport:
    quasi_compact: bool
    ume_with_finite_fix: bool
    trivial_char_riesz: bool
    fix_dim: int
    projection_rank: int

    @property
    def agree(self):
        return self.quasi_compact == self.ume_with_finite_fix == self.trivial_char_riesz


def nisa_suite(rep, config=None):
    """Evaluate the three equivalent verdicts for a positive representation
    and assert they agree. ume_with_finite_fix and trivial_char_riesz read
    one split, the trivial character's pole (Analysis.ergodic), and
    quasi_compact the pole verdicts of the whole spectrum."""
    return nisa_suite_of(Analysis(rep, config))


def nisa_suite_of(analysis):
    """nisa_suite on the routes already shared in `analysis`."""
    if not analysis.rep.boundedness.is_certified:
        raise NotBounded("nisa_suite requires a Certified representation")
    cert = analysis.positivity
    if not cert.is_positive:
        raise ValueError(f"representation is not positive: {cert.first_violation}")

    qc = analysis.quasi_compactness
    ergodic = analysis.ergodic
    pole = analysis.pole(analysis.trivial)

    fix_dim = ergodic.fix_dim
    projection_rank = 0
    if ergodic.mean_projection is not None:
        projection_rank = int(round(np.trace(ergodic.mean_projection).real))

    report = NisaReport(
        quasi_compact=qc.is_quasi_compact,
        # fix_dim counts the columns of a basis, so it is always finite
        ume_with_finite_fix=ergodic.is_ume,
        trivial_char_riesz=pole.counts_as_pole,
        fix_dim=fix_dim,
        projection_rank=projection_rank,
    )
    if not report.agree:
        raise EquivalenceViolation(
            f"quasi_compact={report.quasi_compact}, "
            f"ume_with_finite_fix={report.ume_with_finite_fix}, "
            f"trivial_char_riesz={report.trivial_char_riesz}")
    if projection_rank != fix_dim and ergodic.mean_projection is not None:
        raise EquivalenceViolation(
            f"mean projection rank {projection_rank} != fix dimension {fix_dim}")
    return report


@dataclass
class DominationReport:
    fix_dim: int
    profile: list  # (character, eigenspace dim) per spectral character


def domination_check(rep, config=None):
    """dim ker(chi - T) <= dim fix(T) for every spectral character of a
    positive uniformly mean ergodic representation."""
    return domination_check_of(Analysis(rep, config))


def domination_check_of(analysis):
    """domination_check on the routes already shared in `analysis`."""
    cert = analysis.positivity
    if not cert.is_positive:
        raise ValueError(f"representation is not positive: {cert.first_violation}")
    ergodic = analysis.ergodic
    if not ergodic.is_ume:
        raise ValueError("domination check requires a uniformly mean ergodic input")

    fix_dim = ergodic.fix_dim
    profile = []
    for chi, space in zip(analysis.spectrum.characters, analysis.spectrum.eigenspaces):
        profile.append((chi, space.dim))
        if space.dim > fix_dim:
            raise DominationViolation(chi, (space.dim, fix_dim))
    return DominationReport(fix_dim=fix_dim, profile=profile)
