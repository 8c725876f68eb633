"""Positivity on C^n with entrywise order, and the checks of the
equivalence suite for positive representations.

The suite's three verdicts, quasi-compactness, uniform mean ergodicity with
finite fixed space and the Riesz-point property of the constant character,
hold by theorem on C^n: every spectral character of a Certified input is a
pole. What still decides is the pole test of every spectral character,
which raises on a failed rounding check, the rank of the mean projection
against the dimension of the fixed space, and domination: no unimodular
eigenspace may exceed the fixed space in dimension.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG
from .errors import DominationViolation, EquivalenceViolation, NotBounded


@dataclass
class PositivityCertificate:
    is_positive: bool
    first_violation: tuple = None  # (matrix index, (row, col), value)


def check_positive(rep, config=None):
    """Entrywise nonnegativity of the representing matrices; the first
    violation in (matrix, row, col) order."""
    config = DEFAULT_CONFIG if config is None else config
    mats, tol = rep.matrices, config.tol_char
    bad = (mats.real < -tol) | (np.abs(mats.imag) > tol)
    if bad.any():
        idx, i, j = map(int, np.argwhere(bad)[0])
        return PositivityCertificate(False, (idx, (i, j), complex(mats[idx, i, j])))
    return PositivityCertificate(True)


@dataclass
class NisaReport:
    fix_dim: int
    projection_rank: int


def nisa_suite(analysis):
    """The checks of the equivalence suite for the positive representation
    of `analysis`: the pole test of every spectral character
    (Analysis.pole) and rank P = dim fix(T) for the mean projection P
    (Analysis.ergodic). The three verdicts the suite ties together hold
    by theorem."""
    if not analysis.rep.boundedness.is_certified:
        raise NotBounded("nisa_suite requires a Certified representation")
    cert = analysis.positivity
    if not cert.is_positive:
        raise ValueError(f"representation is not positive: {cert.first_violation}")

    for chi in analysis.spectrum.characters:
        analysis.pole(chi)   # raises when a pole test fails
    ergodic = analysis.ergodic
    fix_dim = ergodic.fix_dim
    projection_rank = int(round(np.trace(ergodic.mean_projection).real))
    if projection_rank != fix_dim:
        raise EquivalenceViolation(
            f"mean projection rank {projection_rank} != fix dimension {fix_dim}")
    return NisaReport(fix_dim=fix_dim, projection_rank=projection_rank)


@dataclass
class DominationReport:
    fix_dim: int
    profile: list  # (character, eigenspace dim) per spectral character


def domination_check(analysis):
    """dim ker(chi - T) <= dim fix(T) for every spectral character of the
    positive uniformly mean ergodic representation of `analysis`."""
    cert = analysis.positivity
    if not cert.is_positive:
        raise ValueError(f"representation is not positive: {cert.first_violation}")
    fix_dim = analysis.ergodic.fix_dim
    profile = []
    for chi, space in zip(analysis.spectrum.characters, analysis.spectrum.eigenspaces):
        profile.append((chi, space.dim))
        if space.dim > fix_dim:
            raise DominationViolation(chi, (space.dim, fix_dim))
    return DominationReport(fix_dim=fix_dim, profile=profile)
