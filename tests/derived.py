"""Derived representations and the character algebra, kept as test oracles:
the rotation s -> chi(s) T_s, the transposed dual, the direct sum, the
product and conjugate of characters, and the divisibility preorder.

The package reads every pole off an isotypic projection (finite monoids)
or a product of Riesz projectors (N^k), so it builds none of these; the
tests hold its spectra and poles to the compatibility laws they satisfy.
"""

from dataclasses import replace

import numpy as np

from ergospec.characters import UnitaryCharacter
from ergospec.representations import (
    CERTIFIED,
    NOT_CHECKED,
    BoundednessCertificate,
    Representation,
    _stack,
)
from ergospec.semigroups import FreeCommutativeMonoid


def projector(subspace):
    """The orthogonal projector onto `subspace`."""
    return subspace.basis @ subspace.basis.conj().T


def rotate(rep, chi):
    """The twisted representation s -> chi(s) T_s. |chi| = 1, so the
    verdict of the certificate carries over, but not its clusters: the
    spectrum of the rotation certifies it again."""
    values = chi.values() if rep.is_finite else chi.gen_values
    mats = np.asarray(values, dtype=np.complex128)[:, None, None] * rep.matrices
    return replace(rep, matrices=_stack(mats),
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
    n = rep1.dim + rep2.dim
    mats = np.zeros((len(rep1.matrices), n, n), dtype=np.complex128)
    mats[:, : rep1.dim, : rep1.dim], mats[:, rep1.dim:, rep1.dim:] = rep1.matrices, rep2.matrices
    if rep1.boundedness.is_certified and rep2.boundedness.is_certified:
        cert = BoundednessCertificate(CERTIFIED, detail="sum of certified summands")
    else:
        cert = BoundednessCertificate(NOT_CHECKED)
    return Representation(semigroup=rep1.semigroup, dim=n, matrices=_stack(mats),
                          boundedness=cert)


def char_mul(chi, tau):
    if chi.is_exact and tau.is_exact:
        order = chi.order
        numerators = tuple((a + b) % order for a, b in zip(chi.numerators, tau.numerators))
        return UnitaryCharacter(chi.semigroup, numerators=numerators)
    values = tuple(a * b for a, b in zip(chi.gen_values, tau.gen_values))
    return UnitaryCharacter(chi.semigroup, gen_values=values)


def char_conj(chi):
    if chi.is_exact:
        order = chi.order
        return UnitaryCharacter(chi.semigroup,
                                numerators=tuple(-p % order for p in chi.numerators))
    return UnitaryCharacter(chi.semigroup,
                            gen_values=tuple(z.conjugate() for z in chi.gen_values))


def leq(s, t, semigroup):
    """Divisibility preorder: true iff s + r = t for some r."""
    if isinstance(semigroup, FreeCommutativeMonoid):
        return all(a <= b for a, b in zip(s, t))
    row = semigroup.table[s]
    return any(row[r] == t for r in range(semigroup.size))
