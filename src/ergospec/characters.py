"""Unitary semigroup characters and the dual group of a finite monoid.

Characters of a finite monoid are stored exactly, as rational angles p/q
(the value at s is exp(2*pi*i*p/q)); this keeps deduplication and the group
structure of the dual exact. Characters of N^k are stored by their values
on the k generators, as unit complex floats.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import DEFAULT_CONFIG
from .errors import MismatchedSemigroup
from .semigroups import FreeCommutativeMonoid, element_order


_EXACT_QUARTERS = {
    Fraction(0): 1.0 + 0.0j,
    Fraction(1, 4): 1.0j,
    Fraction(1, 2): -1.0 + 0.0j,
    Fraction(3, 4): -1.0j,
}


def _angle_value(angle):
    exact = _EXACT_QUARTERS.get(angle % 1)
    if exact is not None:
        return exact
    return cmath.exp(2j * math.pi * float(angle))


_ANGLE_PARTS = {}   # id(angle) -> (angle, (str(p), str(q))); holding the angle keeps its id


def _angle_parts(angle):
    # one dual's characters share one Fraction per angle, which hashes slowly
    entry = _ANGLE_PARTS.get(id(angle))
    if entry is None:
        if len(_ANGLE_PARTS) >= 1024:   # twice the angles of a dual of 512
            _ANGLE_PARTS.clear()
        entry = _ANGLE_PARTS[id(angle)] = (angle, (str(angle.numerator), str(angle.denominator)))
    return entry[1]


@dataclass(frozen=True)
class UnitaryCharacter:
    """A unitary character, exact (rational angles) over a finite monoid or
    generator values over N^k."""

    semigroup: object
    angles: tuple = None      # finite monoid: one Fraction in [0,1) per element
    gen_values: tuple = None  # N^k: one unit complex number per generator

    def __post_init__(self):
        if (self.angles is None) == (self.gen_values is None):
            raise ValueError("exactly one of angles / gen_values required")

    @property
    def is_exact(self):
        return self.angles is not None

    def __call__(self, s):
        if self.is_exact:
            return _angle_value(self.angles[s])
        value = 1.0 + 0.0j
        for z, exponent in zip(self.gen_values, s):
            value *= z ** exponent
        return value

    def values(self):
        """Value on every element (finite monoid only)."""
        return tuple(_angle_value(a) for a in self.angles)

    def canonical_key(self):
        if self.is_exact:
            return self.angles
        return tuple((z.real, z.imag) for z in self.gen_values)

    def to_json(self):
        if self.is_exact:
            return {"angles": [list(_angle_parts(a)) for a in self.angles]}
        return {"gen_values": [{"re": z.real, "im": z.imag}
                               for z in self.gen_values]}


def trivial_character(semigroup):
    if isinstance(semigroup, FreeCommutativeMonoid):
        return UnitaryCharacter(semigroup, gen_values=(1.0 + 0.0j,) * semigroup.rank)
    return UnitaryCharacter(semigroup, angles=(Fraction(0),) * semigroup.size)


def character_from_gen_values(semigroup, gen_values, tol=None):
    """Build and validate an N^k character from generator values."""
    tol = DEFAULT_CONFIG.tol_char if tol is None else tol
    if not isinstance(semigroup, FreeCommutativeMonoid):
        raise ValueError("gen_values characters only exist over N^k")
    values = tuple(complex(z) for z in gen_values)
    if len(values) != semigroup.rank:
        raise ValueError("need one generator value per generator")
    for z in values:
        if abs(abs(z) - 1.0) > tol:
            raise ValueError(f"generator value {z} is not unimodular")
    values = tuple(z / abs(z) for z in values)
    return UnitaryCharacter(semigroup, gen_values=values)


def char_mul(chi, tau):
    if chi.semigroup != tau.semigroup:
        raise MismatchedSemigroup("characters over different semigroups")
    if chi.is_exact and tau.is_exact:
        angles = tuple((a + b) % 1 for a, b in zip(chi.angles, tau.angles))
        return UnitaryCharacter(chi.semigroup, angles=angles)
    values = tuple(a * b for a, b in zip(chi.gen_values, tau.gen_values))
    return UnitaryCharacter(chi.semigroup, gen_values=values)


def char_conj(chi):
    if chi.is_exact:
        return UnitaryCharacter(chi.semigroup,
                                angles=tuple((-a) % 1 for a in chi.angles))
    return UnitaryCharacter(chi.semigroup,
                            gen_values=tuple(z.conjugate() for z in chi.gen_values))


def char_distance(chi, tau):
    """Canonical metric: max angular distance over the generators."""
    if chi.is_exact and tau.is_exact:
        worst = 0.0
        for g in chi.semigroup.generators:
            d = float((chi.angles[g] - tau.angles[g]) % 1)
            worst = max(worst, min(d, 1.0 - d) * 2 * math.pi)
        return worst
    return max(abs(cmath.phase(a / b)) for a, b in zip(chi.gen_values, tau.gen_values))


def enumerate_unitary_dual(monoid):
    """Every unitary character of a finite commutative monoid, exactly, in
    canonical order; see _dual_numerators."""
    group, numerators = _dual_numerators(monoid)
    return _characters_from_numerators(monoid, numerators, len(group.carrier))


def _characters_from_numerators(monoid, rows, order):
    """The exact characters whose angles are p / order, one row of
    numerators p per character and one numerator per element."""
    angles = [Fraction(p, order) for p in range(order)]
    return [UnitaryCharacter(monoid, angles=tuple(angles[p] for p in row))
            for row in rows.tolist()]


def _dual_numerators(monoid):
    """(K, N): the kernel group K and the dual of the monoid as an integer
    array N, one row per character in canonical order and one column per
    element, the character's angle at s being N[., s] / |K|.

    Characters factor through s -> s + e (e the minimal idempotent): any
    unimodular idempotent value must be 1, so restriction to the kernel
    group K is a bijection onto the dual of K. The dual of K is built
    cyclic extension by cyclic extension: adjoin a generator g of maximal
    order, and extend each character by the d-th roots of its value on
    d*g, where d is the index of the step. The result has exactly |K|
    characters.

    Every character of K takes |K|-th roots of unity, so each angle is
    carried as an integer numerator over |K|. The d-th roots keep integer
    numerators: the numerator at d*g is a multiple of |K| / |H|, H the
    subgroup reached so far, and d divides |K| / |H|.
    """
    group = monoid.kernel
    e = group.identity
    order = len(group.carrier)

    subgroup = [e]
    column = {e: 0}                           # element -> column of `numerators`
    numerators = np.zeros((1, 1), dtype=np.int64)  # one row per partial character

    while len(subgroup) < order:
        outside = [g for g in group.carrier if g not in column]
        g = max(outside, key=lambda x: element_order(monoid, group, x))
        # d = index of the extension: smallest j >= 1 with j*g in the subgroup
        d = 1
        power = g
        while power not in column:
            power = monoid.add(power, g)
            d += 1
        # power = d*g already has a numerator in every partial character;
        # each character extends once per d-th root of its value there
        roots = ((numerators[:, column[power], None] + order * np.arange(d)) // d).ravel()
        rows = np.repeat(numerators, d, axis=0)
        numerators = np.hstack([(rows + j * roots[:, None]) % order for j in range(d)])

        new_elements = []
        jg = None
        for j in range(1, d):
            jg = g if jg is None else monoid.add(jg, g)
            new_elements.extend(monoid.add(h, jg) for h in subgroup)
        column.update((x, len(subgroup) + i) for i, x in enumerate(new_elements))
        subgroup.extend(new_elements)

    columns = [column[monoid.add(s, e)] for s in monoid.elements()]
    table = numerators[:, columns]
    # lexicographic row order, that of the angle tuples
    table = table[np.lexsort(table.T[::-1])]
    if len(table) != order or not np.diff(table, axis=0).any(axis=1).all():
        raise AssertionError("dual enumeration lost or duplicated characters")
    return group, table
