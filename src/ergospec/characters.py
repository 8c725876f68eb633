"""Unitary semigroup characters and the dual group of a finite monoid.

A character of a finite monoid factors through its kernel group K (see
_dual_numerators), so each of its values is a |K|-th root of unity. It is
stored exactly, as one integer numerator p in [0, |K|) per element, its
value at s being exp(2*pi*i*p/|K|); integer numerators keep deduplication
and the group structure of the dual exact. Characters of N^k are stored by
their values on the k generators, as unit complex floats.
"""

import cmath
import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .config import DEFAULT_CONFIG
from .errors import MismatchedSemigroup
from .semigroups import FreeCommutativeMonoid

_QUARTERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _root(p, q):
    """exp(2*pi*i*p/q) for 0 <= p < q, exact at the quarter turns."""
    if 4 * p % q == 0:
        return _QUARTERS[4 * p // q]
    return cmath.exp(2j * math.pi * (p / q))


@cache
def _angle_strings(order):
    """The pair [str(p'), str(q')] of each angle p/order in lowest terms,
    for p in range(order)."""
    return tuple((str(p // math.gcd(p, order)), str(order // math.gcd(p, order)))
                 for p in range(order))


@dataclass(frozen=True)
class UnitaryCharacter:
    """A unitary character, exact (integer numerators over |K|) over a
    finite monoid or generator values over N^k."""

    # not hashed: a finite monoid hashes its whole Cayley table, and equal
    # characters still compare their semigroups
    semigroup: object = field(hash=False)
    numerators: tuple = None  # finite monoid: one int in [0, order) per element
    gen_values: tuple = None  # N^k: one unit complex number per generator

    def __post_init__(self):
        if (self.numerators is None) == (self.gen_values is None):
            raise ValueError("exactly one of numerators / gen_values required")

    @property
    def is_exact(self):
        return self.numerators is not None

    @property
    def order(self):
        """|K|, the common denominator of a finite character's angles."""
        return len(self.semigroup.kernel.carrier)

    def __call__(self, s):
        if self.is_exact:
            return _root(self.numerators[s], self.order)
        value = 1.0 + 0.0j
        for z, exponent in zip(self.gen_values, s):
            value *= z ** exponent
        return value

    def values(self):
        """Value on every element (finite monoid only)."""
        order = self.order
        return tuple(_root(p, order) for p in self.numerators)

    def canonical_key(self):
        if self.is_exact:
            return self.numerators
        return tuple((z.real, z.imag) for z in self.gen_values)

    def to_json(self):
        if self.is_exact:
            strings = _angle_strings(self.order)
            return {"angles": [list(strings[p]) for p in self.numerators]}
        return {"gen_values": [{"re": z.real, "im": z.imag}
                               for z in self.gen_values]}


def trivial_character(semigroup):
    if isinstance(semigroup, FreeCommutativeMonoid):
        return UnitaryCharacter(semigroup, gen_values=(1.0 + 0.0j,) * semigroup.rank)
    return UnitaryCharacter(semigroup, numerators=(0,) * semigroup.size)


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


def char_distance(chi, tau):
    """Canonical metric: max angular distance over the generators."""
    if chi.is_exact and tau.is_exact:
        order, worst = chi.order, 0.0
        for g in chi.semigroup.generators:
            d = (chi.numerators[g] - tau.numerators[g]) % order / order
            worst = max(worst, min(d, 1.0 - d) * 2 * math.pi)
        return worst
    return max(abs(cmath.phase(a / b)) for a, b in zip(chi.gen_values, tau.gen_values))


def enumerate_unitary_dual(monoid):
    """Every unitary character of a finite commutative monoid, exactly, in
    canonical order; see _dual_numerators."""
    return [UnitaryCharacter(monoid, numerators=tuple(row))
            for row in _dual_numerators(monoid)[1].tolist()]


def _dual_numerators(monoid):
    """(K, N): the kernel group K and the dual of the monoid as an integer
    array N, one row per character in canonical order and one column per
    element, the character's angle at s being N[., s] / |K|.

    Characters factor through s -> s + e (e the minimal idempotent): any
    unimodular idempotent value must be 1, so restriction to the kernel
    group K is a bijection onto the dual of K. The dual of K is built
    cyclic extension by cyclic extension: adjoin the image g + e of each of
    the monoid's generators g in turn, and extend each character by the
    d-th roots of its value on d*g, where d is the index of the step. The
    images generate K, since s + e is the sum of the images of the
    generators that sum to s, so the result has exactly |K| characters.

    Every character of K takes |K|-th roots of unity, so each angle is
    carried as an integer numerator over |K|. The d-th roots keep integer
    numerators whatever the order of the adjoined g: the numerator at d*g
    is a multiple of |K| / |H|, H the subgroup reached so far, and d
    divides |K| / |H| by Lagrange, d|H| being the order of the subgroup
    that H and g generate.
    """
    group = monoid.kernel
    e = group.identity
    order = len(group.carrier)

    subgroup = [e]
    column = {e: 0}                           # element -> column of `numerators`
    numerators = np.zeros((1, 1), dtype=np.int64)  # one row per partial character

    for g in monoid.generators:
        g = monoid.add(g, e)
        if g in column:   # already in the subgroup: the step adjoins nothing
            continue
        # d = index of the extension: smallest j >= 1 with j*g in the subgroup
        d, power = 1, g
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

    if len(subgroup) != order:
        raise AssertionError("the generators' images do not generate the kernel group")
    columns = [column[monoid.add(s, e)] for s in monoid.elements()]
    table = numerators[:, columns]
    # lexicographic row order, that of the angle tuples
    table = table[np.lexsort(table.T[::-1])]
    if not np.diff(table, axis=0).any(axis=1).all():
        raise AssertionError("dual enumeration duplicated characters")
    return group, table
