"""Commutative monoids: Cayley tables, the free monoid N^k, and kernel groups.

Finite monoids are given by explicit row-major Cayley tables with a named
neutral element; N^k elements are exponent tuples. Both carriers share the
divisibility preorder s <= t iff s + r = t for some r, and both name a
generating set, `generators`, which every linear-algebra route reads.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BadNeutral,
    ExponentOverflow,
    InternalInconsistency,
    NotAssociative,
    NotCommutative,
)

_INT64_MAX = 2**63 - 1

MAX_MONOID_SIZE = 512  # the largest finite monoid accepted

# table entries compared per row block in the associativity check
_ASSOCIATIVITY_BLOCK = 2**22


@dataclass(frozen=True)
class FiniteCommutativeMonoid:
    """A validated commutative monoid on {0, ..., size-1}."""

    size: int
    table: tuple  # tuple of tuples, table[i][j] = i + j
    neutral: int

    def add(self, s, t):
        return self.table[s][t]

    def elements(self):
        return range(self.size)

    @cached_property
    def generators(self):
        """A small generating set that does not depend on the labels.

        Each next generator is an element s whose adjunction grows the
        generated submonoid C the most, the least label among equals;
        C and s generate C + <s>, with <s> = {0, s, 2s, ...}. A cyclic
        group takes one generator and a product of two cyclic factors two.
        The one-element monoid gets its neutral element, so every family of
        generator matrices is nonempty."""
        table = np.asarray(self.table)
        closure = np.zeros(self.size, dtype=bool)
        closure[self.neutral] = True
        gens = []
        while not closure.all():
            members = np.flatnonzero(closure)
            best, best_size = None, 0
            for s in np.flatnonzero(~closure):
                grown = np.zeros(self.size, dtype=bool)
                grown[table[np.ix_(members, self._multiples(s))]] = True
                size = int(grown.sum())
                if size > best_size:
                    best, best_size, chosen = grown, size, int(s)
                if size == self.size:
                    break
            gens.append(chosen)
            closure = best
        return tuple(gens) or (self.neutral,)

    @cached_property
    def kernel(self):
        """The kernel group, computed once; see kernel_group."""
        return kernel_group(self)

    def _multiples(self, s):
        """The elements 0, s, 2s, ... of the submonoid <s>."""
        seen, x = [], self.neutral
        while x not in seen:
            seen.append(x)
            x = self.table[x][s]
        return seen

    def to_json(self):
        return {
            "type": "cayley",
            "size": self.size,
            "neutral": self.neutral,
            "table": [list(row) for row in self.table],
        }


@dataclass(frozen=True)
class FreeCommutativeMonoid:
    """The free commutative monoid N^rank with componentwise addition."""

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least 1")

    def add(self, s, t):
        return add_exponents(s, t)

    @property
    def neutral(self):
        return (0,) * self.rank

    @property
    def generators(self):
        """The k unit exponent tuples."""
        return tuple(tuple(int(i == j) for i in range(self.rank))
                     for j in range(self.rank))

    def to_json(self):
        return {"type": "free_commutative", "rank": self.rank}


@dataclass(frozen=True)
class KernelGroup:
    """The minimal ideal of a finite commutative monoid, which is a group."""

    carrier: tuple  # sorted element indices
    identity: int
    inverse: dict = field(compare=False)


def validate_monoid(table, neutral):
    """Validate a Cayley table and return the monoid.

    Raises NotCommutative / NotAssociative / BadNeutral with the first
    witness found (scanning in row-major order).
    """
    arr = np.asarray(table, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("table must be square")
    m = arr.shape[0]
    if m > MAX_MONOID_SIZE:
        raise ValueError(f"monoid size {m} exceeds supported maximum {MAX_MONOID_SIZE}")
    if arr.min() < 0 or arr.max() >= m:
        bad = np.argwhere((arr < 0) | (arr >= m))[0]
        raise ValueError(f"table entry at {tuple(bad)} out of range [0, {m})")
    if not (0 <= neutral < m):
        raise ValueError("neutral index out of range")

    diff = arr != arr.T
    if diff.any():
        i, j = np.argwhere(diff)[0]
        raise NotCommutative(int(i), int(j))

    bad = arr[neutral] != np.arange(m)
    if bad.any():
        raise BadNeutral(int(np.argwhere(bad)[0][0]))

    # (i+j)+k vs i+(j+k) for one block of rows i at a time, each block
    # shaped (rows, m, m), so the first witness in row-major order comes first
    step = max(1, _ASSOCIATIVITY_BLOCK // (m * m))
    for lo in range(0, m, step):
        block = arr[lo:lo + step]
        diff = arr[block] != block[:, arr]
        if diff.any():
            i, j, k = np.argwhere(diff)[0]
            raise NotAssociative(int(i) + lo, int(j), int(k))

    rows = tuple(map(tuple, arr.tolist()))
    return FiniteCommutativeMonoid(size=m, table=rows, neutral=int(neutral))


def add_exponents(s, t):
    """Componentwise sum of two exponent tuples; overflow is an error."""
    if len(s) != len(t):
        raise ValueError("exponent tuples of different rank")
    out = []
    for a, b in zip(s, t):
        c = a + b
        if c > _INT64_MAX:
            raise ExponentOverflow(f"exponent sum {a} + {b} exceeds 64 bits")
        out.append(c)
    return tuple(out)


def leq(s, t, semigroup):
    """Divisibility preorder: true iff s + r = t for some r."""
    if isinstance(semigroup, FreeCommutativeMonoid):
        return all(a <= b for a, b in zip(s, t))
    row = semigroup.table[s]
    return any(row[r] == t for r in range(semigroup.size))


def idempotents(monoid):
    """All x with x + x = x, ascending."""
    return [x for x in monoid.elements() if monoid.add(x, x) == x]


def kernel_group(monoid):
    """Compute the kernel K = S + e where e is the minimal idempotent.

    e is the sum of all idempotents; in a finite commutative monoid this is
    the unique minimal idempotent and K is a group with identity e. Each
    group law is checked over the whole table at once, and the first
    kernel element that breaks one is named.
    """
    idem = idempotents(monoid)
    e = idem[0]
    for x in idem[1:]:
        e = monoid.add(e, x)
    table = np.asarray(monoid.table)
    member = np.zeros(monoid.size, dtype=bool)
    member[table[:, e]] = True
    carrier = np.flatnonzero(member)

    if monoid.add(e, e) != e or not member[e]:
        raise InternalInconsistency("kernel identity is not idempotent")
    sums = table[carrier[:, None], carrier]
    not_identity = table[e, carrier] != carrier
    inverses = sums == e
    counts = inverses.sum(axis=1)
    bad = np.flatnonzero(not_identity | (counts != 1))
    if bad.size:
        i = bad[0]
        if not_identity[i]:
            raise InternalInconsistency(f"identity fails on kernel element {carrier[i]}")
        raise InternalInconsistency(f"kernel element {carrier[i]} has {counts[i]} inverses")
    if not member[sums].all():
        raise InternalInconsistency("kernel not closed under addition")

    carrier = carrier.tolist()
    inverse = {k: carrier[j] for k, j in zip(carrier, inverses.argmax(axis=1).tolist())}
    return KernelGroup(carrier=tuple(carrier), identity=e, inverse=inverse)

