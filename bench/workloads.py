"""Seeded benchmark inputs and the truth planted in them.

Everything here uses numpy and the standard library only, so a change to
`ergospec.ensembles` cannot change what the benchmark measures. Inputs are
written in the package's JSON wire format (see `ergospec.serialize`).

A workload is a fixed *deck* of cases. A run with seed `s` draws one deck
from `s` and runs it repeatedly: the same seed gives the same inputs, and
every deck covers every case once.

Finite monoids are products of three atoms, each with its own
characters into {0} union the roots of unity:

  Z<m>  cyclic group, a + b mod m;       characters a -> exp(2 pi i j a / m)
  L<c>  chain {0..c-1} under max;        characters a -> [a < t], 1 <= t <= c
  T<c>  truncated addition on {0..c},    characters 1 and a -> [a == 0]
        a + b = min(a + b, c)
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# roots of unity of small order, so the composed Cesaro mean meets
# cesaro_target within the default side budget
PERIPHERAL_ORDERS = (1, 2, 3, 4, 6, 8)


# ---------------------------------------------------------------- monoids

def _atom(token):
    kind, size = token[0], int(token[1:])
    if kind == "Z":
        elements = list(range(size))
        add = lambda a, b: (a + b) % size  # noqa: E731
        chars = [tuple(Fraction(j * a, size) % 1 for a in elements)
                 for j in range(size)]
        kernel = size
    elif kind == "L":
        elements = list(range(size))
        add = max
        chars = [tuple(Fraction(0) if a < t else None for a in elements)
                 for t in range(1, size + 1)]
        kernel = 1
    elif kind == "T":
        elements = list(range(size + 1))
        add = lambda a, b: min(a + b, size)  # noqa: E731
        chars = [tuple(Fraction(0) for _ in elements),
                 tuple(Fraction(0) if a == 0 else None for a in elements)]
        kernel = 1
    else:
        raise ValueError(f"unknown monoid atom {token!r}")
    return elements, add, chars, kernel


@dataclass
class Monoid:
    """A product of atoms in its canonical labeling.

    `chars` lists every character into {0} union roots of unity as one
    entry per element: a Fraction angle, or None where the value is 0.
    """

    name: str
    table: list
    chars: list
    kernel_size: int

    @property
    def size(self):
        return len(self.table)

    @property
    def is_group(self):
        return self.kernel_size == self.size

    def unitary_chars(self):
        return [c for c in self.chars if None not in c]


def make_monoid(name):
    atoms = [_atom(tok) for tok in name.split("x")]
    radices = [len(a[0]) for a in atoms]

    def digits(index):
        out = []
        for r in reversed(radices):
            out.append(index % r)
            index //= r
        return out[::-1]

    def index(digs):
        value = 0
        for r, d in zip(radices, digs):
            value = value * r + d
        return value

    size = math.prod(radices)
    table = [[index([a[1](x, y) for a, x, y in zip(atoms, digits(i), digits(j))])
              for j in range(size)] for i in range(size)]

    chars = [()]
    for atom_chars in (a[2] for a in atoms):
        chars = [c + (ac,) for c in chars for ac in atom_chars]
    combined = []
    for parts in chars:
        values = []
        for i in range(size):
            angles = [part[d] for part, d in zip(parts, digits(i))]
            values.append(None if None in angles else sum(angles, Fraction(0)) % 1)
        combined.append(tuple(values))
    kernel = math.prod(a[3] for a in atoms)
    return Monoid(name, table, combined, kernel)


# ------------------------------------------------------------ wire format

def _matrix_json(mat):
    mat = np.asarray(mat, dtype=np.complex128)
    return {"rows": mat.shape[0], "cols": mat.shape[1],
            "re": [float(x) for x in mat.real.ravel()],
            "im": [float(x) for x in mat.imag.ravel()]}


def _finite_json(table, neutral, matrices):
    return {"semigroup": {"type": "cayley", "size": len(table),
                          "neutral": neutral, "table": table},
            "dim": matrices[0].shape[0],
            "matrices": {"per": "element",
                         "list": [_matrix_json(a) for a in matrices]}}


def _free_json(generators):
    return {"semigroup": {"type": "free_commutative", "rank": len(generators)},
            "dim": generators[0].shape[0],
            "matrices": {"per": "generator",
                         "list": [_matrix_json(a) for a in generators]}}


# ------------------------------------------------------------------ cases

@dataclass
class Case:
    """One generated input with everything needed to check its report.

    `perm[c]` is the label of canonical element c in the input (finite
    monoids only). `truth` holds the fingerprint fields the generator
    knows; `record_key` names the recorded seed-commit fingerprint that
    supplies the rest, or is None when the truth is complete.
    """

    name: str
    command: str              # "analyze" or "spectrum"
    text: str                 # the input file, serialized
    truth: dict
    perm: list = None
    record_key: str = None


def _char_key(angles):
    return tuple(f"{a.numerator}/{a.denominator}" for a in angles)


def _multiset(keys):
    counts = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    return sorted([list(key), dim] for key, dim in counts.items())


def _random_unitary(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _similarity(rng, n):
    """A random similarity with condition number below (1.3/0.77)^2 < 3."""
    q = _random_unitary(rng, n) @ np.diag(rng.uniform(0.77, 1.3, size=n)) \
        @ _random_unitary(rng, n)
    return q, np.linalg.inv(q)


def _relabel(rng, monoid):
    """A random relabeling: canonical element c becomes perm[c]."""
    perm = [int(x) for x in rng.permutation(monoid.size)]
    inv = [0] * monoid.size
    for c, p in enumerate(perm):
        inv[p] = c
    table = [[perm[monoid.table[inv[i]][inv[j]]] for j in range(monoid.size)]
             for i in range(monoid.size)]
    return perm, inv, table


def regular_case(rng, monoid_name, command):
    """The regular representation (left translations) of a relabeled monoid."""
    monoid = make_monoid(monoid_name)
    perm, _, table = _relabel(rng, monoid)
    m = monoid.size
    mats = []
    for s in range(m):
        a = np.zeros((m, m))
        for t in range(m):
            a[table[s][t], t] = 1.0
        mats.append(a)
    truth = {"count": monoid.kernel_size}
    if monoid.is_group:
        truth["characters"] = _multiset(_char_key(c) for c in monoid.unitary_chars())
        if command == "analyze":
            truth["fix_dim"] = 1
    return Case(name=f"reg:{monoid_name}", command=command,
                text=json.dumps(_finite_json(table, perm[0], mats)),
                truth=truth, perm=perm, record_key=f"reg:{monoid_name}:{command}")


def direct_sum_case(rng, monoid_name, mults, zeros):
    """A direct sum of one-dimensional representations with values in
    {0} union roots of unity, conjugated by a well-conditioned similarity:
    distinct unitary characters with the multiplicities `mults`, plus
    `zeros` characters that vanish somewhere. The pattern is fixed by the
    case; the seed draws the characters and the similarity.

    Every summand acts diagonalizably, so each unitary summand is a pole
    and the vanishing summands make up the stable part."""
    monoid = make_monoid(monoid_name)
    perm, inv, table = _relabel(rng, monoid)
    unitary_pool = monoid.unitary_chars()
    vanishing_pool = [c for c in monoid.chars if None in c]
    chosen = rng.choice(len(unitary_pool), size=len(mults), replace=False)
    unitary = [unitary_pool[int(i)] for i, mult in zip(chosen, mults) for _ in range(mult)]
    picks = unitary + [vanishing_pool[int(i)]
                       for i in rng.integers(0, len(vanishing_pool), size=zeros)]
    dim = len(picks)
    q, q_inv = _similarity(rng, dim)
    mats = []
    for s in range(monoid.size):
        c = inv[s]
        diag = [0.0 if ch[c] is None else np.exp(2j * np.pi * float(ch[c]))
                for ch in picks]
        mats.append(q @ np.diag(diag) @ q_inv)
    positive = all(np.all(a.real >= -1e-8) and np.all(np.abs(a.imag) <= 1e-8)
                   for a in mats)
    trivial = tuple(Fraction(0) for _ in range(monoid.size))
    truth = {
        "count": len(mults),
        "characters": _multiset(_char_key(c) for c in unitary),
        "fix_dim": sum(1 for c in unitary if c == trivial),
        "ume": True,
        "poles": ["pole"] * len(mults),
        "reversible_dim": len(unitary),
        "stable_dim": zeros,
        "stability": "not_stable" if unitary else "stable",
        "quasi_compact": "quasi_compact",
        "nisa_agree": True if positive else None,
    }
    pattern = "+".join(map(str, mults)) + f"+{zeros}z"
    return Case(name=f"sum:{monoid_name}:{pattern}", command="analyze",
                text=json.dumps(_finite_json(table, perm[0], mats)),
                truth=truth, perm=perm)


def gen_value_key(z):
    """Rounded text of one generator value; shared with the fingerprint."""
    return f"{round(z.real, 6) + 0.0:.6f}{round(z.imag, 6) + 0.0:+.6f}i"


def _distinct_tuples(rng, k, count):
    """`count` distinct k-tuples of roots of unity of order at most 8."""
    tuples, keys = [], set()
    while len(tuples) < count:
        angles = [Fraction(int(rng.integers(0, order)), order)
                  for order in rng.choice(PERIPHERAL_ORDERS, size=k)]
        tup = tuple(np.exp(2j * np.pi * float(a)) for a in angles)
        key = tuple(gen_value_key(z) for z in tup)
        if key not in keys:
            keys.add(key)
            tuples.append(tup)
    return tuples


def planted_case(rng, n, k, mults, command):
    """N^k with a planted peripheral spectrum: distinct tuples of roots of
    unity with the multiplicities `mults`, then contractions
    (|value| <= 0.8) in cells of sizes 1, 2, 3, 1, 2, 3, ...; every other
    cell of size 2 or 3 is a Jordan cell alpha I + nu J. The structure is
    fixed by the case; the seed draws the values and a well-conditioned
    similarity."""
    tuples = _distinct_tuples(rng, k, len(mults))
    planted = [tup for tup, mult in zip(tuples, mults) for _ in range(mult)]
    peripheral = len(planted)
    diag = np.zeros((k, n), dtype=np.complex128)
    for pos, tup in enumerate(planted):
        diag[:, pos] = tup
    mats = [np.diag(d) for d in diag]
    pos, cell, jordan = peripheral, 1, False
    while pos < n:
        size = min(cell, n - pos)
        if size > 1:
            jordan = not jordan
        for j in range(k):
            if size > 1 and jordan:
                alpha = rng.uniform(0.05, 0.8) * np.exp(2j * np.pi * rng.random())
                block = alpha * np.eye(size) + rng.uniform(0.1, 0.4) * np.eye(size, k=1)
            else:
                block = np.diag(rng.uniform(0.05, 0.8, size=size)
                                * np.exp(2j * np.pi * rng.random(size)))
            mats[j][pos:pos + size, pos:pos + size] = block
        pos += size
        cell = cell % 3 + 1
    q, q_inv = _similarity(rng, n)
    generators = [q @ a @ q_inv for a in mats]
    keys = [tuple(gen_value_key(z) for z in tup) for tup in planted]
    truth = {"count": len(mults), "characters": _multiset(keys)}
    if command == "analyze":
        truth.update({
            "fix_dim": sum(1 for tup in planted if all(abs(z - 1) < 1e-12 for z in tup)),
            "ume": True,
            "poles": ["pole"] * len(mults),
            "reversible_dim": peripheral,
            "stable_dim": n - peripheral,
            "stability": "not_stable" if peripheral else "stable",
            "quasi_compact": "quasi_compact",
            "nisa_agree": None,
        })
    return Case(name=f"planted:n{n}:k{k}:{'+'.join(map(str, mults)) or 'stable'}",
                command=command, text=json.dumps(_free_json(generators)),
                truth=truth)


def _stochastic_row(rng, n, style, unit):
    if style.startswith("shift"):
        row = np.zeros(n)
        row[unit * int(style[5:] or 1) % n] = 1.0
        return row
    weights = rng.uniform(0.0, 1.0, size=n)
    if style == "sparse":
        support = rng.integers(0, 2, size=n)
        support[int(rng.integers(0, n))] = 1
        weights = rng.uniform(0.1, 1.0, size=n) * support
    return weights / weights.sum()


def circulant_case(rng, n, styles):
    """Row-stochastic circulants, one per style: a cyclic shift by a random
    unit u of Z_n ("shift") or by a fixed multiple m u ("shift<m>"),
    a random row on a random support ("sparse") or on all of Z_n ("dense").
    All circulants share the Fourier eigenbasis, so the joint spectrum is
    exact: generator g takes sum_s row_g[s] w^(j s) on mode j. A row with
    a modulus within 1e-6 of 1 that is not 1 to rounding is drawn again,
    since its unitary spectrum would be decided by tolerance."""
    omega = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    unit = int(rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1]))
    rows, modes = [], []
    for style in styles:
        while True:
            row = _stochastic_row(rng, n, style, unit)
            values = omega @ row
            moduli = np.abs(values)
            if not np.any((moduli > 1 - 1e-6) & (np.abs(moduli - 1) > 1e-12)):
                break
        rows.append(row)
        modes.append(values)
    generators = []
    for row in rows:
        mat = np.zeros((n, n))
        for shift in range(n):
            mat[np.arange(n), (np.arange(n) + shift) % n] += row[shift]
        generators.append(mat)
    k = len(styles)
    joint = [tuple(modes[g][j] for g in range(k)) for j in range(n)]
    peripheral = [tup for tup in joint if all(abs(abs(z) - 1) < 1e-9 for z in tup)]
    keys = [tuple(gen_value_key(z / abs(z)) for z in tup) for tup in peripheral]
    ones = tuple(gen_value_key(1 + 0j) for _ in range(k))
    truth = {
        "count": len(set(keys)),
        "characters": _multiset(keys),
        "fix_dim": sum(1 for key in keys if key == ones),
        "ume": True,
        "poles": ["pole"] * len(set(keys)),
        "reversible_dim": len(keys),
        "stable_dim": n - len(keys),
        "stability": "not_stable",
        "quasi_compact": "quasi_compact",
        "nisa_agree": True,
    }
    return Case(name=f"circulant:n{n}:{'+'.join(styles)}", command="analyze",
                text=json.dumps(_free_json(generators)), truth=truth)


# -------------------------------------------------------------- workloads

# Small decks give each case more repetitions per run, hence a steadier
# median time; each monoid type keeps a small and a large member. The
# median over a deck's cases jumps when a case crosses it, so each deck
# has cases of similar cost next to its median (L8 and L3xZ2 here; planted
# n=16 and n=12 cases in free_analyze).
FINITE_SMALL_MONOIDS = [
    "Z2", "Z4", "Z6", "Z8",
    "Z2xZ2", "Z2xZ4",
    "L2xZ2", "L2xZ4",
    "T3", "T7",
    "L4", "L8",
    "L3xZ2",
]
FINITE_SMALL_SUMS = [  # (monoid, multiplicities of unitary summands, vanishing summands)
    ("Z4", (2, 1, 1), 0), ("Z2xZ2", (2, 2), 0), ("L2xZ3", (2, 1), 2),
    ("T3", (2,), 2), ("L2xZ4", (1, 1, 1), 3),
]

FREE_ANALYZE_PLANTED = [  # (n, k, multiplicities of the peripheral tuples)
    (8, 1, (1,)), (8, 2, (2, 1)), (8, 3, (1, 1, 1)),
    (12, 2, ()),
    (16, 1, (2, 1)), (16, 2, (1, 1, 1)), (16, 3, (1,)),
    (24, 1, (1, 1)), (24, 2, (2,)), (24, 3, (1, 1, 1)),
    (12, 3, (1, 1)), (16, 2, (2,)),
]
FREE_ANALYZE_CIRCULANTS = [(8, ("shift", "sparse")), (12, ("shift", "shift5")),
                           (24, ("sparse", "dense"))]

LARGE_SPECTRUM_MONOIDS = ["Z24", "Z32", "L2xZ12", "L2xZ16"]
# Z24 and both planted cases cost about the same, so the median of the six
# op times averages two of them instead of following one
LARGE_SPECTRUM_PLANTED = [(64, 1, (1, 1, 1)), (64, 2, (2, 1, 1))]


def _finite_small(rng):
    cases = [regular_case(rng, name, "analyze") for name in FINITE_SMALL_MONOIDS]
    cases += [direct_sum_case(rng, name, mults, zeros)
              for name, mults, zeros in FINITE_SMALL_SUMS]
    return cases


def _free_analyze(rng):
    cases = [planted_case(rng, n, k, mults, "analyze")
             for n, k, mults in FREE_ANALYZE_PLANTED]
    cases += [circulant_case(rng, n, styles) for n, styles in FREE_ANALYZE_CIRCULANTS]
    return cases


def _large_spectrum(rng):
    cases = [regular_case(rng, name, "spectrum") for name in LARGE_SPECTRUM_MONOIDS]
    cases += [planted_case(rng, n, k, mults, "spectrum")
              for n, k, mults in LARGE_SPECTRUM_PLANTED]
    return cases


WORKLOADS = {
    "finite_small": _finite_small,
    "free_analyze": _free_analyze,
    "large_spectrum": _large_spectrum,
}


def make_deck(workload, seed):
    """The cases of the deck that a run with the given seed measures."""
    rng = np.random.default_rng(seed)
    return WORKLOADS[workload](rng)
