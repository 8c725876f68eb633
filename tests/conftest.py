import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ergospec as es
from ergospec.semigroups import FreeCommutativeMonoid

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"
SCHEMAS = REPO / "schema" / "v1"

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def klein_table():
    return [[i ^ j for j in range(4)] for i in range(4)]


@pytest.fixture(scope="session")
def klein_monoid():
    return es.validate_monoid(klein_table(), 0)


@pytest.fixture(scope="session")
def klein_rep(klein_monoid):
    i2 = np.eye(2)
    p = np.array([[0.0, 1.0], [1.0, 0.0]])

    def blk(a, b):
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = a
        out[2:, 2:] = b
        return out

    rep = es.validate_representation(
        klein_monoid, [blk(i2, i2), blk(p, i2), blk(i2, p), blk(p, p)])
    return es.certify_boundedness(rep)


@pytest.fixture(scope="session")
def semilattice_monoid():
    return es.validate_monoid([[0, 1], [1, 1]], 0)


@pytest.fixture(scope="session")
def threshold_monoid():
    # {0, a, 2a} with a + a = a + 2a = 2a + 2a = 2a
    return es.validate_monoid([[0, 1, 2], [1, 2, 2], [2, 2, 2]], 0)


def cyclic_monoid(m):
    return es.validate_monoid([[(i + j) % m for j in range(m)] for i in range(m)], 0)


def chain_monoid(c):
    """L_c: the chain {0, ..., c-1} under max."""
    return es.validate_monoid([[max(i, j) for j in range(c)] for i in range(c)], 0)


def truncated_monoid(c):
    """T_c: truncated addition min(i + j, c) on {0, ..., c}."""
    return es.validate_monoid([[min(i + j, c) for j in range(c + 1)]
                               for i in range(c + 1)], 0)


def relabeled(monoid, rng):
    """The same monoid with its elements renamed by a random permutation."""
    return permuted(monoid, rng.permutation(monoid.size))


def permuted(monoid, perm):
    """The same monoid with element i renamed perm[i], the neutral one too."""
    table = [[0] * monoid.size for _ in range(monoid.size)]
    for i in monoid.elements():
        for j in monoid.elements():
            table[perm[i]][perm[j]] = int(perm[monoid.add(i, j)])
    return es.validate_monoid(table, int(perm[monoid.neutral]))


def product_monoid(a, b):
    """Cayley table of the direct product, indexed row-major."""
    size = a.size * b.size
    table = [[0] * size for _ in range(size)]
    for i1 in range(a.size):
        for j1 in range(b.size):
            for i2 in range(a.size):
                for j2 in range(b.size):
                    s = i1 * b.size + j1
                    t = i2 * b.size + j2
                    table[s][t] = a.add(i1, i2) * b.size + b.add(j1, j2)
    return es.validate_monoid(table, a.neutral * b.size + b.neutral)


def monoid_pool():
    """Small monoids of assorted structure (groups, semilattices, mixed)."""
    pool = [
        es.validate_monoid([[0]], 0),
        es.validate_monoid([[0, 1], [1, 1]], 0),
        es.validate_monoid([[0, 1, 2], [1, 2, 2], [2, 2, 2]], 0),
        es.validate_monoid(klein_table(), 0),
        cyclic_monoid(2),
        cyclic_monoid(3),
        cyclic_monoid(4),
        cyclic_monoid(5),
        cyclic_monoid(6),
    ]
    pool.append(product_monoid(pool[1], cyclic_monoid(2)))          # semilattice x Z2
    pool.append(product_monoid(cyclic_monoid(2), cyclic_monoid(3)))  # Z6 as a product
    return pool


def angles(chi):
    """A finite character's angles as Fractions in [0, 1), one per element:
    the reference form of its integer numerators over |K|."""
    return tuple(Fraction(p, chi.order) for p in chi.numerators)


def free(rank):
    return FreeCommutativeMonoid(rank)


def n1_rep(*matrices):
    rep = es.validate_representation(free(len(matrices)), list(matrices))
    return es.certify_boundedness(rep)


def load_fixture(name):
    with open(FIXTURES / f"{name}.json") as fh:
        return json.load(fh)


def count_analyses(monkeypatch):
    """The representation of each Analysis built while the patch holds."""
    init = es.Analysis.__init__
    reps = []

    def counted(self, rep, config=None):
        reps.append(rep)
        init(self, rep, config)

    monkeypatch.setattr(es.Analysis, "__init__", counted)
    return reps
