import itertools

import numpy as np
import pytest

import ergospec as es
from ergospec.errors import (
    BadNeutral,
    NotAssociative,
    NotCommutative,
)
from ergospec import semigroups
from ergospec.serialize import load_representation

import derived
from conftest import (
    FIXTURES,
    chain_monoid,
    cyclic_monoid,
    free,
    monoid_pool,
    product_monoid,
    relabeled,
    truncated_monoid,
)


def test_validate_klein_four(klein_monoid):
    assert klein_monoid.size == 4
    assert klein_monoid.neutral == 0
    assert klein_monoid.add(1, 2) == 3


def test_validate_trivial_monoid():
    s = es.validate_monoid([[0]], 0)
    assert s.size == 1


def test_not_commutative_witness():
    table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]  # table[1][2]=0 != table[2][1]=1
    with pytest.raises(NotCommutative) as err:
        es.validate_monoid(table, 0)
    assert (err.value.i, err.value.j) == (1, 2)


def test_not_associative_witness():
    # commutative and unital but (1+1)+2 != 1+(1+2)
    table = [[0, 1, 2], [1, 0, 0], [2, 0, 0]]
    with pytest.raises(NotAssociative):
        es.validate_monoid(table, 0)


def test_bad_neutral():
    table = [[0, 1], [1, 1]]
    with pytest.raises(BadNeutral):
        es.validate_monoid(table, 1)


def test_table_entry_out_of_range():
    with pytest.raises(ValueError):
        es.validate_monoid([[0, 1], [1, 2]], 0)


def test_leq_free_monoid():
    n2 = free(2)
    assert derived.leq((1, 0), (2, 3), n2)
    assert not derived.leq((1, 0), (0, 3), n2)


def test_leq_klein_is_total(klein_monoid):
    # oracle: scan all r over the table
    for s in range(4):
        for t in range(4):
            witness = any(klein_monoid.add(s, r) == t for r in range(4))
            assert witness
            assert derived.leq(s, t, klein_monoid)


def test_idempotents(klein_monoid, semilattice_monoid, threshold_monoid):
    assert es.idempotents(klein_monoid) == [0]
    assert es.idempotents(semilattice_monoid) == [0, 1]
    assert es.idempotents(threshold_monoid) == [0, 2]


def test_kernel_group_klein(klein_monoid):
    k = es.kernel_group(klein_monoid)
    assert k.carrier == (0, 1, 2, 3)
    assert k.identity == 0
    # the group law on the table: each element is its own and only inverse
    for x in k.carrier:
        assert [y for y in k.carrier if klein_monoid.add(x, y) == k.identity] == [x]


def test_kernel_group_semilattice(semilattice_monoid):
    k = es.kernel_group(semilattice_monoid)
    assert k.carrier == (1,)
    assert k.identity == 1


def test_kernel_group_threshold(threshold_monoid):
    k = es.kernel_group(threshold_monoid)
    assert k.carrier == (2,)
    assert k.identity == 2


def test_directedness_on_pool():
    # leq(s, s + t) always holds
    for monoid in monoid_pool():
        for s in monoid.elements():
            for t in monoid.elements():
                assert derived.leq(s, monoid.add(s, t), monoid)


def test_kernel_map_is_homomorphism_onto():
    for monoid in monoid_pool():
        k = es.kernel_group(monoid)
        e = k.identity
        image = {monoid.add(s, e) for s in monoid.elements()}
        assert image == set(k.carrier)
        for s in monoid.elements():
            for t in monoid.elements():
                lhs = monoid.add(monoid.add(s, t), e)
                rhs = monoid.add(monoid.add(s, e), monoid.add(t, e))
                assert lhs == rhs


def test_idempotents_closed_and_kernel_identity_maximal():
    for monoid in monoid_pool():
        idem = es.idempotents(monoid)
        for x, y in itertools.product(idem, idem):
            assert monoid.add(x, y) in idem
        e = es.kernel_group(monoid).identity
        for x in idem:
            assert derived.leq(x, e, monoid)


def test_free_monoid_requires_positive_rank():
    with pytest.raises(ValueError):
        free(0)


def _closure(monoid, gens):
    """The submonoid generated by gens, by graph search over the table."""
    seen, frontier = {monoid.neutral}, [monoid.neutral]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = monoid.add(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def _generator_cases():
    for name in ("klein_four", "semilattice", "threshold"):
        semigroup = load_representation(str(FIXTURES / f"{name}.json")).semigroup
        yield name, semigroup
    atoms = [cyclic_monoid(5), cyclic_monoid(6), chain_monoid(3), truncated_monoid(4)]
    monoids = atoms + [product_monoid(a, b) for a, b in itertools.combinations(atoms, 2)]
    rng = np.random.default_rng(17)
    for index, monoid in enumerate(monoids):
        for copy in range(3):
            yield f"monoid {index} copy {copy}", relabeled(monoid, rng)


def test_generators_generate_the_monoid():
    for name, monoid in _generator_cases():
        gens = monoid.generators
        assert gens and len(set(gens)) == len(gens), name
        assert _closure(monoid, gens) == set(monoid.elements()), name
        # greedy: no generator lies in the submonoid of the earlier ones
        for i, g in enumerate(gens):
            assert g not in _closure(monoid, gens[:i]), name


@pytest.mark.parametrize("factors, count", [
    ((cyclic_monoid(32),), 1),
    ((cyclic_monoid(16), cyclic_monoid(4)), 2),
    ((truncated_monoid(7), cyclic_monoid(4)), 2),
], ids=["Z32", "Z16xZ4", "T7xZ4"])
def test_generator_count_does_not_depend_on_the_labels(factors, count):
    monoid = factors[0] if len(factors) == 1 else product_monoid(*factors)
    assert len(monoid.generators) == count
    rng = np.random.default_rng(count)
    for copy in range(20):
        assert len(relabeled(monoid, rng).generators) == count, copy


def test_generators_of_small_monoids():
    assert cyclic_monoid(7).generators == (1,)
    assert es.validate_monoid([[0]], 0).generators == (0,)
    assert free(3).generators == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _first_non_associative(table):
    """The first (i, j, k) in row-major order with (i+j)+k != i+(j+k)."""
    arr = np.asarray(table)
    diff = arr[arr] != arr[:, arr]
    return tuple(int(x) for x in np.argwhere(diff)[0]) if diff.any() else None


@pytest.mark.parametrize("block", [1, 72, 108, 2**22])
def test_associativity_witness_is_the_first_in_row_major_order(block, monkeypatch):
    # row blocks of 1, 2 and 3 rows and of the whole table; each table is
    # L6 (max) with one symmetric pair of entries changed
    monkeypatch.setattr(semigroups, "_ASSOCIATIVITY_BLOCK", block)
    rng = np.random.default_rng(block)
    m = 6
    rows = set()
    for _ in range(40):
        table = np.maximum.outer(np.arange(m), np.arange(m))
        a, b = (int(x) for x in rng.integers(1, m, 2))
        table[a, b] = table[b, a] = int(rng.integers(0, m))
        expected = _first_non_associative(table)
        if expected is None:
            es.validate_monoid(table.tolist(), 0)
            continue
        with pytest.raises(NotAssociative) as err:
            es.validate_monoid(table.tolist(), 0)
        assert (err.value.i, err.value.j, err.value.k) == expected
        rows.add(expected[0])
    assert max(rows) >= 3
