import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import ergospec as es
from ergospec.characters import UnitaryCharacter, _dual_numerators, _root
from ergospec.semigroups import FiniteCommutativeMonoid

import derived
from conftest import (
    angles,
    cyclic_monoid,
    free,
    monoid_pool,
    product_monoid,
    truncated_monoid,
)


def sign_rows(characters):
    return sorted(tuple(int(round(v.real)) for v in chi.values())
                  for chi in characters)


def element_order(monoid, group, g):
    """Order of g in the kernel group (smallest d >= 1 with d*g = identity)."""
    x, d = g, 1
    while x != group.identity:
        x, d = monoid.add(x, g), d + 1
        assert d <= monoid.size, "order computation did not terminate"
    return d


def brute_force_dual(monoid):
    """Oracle: every map S -> mu_L that is multiplicative with value 1 at 0,
    where L is the lcm of the element orders in the kernel group."""
    group = es.kernel_group(monoid)
    orders = [element_order(monoid, group, g) for g in group.carrier]
    lcm = 1
    for d in orders:
        lcm = lcm * d // np.gcd(lcm, d)
    roots = [Fraction(t, lcm) % 1 for t in range(lcm)]
    found = []
    for assignment in itertools.product(roots, repeat=monoid.size):
        if assignment[monoid.neutral] != 0:
            continue
        ok = all((assignment[s] + assignment[t]) % 1 == assignment[monoid.add(s, t)]
                 for s in monoid.elements() for t in monoid.elements())
        if ok:
            found.append(tuple(assignment))
    return sorted(found)


def test_klein_dual_matches_paper_table(klein_monoid):
    dual = es.enumerate_unitary_dual(klein_monoid)
    assert len(dual) == 4
    assert sign_rows(dual) == sorted([
        (1, 1, 1, 1),
        (1, -1, 1, -1),
        (1, 1, -1, -1),
        (1, -1, -1, 1),
    ])


def test_semilattice_dual_trivial_only(semilattice_monoid):
    dual = es.enumerate_unitary_dual(semilattice_monoid)
    assert len(dual) == 1
    assert all(v == 1 for v in dual[0].values())
    assert brute_force_dual(semilattice_monoid) == [angles(dual[0])]


def test_threshold_dual_trivial_only(threshold_monoid):
    dual = es.enumerate_unitary_dual(threshold_monoid)
    assert len(dual) == 1
    assert brute_force_dual(threshold_monoid) == [angles(dual[0])]


def test_dual_agrees_with_exhaustive_search_small_monoids():
    for monoid in monoid_pool():
        if monoid.size > 6:
            continue
        dual = es.enumerate_unitary_dual(monoid)
        assert sorted(angles(chi) for chi in dual) == brute_force_dual(monoid)


def reference_dual(monoid):
    """Reference: the cyclic-extension construction, adjoining an element of
    maximal order at each step, one dict of integer angle numerators over
    |K| per partial character. Each d-th root of an angle p / |K| is
    (p + t |K|) / (d |K|), and its numerator (p + t |K|) / d is checked to
    be an integer, so the arithmetic stays exact."""
    group = es.kernel_group(monoid)
    e, order = group.identity, len(group.carrier)
    subgroup, in_subgroup = [e], {e}
    chars = [{e: 0}]
    while len(subgroup) < order:
        outside = [g for g in group.carrier if g not in in_subgroup]
        g = max(outside, key=lambda x: element_order(monoid, group, x))
        d, power = 1, g
        while power not in in_subgroup:
            power = monoid.add(power, g)
            d += 1
        new_chars = []
        for partial in chars:
            for t in range(d):
                root, remainder = divmod(partial[power] + t * order, d)
                assert remainder == 0
                extended = dict(partial)
                jg = None
                for j in range(1, d):
                    jg = g if jg is None else monoid.add(jg, g)
                    for h in subgroup:
                        extended[monoid.add(h, jg)] = (partial[h] + j * root) % order
                new_chars.append(extended)
        chars = new_chars
        new_elements = []
        jg = None
        for j in range(1, d):
            jg = g if jg is None else monoid.add(jg, g)
            new_elements.extend(monoid.add(h, jg) for h in subgroup)
        subgroup.extend(new_elements)
        in_subgroup.update(new_elements)
    return sorted(tuple(table[monoid.add(s, e)] for s in monoid.elements())
                  for table in chars)


def test_dual_matches_the_fraction_reference():
    # same characters in the same order, exact angles included: the order in
    # which the generator tower adjoins elements does not change the table
    monoids = monoid_pool() + [cyclic_monoid(512), product_monoid(cyclic_monoid(4),
                                                                  cyclic_monoid(6)),
                               product_monoid(truncated_monoid(3), cyclic_monoid(4)),
                               product_monoid(cyclic_monoid(2), product_monoid(
                                   cyclic_monoid(4), cyclic_monoid(8)))]
    for monoid in monoids:
        reference = reference_dual(monoid)
        _, table = _dual_numerators(monoid)
        assert list(map(tuple, table.tolist())) == reference
        assert [chi.numerators for chi in es.enumerate_unitary_dual(monoid)] == reference


def test_dual_size_is_kernel_size():
    for monoid in monoid_pool():
        dual = es.enumerate_unitary_dual(monoid)
        assert len(dual) == len(es.kernel_group(monoid).carrier)


def test_dual_group_closure():
    for monoid in monoid_pool():
        dual = es.enumerate_unitary_dual(monoid)
        members = set(dual)
        keys = {angles(chi) for chi in dual}
        for chi, tau in itertools.product(dual, dual):
            product = derived.char_mul(chi, tau)
            # == and hash are canonical: the product is a member of the dual
            assert product in members
            assert angles(product) == tuple((a + b) % 1 for a, b in
                                            zip(angles(chi), angles(tau)))
        for chi in dual:
            conj = derived.char_conj(chi)
            assert conj in members and angles(conj) in keys
            assert angles(conj) == tuple(-a % 1 for a in angles(chi))
            assert derived.char_mul(chi, conj) == es.trivial_character(monoid)
            assert hash(derived.char_mul(chi, conj)) == hash(es.trivial_character(monoid))


def test_a_character_hashes_without_its_monoid(monkeypatch):
    # a finite monoid hashes its whole Cayley table, 1 ms at Z512
    def refuse(monoid):
        raise AssertionError("hashed the Cayley table")

    monkeypatch.setattr(FiniteCommutativeMonoid, "__hash__", refuse)
    for monoid in monoid_pool() + [cyclic_monoid(512)]:
        dual = es.enumerate_unitary_dual(monoid)
        hash(dual[-1])
        assert len(set(dual)) == len(dual)
    test_dual_group_closure()


def test_characters_are_one_on_idempotents():
    for monoid in monoid_pool():
        dual = es.enumerate_unitary_dual(monoid)
        for chi in dual:
            for e in es.idempotents(monoid):
                assert chi.numerators[e] == 0


def test_klein_chi_times_tau_is_det(klein_monoid):
    dual = es.enumerate_unitary_dual(klein_monoid)
    by_row = {tuple(int(round(v.real)) for v in chi.values()): chi for chi in dual}
    chi = by_row[(1, -1, 1, -1)]
    tau = by_row[(1, 1, -1, -1)]
    det = by_row[(1, -1, -1, 1)]
    assert derived.char_mul(chi, tau) == det


def test_conj_of_trivial_is_trivial(klein_monoid):
    one = es.trivial_character(klein_monoid)
    assert derived.char_conj(one) == one


def test_free_character_evaluation():
    n2 = free(2)
    chi = es.character_from_gen_values(n2, [1j, -1.0])
    assert chi((2, 1)) == pytest.approx(1.0)
    assert chi((0, 0)) == pytest.approx(1.0)


def test_free_character_rejects_non_unimodular():
    with pytest.raises(ValueError):
        es.character_from_gen_values(free(1), [0.5])


def test_char_distance_metric(klein_monoid):
    dual = es.enumerate_unitary_dual(klein_monoid)
    for chi, tau in itertools.combinations(dual, 2):
        assert es.char_distance(chi, tau) > 1.0
        assert es.char_distance(chi, chi) == 0.0
    n2 = free(2)
    a = es.character_from_gen_values(n2, [1.0, 1j])
    b = es.character_from_gen_values(n2, [1.0, np.exp(1j * (np.pi / 2 + 1e-9))])
    assert es.char_distance(a, b) == pytest.approx(1e-9, abs=1e-12)


def test_canonical_order_is_deterministic(klein_monoid):
    first = es.enumerate_unitary_dual(klein_monoid)
    second = es.enumerate_unitary_dual(klein_monoid)
    assert [angles(chi) for chi in first] == [angles(chi) for chi in second]
    assert angles(first[0]) == (Fraction(0),) * 4  # the trivial character sorts first


def test_exact_quarter_values():
    chi = UnitaryCharacter(free(1), gen_values=(1j,))
    assert chi((3,)) == -1j
    assert _root(2, 4) == -1.0 + 0.0j
    assert _root(3, 4) == -1.0j
    assert _root(6, 24) == 1j and _root(0, 7) == 1.0
    # elsewhere the value is the one exp gives at the Fraction's float
    for p, q in ((1, 3), (5, 12), (7, 512), (2, 6)):
        assert _root(p, q) == cmath.exp(2j * math.pi * float(Fraction(p, q)))
