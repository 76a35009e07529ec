import itertools
import random

import numpy as np
import pytest

from cliffharm.elements import (
    CliffordElement,
    DegreeMismatchError,
    GuardError,
    MAX_TABLE_DEGREE,
    TripleElement,
    center,
    class_key,
    class_index,
    class_keys,
    conjugacy_classes,
    conjugate,
    conjugation_sign,
    element,
    element_index,
    embed,
    enumerate_group,
    format_element,
    identity,
    inverse,
    mask_of,
    mult_table,
    multiply,
    parse_element,
    triple,
    triple_action,
    triple_identity,
    triple_multiply,
    xi,
)

from oracles import enumerated_conjugacy_classes, triple_inverse


def test_generator_relations():
    # gamma_a^2 = 1 and gamma_a gamma_b = -gamma_b gamma_a for a != b
    n = 5
    for a in range(1, n + 1):
        ga = element(n, 1, (a,))
        assert multiply(ga, ga) == identity(n)
        for b in range(1, a):
            gb = element(n, 1, (b,))
            assert multiply(ga, gb) == multiply(multiply(gb, ga), element(n, -1))


def test_gamma_subset_is_ordered_product_of_generators():
    n = 4
    for subset in itertools.chain.from_iterable(
        itertools.combinations(range(1, n + 1), k) for k in range(n + 1)
    ):
        prod = identity(n)
        for a in subset:
            prod = multiply(prod, element(n, 1, (a,)))
        assert prod == element(n, 1, subset)


def test_group_axioms_n3():
    n = 3
    g = list(enumerate_group(n))
    assert len(g) == 1 << (n + 1)
    assert len(set(g)) == len(g)
    for x in g:
        assert multiply(x, inverse(x)) == identity(n)
        assert multiply(inverse(x), x) == identity(n)
    rng = random.Random(7)
    for _ in range(300):
        x, y, z = rng.choice(g), rng.choice(g), rng.choice(g)
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_xi_agrees_with_definition():
    for am in range(16):
        for bm in range(16):
            a = [i + 1 for i in range(4) if am >> i & 1]
            b = [i + 1 for i in range(4) if bm >> i & 1]
            count = sum(1 for x in a for y in b if x > y)
            assert xi(a, b) == count


def test_conjugation_sign_closed_form():
    n = 4
    for am in range(1 << n):
        for cm in range(1 << n):
            x = CliffordElement(n, 1, am)
            c = CliffordElement(n, 1, cm)
            got = conjugate(x, c)
            assert got.mask == am
            assert got.sign == conjugation_sign(am, cm)


def test_mult_table_matches_multiply():
    # multiply is the table's oracle, on every pair for n <= 6
    for n in range(0, 7):
        elems = enumerate_group(n)
        tab, inv = mult_table(n)
        assert tab.shape == (len(elems), len(elems)) and tab.dtype == np.int64
        assert tab.tolist() == [
            [element_index(multiply(x, y)) for y in elems] for x in elems
        ]
        assert inv.tolist() == [element_index(inverse(x)) for x in elems]


def test_mult_table_is_cached_and_read_only():
    tab, inv = mult_table(3)
    assert mult_table(3)[0] is tab
    with pytest.raises(ValueError):
        tab[0, 0] = 1
    with pytest.raises(ValueError):
        inv[0] = 1


def test_mult_table_guard():
    for n in (-1, MAX_TABLE_DEGREE + 1):
        with pytest.raises(GuardError):
            mult_table(n)


def test_center():
    assert {z.mask for z in center(2)} == {0}
    assert len(center(2)) == 2
    assert {z.mask for z in center(3)} == {0, 0b111}
    assert len(center(3)) == 4
    # closed form, so it reaches past the enumeration guard
    assert {(z.sign, z.mask) for z in center(13)} == {
        (1, 0), (-1, 0), (1, (1 << 13) - 1), (-1, (1 << 13) - 1)
    }
    assert {(z.sign, z.mask) for z in center(16)} == {(1, 0), (-1, 0)}
    with pytest.raises(GuardError):
        center(17)


def test_class_counts_and_sizes():
    for n in range(1, 6):
        classes = conjugacy_classes(n)
        expect = (1 << n) + (1 if n % 2 == 0 else 2)
        assert len(classes) == expect
        assert sum(c.size for c in classes) == 1 << (n + 1)
        # class equation: non-central classes are {x, -x}
        for c in classes:
            assert c.size in (1, 2)


def test_classes_match_enumeration_oracle():
    # the lemma-built partition is the O(|G|^2) enumeration, order included
    for n in range(0, 9):
        assert conjugacy_classes(n) == enumerated_conjugacy_classes(n)


def test_class_key_matches_enumeration_oracle():
    for n in range(0, 7):
        for cls in enumerated_conjugacy_classes(n):
            rep = cls.representative
            for x in cls.members:
                assert class_key(x) == (rep.sign, rep.mask)


def test_class_partition_guard():
    # the classes are closed form, so they follow MAX_DEGREE = 16
    with pytest.raises(GuardError, match=r"degree 17 outside supported range \[0, 16\]"):
        conjugacy_classes(17)
    with pytest.raises(GuardError):
        class_keys(17)
    assert len(conjugacy_classes(13)) == (1 << 13) + 2


def test_class_keys_and_index():
    # the array keys list the classes in conjugacy_classes order, and
    # class_index finds every element's class, for ints and arrays alike
    for n in range(0, 7):
        signs, masks = class_keys(n)
        classes = conjugacy_classes(n)
        assert [(c.representative.sign, c.representative.mask) for c in classes] == list(
            zip(signs.tolist(), masks.tolist())
        )
        for k, cls in enumerate(classes):
            for x in cls.members:
                assert class_index(n, x.sign, x.mask) == k
        assert list(class_index(n, signs, masks)) == list(range(len(classes)))
        for arr in (signs, masks):
            with pytest.raises(ValueError):
                arr[0] = 1


def test_embed_is_homomorphism():
    n, m = 4, 2
    for x in enumerate_group(m):
        for y in enumerate_group(m):
            assert embed(multiply(x, y), n) == multiply(embed(x, n), embed(y, n))


def test_element_index_matches_enumeration():
    for n in (1, 3):
        for i, x in enumerate(enumerate_group(n)):
            assert element_index(x) == i


def test_parse_format_round_trip():
    n = 3
    for x in enumerate_group(n):
        assert parse_element(format_element(x), n) == x
    assert parse_element("+g{}", 2) == identity(2)
    assert parse_element("-g{1,3}", 3) == element(3, -1, (1, 3))
    assert format_element(element(2, -1, (2,))) == "-g{2}"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_element("g{1}", 2)
    with pytest.raises(ValueError):
        parse_element("+g{3}", 2)
    with pytest.raises(ValueError):
        parse_element("+g{0}", 3)
    with pytest.raises(ValueError):
        parse_element("++g{1}", 3)
    # an index list must be strictly ascending with no empty token: gamma_1
    # gamma_1 = 1 and gamma_2 gamma_1 = -gamma_1 gamma_2, so neither a
    # repeated nor a reordered list names the element it would collapse to
    for text in ("+g{1,2,}", "+g{,1}", "+g{,}", "+g{1,1}", "+g{2,1}", "+g{1 2}"):
        with pytest.raises(ValueError, match="index list|ascending"):
            parse_element(text, 3)
    assert parse_element(" -g{ 1 , 3 } ", 3) == element(3, -1, (1, 3))


def test_degree_guards():
    with pytest.raises(DegreeMismatchError):
        multiply(identity(2), identity(3))
    with pytest.raises(GuardError):
        element(99)
    with pytest.raises(ValueError):
        element(-1)


def test_mask_of():
    assert mask_of(()) == 0
    assert mask_of((1, 3)) == 0b101
    assert mask_of(frozenset({2})) == 0b10


def test_triple_group_axioms():
    n, m = 2, 1
    e = triple_identity(n, m)
    rng = random.Random(3)
    gs = list(enumerate_group(n))
    hs = list(enumerate_group(m))
    sample = [
        triple(rng.choice(gs), rng.choice(gs), rng.choice(hs), m)
        for _ in range(40)
    ]
    for t in sample:
        assert triple_multiply(t, triple_inverse(t)) == e
        assert triple_multiply(e, t) == t
    for a, b in zip(sample, sample[1:]):
        c = sample[0]
        assert triple_multiply(triple_multiply(a, b), c) == triple_multiply(
            a, triple_multiply(b, c)
        )


def test_triple_action_is_an_action():
    # (g1, g2, h).(g3, g4) = (g1 g3 g2^-1, g2 g4 h^-1) composes correctly
    n, m = 2, 2
    rng = random.Random(11)
    gs = list(enumerate_group(n))
    for _ in range(60):
        s = triple(rng.choice(gs), rng.choice(gs), rng.choice(gs), m)
        t = triple(rng.choice(gs), rng.choice(gs), rng.choice(gs), m)
        p = (rng.choice(gs), rng.choice(gs))
        assert triple_action(triple_multiply(s, t), p) == triple_action(
            s, triple_action(t, p)
        )


def test_triple_element_validation():
    with pytest.raises(ValueError):
        # h touches index 2, outside the embedded CL(1)
        TripleElement(identity(2), identity(2), element(2, 1, (2,)), 1)
    with pytest.raises(DegreeMismatchError):
        TripleElement(identity(2), identity(3), identity(2), 2)
