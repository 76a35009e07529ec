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
    _pair_orbit_labels,
    class_index,
    class_keys,
    conjugate,
    conjugation_sign,
    element,
    element_index,
    embed_index,
    enumerate_group,
    format_element,
    identity,
    inverse,
    is_central,
    mask_of,
    mult_table,
    multiply,
    parse_element,
)

from oracles import (
    conjugation_pair_orbits,
    enumerated_conjugacy_classes,
    xi,
    xi_inverse,
    xi_multiply,
)


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
    # the xi-loop product is the oracle of the table and of multiply and
    # inverse, on every pair for n <= 6
    for n in range(0, 7):
        elems = enumerate_group(n)
        tab, inv = mult_table(n)
        assert tab.shape == (len(elems), len(elems)) and tab.dtype == np.int64
        want = [[element_index(xi_multiply(x, y)) for y in elems] for x in elems]
        assert tab.tolist() == want
        assert [[element_index(multiply(x, y)) for y in elems] for x in elems] == want
        want = [element_index(xi_inverse(x)) for x in elems]
        assert inv.tolist() == want
        assert [element_index(inverse(x)) for x in elems] == want


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


def test_class_counts_and_sizes():
    for n in range(1, 6):
        signs, masks = class_keys(n)
        expect = (1 << n) + (1 if n % 2 == 0 else 2)
        assert len(signs) == len(masks) == expect
        # class equation: central classes are {x}, the others {x, -x}
        sizes = np.where(is_central(masks, n), 1, 2)
        assert sizes.sum() == 1 << (n + 1)
        assert (sizes == 1).sum() == (2 if n % 2 == 0 else 4)


def test_classes_match_enumeration_oracle():
    # the lemma-built keys are the first members of the O(|G|^2)
    # enumeration's classes, order included, and a key is central exactly
    # when its class is a single element
    for n in range(0, 9):
        signs, masks = class_keys(n)
        partition = enumerated_conjugacy_classes(n)
        assert [(c[0].sign, c[0].mask) for c in partition] == list(
            zip(signs.tolist(), masks.tolist())
        )
        assert [len(c) for c in partition] == np.where(is_central(masks, n), 1, 2).tolist()


def test_class_key_matches_enumeration_oracle():
    # class_index finds the class of every member, and the class's key is
    # its first member's
    for n in range(0, 7):
        signs, masks = class_keys(n)
        for k, members in enumerate(enumerated_conjugacy_classes(n)):
            rep = members[0]
            assert (signs[k], masks[k]) == (rep.sign, rep.mask)
            for x in members:
                assert class_index(n, x.sign, x.mask) == k


def test_class_partition_guard():
    # the classes are closed form, so they follow MAX_DEGREE = 16
    with pytest.raises(GuardError, match=r"degree 17 outside supported range \[0, 16\]"):
        class_keys(17)
    assert len(class_keys(13)[0]) == (1 << 13) + 2


def test_class_keys_and_index():
    # class_index finds every element's class, for ints and arrays alike,
    # and the keys are read-only
    for n in range(0, 7):
        signs, masks = class_keys(n)
        for x in enumerate_group(n):
            k = class_index(n, x.sign, x.mask)
            central = is_central(x.mask, n)
            assert (signs[k], masks[k]) == ((x.sign if central else 1), x.mask)
        assert list(class_index(n, signs, masks)) == list(range(len(signs)))
        for arr in (signs, masks):
            with pytest.raises(ValueError):
                arr[0] = 1


def _label_classes(n, m):
    """The classes of _pair_orbit_labels(n, m): label -> its pair keys."""
    classes = {}
    for key, label in enumerate(_pair_orbit_labels(n, m).tolist()):
        classes.setdefault(label, set()).add(key)
    return classes


def test_pair_orbit_labels_match_conjugation_oracle():
    for n in range(0, 5):
        for m in (n, n - 1) if n else (0,):
            classes = _label_classes(n, m)
            assert all(label == min(keys) for label, keys in classes.items())
            assert set(map(frozenset, classes.values())) == conjugation_pair_orbits(n, m)


def test_pair_orbit_count_is_burnside():
    # orbits of CL(m) on pairs = (1/|H|) sum_h |C_G(h)|^2, with the
    # centralizer sizes read off the multiplication table
    counts = {}
    for n in range(0, 8):
        tab, _ = mult_table(n)
        for m in (n, n - 1) if n else (0,):
            h = embed_index(np.arange(2 << m), m, n)
            central = (tab[:, h] == tab[h, :].T).sum(axis=0)
            burnside, rest = divmod(int((central**2).sum()), 2 << m)
            labels = _pair_orbit_labels(n, m)
            counts[(n, m)] = int((labels == np.arange(len(labels))).sum())
            assert rest == 0 and counts[(n, m)] == burnside
    assert (counts[(2, 1)], counts[(4, 3)], counts[(6, 5)]) == (40, 352, 4480)


def test_embed_is_homomorphism():
    # embed_index carries the products of CL(m) to those of CL(n)
    n, m = 4, 2
    tab_m, _ = mult_table(m)
    tab_n, _ = mult_table(n)
    idx = np.arange(2 << m)
    emb = embed_index(idx, m, n)
    assert np.array_equal(emb[tab_m], tab_n[emb[:, None], emb])
    assert [embed_index(element_index(x), m, n) for x in enumerate_group(m)] == [
        element_index(CliffordElement(n, x.sign, x.mask)) for x in enumerate_group(m)
    ]


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
    with pytest.raises(DegreeMismatchError):
        conjugate(identity(2), identity(3))
    with pytest.raises(GuardError):
        element(99)
    with pytest.raises(ValueError):
        element(-1)


def test_mask_of():
    assert mask_of(()) == 0
    assert mask_of((1, 3)) == 0b101
    assert mask_of(frozenset({2})) == 0b10


def test_triple_element_validation():
    with pytest.raises(ValueError):
        # h touches index 2, outside the embedded CL(1)
        TripleElement(identity(2), identity(2), element(2, 1, (2,)), 1)
    with pytest.raises(DegreeMismatchError):
        TripleElement(identity(2), identity(3), identity(2), 2)
