import random

import numpy as np
import pytest

from cliffharm import characters
from cliffharm.exact import gr
from cliffharm.elements import (
    MAX_TABLE_DEGREE,
    CliffordElement,
    DegreeMismatchError,
    GuardError,
    class_keys,
    element,
)
from cliffharm.characters import (
    ClassFunction,
    IrrepLabel,
    NotACharacterError,
    char_re_im,
    character_value,
    chi,
    conjugate_label,
    decompose,
    format_label,
    irrep_character,
    irreps,
    parse_label,
    restrict_character,
    restricted_kronecker,
    rho,
    tensor_character,
)
from oracles import (
    character_table,
    enumerate_group,
    enumerated_conjugacy_classes,
    inner_product,
    orthogonality_decompose,
)


def test_irrep_census():
    for n in range(0, 7):
        labs = irreps(n)
        assert len(labs) == len(class_keys(n)[0])
        assert sum(lab.dim ** 2 for lab in labs) == 1 << (n + 1)
        assert len(set(labs)) == len(labs)


def test_irreps_degree_guard():
    # the same degree range as the elements, with the standard message
    for n in (-1, 17):
        with pytest.raises(GuardError, match=rf"degree {n} outside supported range \[0, 16\]"):
            irreps(n)
    assert len(irreps(16)) == (1 << 16) + 1


def test_spin_labels_are_the_tail_of_irreps():
    for n in range(11):
        assert characters.spin_labels(n) == irreps(n)[1 << n:]


def test_label_at_inverts_the_label_order():
    for n in range(7):
        assert [lab.index for lab in irreps(n)] == list(range(len(irreps(n))))
        assert tuple(characters.label_at(n, i) for i in range(len(irreps(n)))) == irreps(n)


def test_decompose_builds_no_label_table():
    # decompose names only its nonzero terms, so a one-term decomposition at
    # n = 15 makes no 2^15-label irreps(15)
    irreps.cache_clear()
    dec = decompose(restrict_character(irrep_character(chi(16, (1,))), 15))
    assert irreps.cache_info().currsize == 0
    assert dec.terms == ((chi(15, (1,)), 1),)


def test_decompose_degree_guard():
    # one past MAX_DEGREE = 16: the class function of degree 17 is refused
    with pytest.raises(GuardError, match=r"degree 17 outside supported range \[0, 16\]"):
        decompose(tensor_character(rho(17, "+"), rho(17, "+")))


def test_label_validation():
    with pytest.raises(ValueError):
        rho(3)          # odd degree needs a sign
    with pytest.raises(ValueError):
        rho(2, "+")     # even degree takes no sign
    with pytest.raises(ValueError):
        chi(2, (3,))    # subset outside X_2
    assert rho(0).dim == 1
    assert rho(2).dim == 2
    assert rho(5, "-").dim == 4
    assert chi(4, (1, 3)).dim == 1


def test_linear_character_values():
    n = 4
    for am in range(1 << n):
        lab = IrrepLabel(n, "chi", am)
        for g in enumerate_group(n):
            # chi_A kills the sign: chi_A(-gamma_B) = chi_A(gamma_B)
            expect = (-1) ** (am & g.mask).bit_count()
            assert character_value(lab, g) == gr(expect)


def test_spin_character_support():
    # the 2^{n/2}-dimensional character vanishes off the centre
    for n in (2, 4):
        lab = rho(n)
        d = 1 << (n // 2)
        for g in enumerate_group(n):
            v = character_value(lab, g)
            if g.mask == 0:
                assert v == gr(g.sign * d)
            else:
                assert v == gr(0)
    # odd degree: support is the (order-4) centre
    for n, sign in ((3, "+"), (5, "-")):
        lab = rho(n, sign)
        top = (1 << n) - 1
        for g in enumerate_group(n):
            v = character_value(lab, g)
            if g.mask not in (0, top):
                assert v == gr(0)
            else:
                assert v != gr(0)


def test_first_orthogonality():
    for n in range(0, 5):
        labs = irreps(n)
        for a in labs:
            fa = irrep_character(a)
            for b in labs:
                assert inner_product(fa, irrep_character(b)) == gr(int(a == b))


def test_character_table_columns():
    # column orthogonality weighted by class size, in exact int64 arithmetic:
    # sum_chi conj chi(c) chi(c') = delta_cc' |G|/|c|, split into the real
    # part re^T re + im^T im and the imaginary part re^T im - im^T re
    for n in (2, 3):
        labels, keys, sizes, re, im = character_table(n)
        order = 1 << (n + 1)
        assert not (order % sizes).any()
        assert np.array_equal(re.T @ re + im.T @ im, np.diag(order // sizes))
        assert not (re.T @ im - im.T @ re).any()


def test_embedded_character_table():
    # irreps of CL(n) at the class representatives of CL(m), m = n and n - 1
    for n in (1, 2, 3):
        for m in (n, n - 1):
            labels, keys, sizes, re, im = character_table(n, m)
            assert labels == irreps(n)
            partition = enumerated_conjugacy_classes(m)
            assert keys == tuple((c[0].sign, c[0].mask) for c in partition)
            assert list(sizes) == [len(c) for c in partition]
            for r, lab in enumerate(labels):
                for c, (sign, mask) in enumerate(keys):
                    v = character_value(lab, CliffordElement(n, sign, mask))
                    assert v == gr(int(re[r, c]), int(im[r, c]))
            for arr in (sizes, re, im):
                with pytest.raises(ValueError):
                    arr[0] = 7
    with pytest.raises(DegreeMismatchError):
        character_table(1, 2)


def test_table_matches_character_value():
    for n in (1, 2, 3):
        labels, keys, sizes, re, im = character_table(n)
        for r, lab in enumerate(labels):
            for c, (sign, mask) in enumerate(keys):
                v = character_value(lab, element(n, sign,
                                                 [i + 1 for i in range(n) if mask >> i & 1]))
                assert v == gr(int(re[r, c]), int(im[r, c]))


def test_tensor_of_linears():
    n = 3
    for am in range(1 << n):
        for bm in range(1 << n):
            f = tensor_character(IrrepLabel(n, "chi", am), IrrepLabel(n, "chi", bm))
            dec = decompose(f)
            assert dec.terms == ((IrrepLabel(n, "chi", am ^ bm), 1),)


def test_tensor_linear_with_spin():
    assert decompose(tensor_character(chi(4, (1, 2)), rho(4))).terms == ((rho(4), 1),)
    # odd degree: the sign flips exactly when |A| is odd
    assert decompose(tensor_character(chi(3, (1,)), rho(3, "+"))).terms == (
        (rho(3, "-"), 1),
    )
    assert decompose(tensor_character(chi(3, (1, 2)), rho(3, "+"))).terms == (
        (rho(3, "+"), 1),
    )


def test_decompose_rejects_non_characters():
    f = irrep_character(rho(2))
    # -f: a negative multiplicity; i f: an imaginary one
    with pytest.raises(NotACharacterError, match=r"<f, rho> = -1"):
        decompose(ClassFunction(f.degree, -f.re, -f.im))
    with pytest.raises(NotACharacterError, match=r"<f, rho> = i"):
        decompose(ClassFunction(f.degree, -f.im, f.re))
    # a sum that 2^(n+1) does not divide, on integer values
    with pytest.raises(NotACharacterError, match=r"<f, chi:\{\}> = 1/8"):
        decompose(ClassFunction(2, [1, 0, 0, 0, 0], [0] * 5))


def test_restriction_of_irreps():
    # single-irrep branching down one degree
    assert decompose(restrict_character(irrep_character(chi(3, (1, 3))), 2)).terms == (
        (chi(2, (1,)), 1),
    )
    dec = decompose(restrict_character(irrep_character(rho(4)), 3))
    assert dec.terms == ((rho(3, "+"), 1), (rho(3, "-"), 1))
    for s in ("+", "-"):
        dec = decompose(restrict_character(irrep_character(rho(3, s)), 2))
        assert dec.terms == ((rho(2), 1),)


def test_restricted_kronecker_dimension():
    dec = restricted_kronecker(rho(4), rho(4), 3)
    assert sum(mult * lab.dim for lab, mult in dec.terms) == 16
    assert sorted(m for _, m in dec.terms) == [2] * 8


def test_conjugate_label():
    assert conjugate_label(chi(3, (1,))) == chi(3, (1,))
    assert conjugate_label(rho(4)) == rho(4)
    # rho_n^+- swap under conjugation iff m = (n-1)/2 is odd
    assert conjugate_label(rho(3, "+")) == rho(3, "-")      # m = 1
    assert conjugate_label(rho(5, "+")) == rho(5, "+")      # m = 2
    assert conjugate_label(rho(7, "-")) == rho(7, "+")      # m = 3
    # conjugating the label conjugates the character values
    for lab in irreps(3):
        f = irrep_character(lab)
        g = irrep_character(conjugate_label(lab))
        assert {k: v.conjugate() for k, v in f.values.items()} == g.values


def test_parse_format_labels():
    for n in (2, 3):
        for lab in irreps(n):
            assert parse_label(format_label(lab), n) == lab
    assert parse_label("chi:{}", 2) == chi(2)
    assert parse_label("chi:{1,3}", 3) == chi(3, (1, 3))
    assert parse_label("rho", 2) == rho(2)
    assert parse_label("rho-", 5) == rho(5, "-")
    with pytest.raises(ValueError):
        parse_label("rho+", 2)
    with pytest.raises(ValueError):
        parse_label("spin", 3)
    for text in ("chi:{1,2,}", "chi:{,1}", "chi:{1,1}", "chi:{3,1}", "chi:{-1}", "chi:{٣}"):
        with pytest.raises(ValueError, match="index list|ascending"):
            parse_label(text, 3)
    with pytest.raises(ValueError, match="out of range"):
        parse_label("chi:{1,4}", 3)


def test_decomposition_json():
    dec = decompose(tensor_character(rho(2), rho(2)))
    payload = dec.to_json()
    assert payload["multiplicity_free"] is True
    assert sum(mult * lab.dim for lab, mult in dec.terms) == 4
    assert [t["irrep"] for t in payload["terms"]] == [
        "chi:{}", "chi:{1}", "chi:{2}", "chi:{1,2}"
    ]
    assert all(t["mult"] == 1 for t in payload["terms"])


def test_class_function_storage():
    # int64 arrays in class_keys order, read-only, behind a read-only
    # mapping of GaussianRational values keyed by the class representatives
    for n in (0, 1, 4, 5):
        for lab in irreps(n):
            f = irrep_character(lab)
            keys = list(zip(*(a.tolist() for a in class_keys(n))))
            assert list(f.values) == keys and len(f.values) == len(keys)
            for k, (sign, mask) in enumerate(keys):
                g = CliffordElement(n, sign, mask)
                assert f.values[(sign, mask)] == character_value(lab, g)
                assert gr(int(f.re[k]), int(f.im[k])) == character_value(lab, g)
            assert f.values == dict(f.values.items()) == irrep_character(lab).values
            for g in enumerate_group(n):  # -gamma_A reads +gamma_A's class
                assert f.value_at(g) == character_value(lab, g)
    f = irrep_character(rho(3, "+"))
    for arr in (f.re, f.im):
        with pytest.raises(ValueError):
            arr[0] = 7
    with pytest.raises(TypeError):
        f.values[(1, 0)] = gr(0)
    with pytest.raises(KeyError):
        f.values[(-1, 1)]  # -gamma_1 is not a class representative of CL(3)
    with pytest.raises(KeyError):  # 12 flips to 0 over X_2 but lies outside it
        irrep_character(IrrepLabel(2, "chi", 1)).values[(-1, 12)]
    assert f.values != irrep_character(rho(3, "-")).values
    with pytest.raises(ValueError):
        ClassFunction(3, f.re[:-1], f.im[:-1])
    with pytest.raises(ValueError, match="below 2"):
        ClassFunction(3, f.re << 30, f.im)  # 2^31 at the identity
    # a cast to int64 would truncate 0.5 and 1.9
    with pytest.raises(ValueError, match="integer values expected, got dtype float64"):
        ClassFunction(1, np.array([0.5, 1.9, 1, 1]), np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError, match="integer values expected"):
        ClassFunction(1, [1, 1, 1, 1], np.zeros(4))


def test_class_function_bound_compares_without_abs():
    # np.abs wraps int64 -2^63 to itself, so the 2^31 bound compares the
    # values on both sides: -2^63 and -2^31 are refused, -(2^31 - 1) is kept
    zeros = [0] * 4
    for low in (-(2**63), -(2**31)):
        for re, im in (([low, 0, 0, 0], zeros), (zeros, [low, 0, 0, 0])):
            with pytest.raises(ValueError, match="below 2"):
                ClassFunction(1, re, im)
    assert ClassFunction(1, [1 - 2**31, 0, 0, 0], zeros).re.tolist() == [1 - 2**31, 0, 0, 0]


def test_irrep_character_memo():
    # one cached object per label up to MAX_TABLE_DEGREE, with the values of
    # a fresh char_re_im in read-only arrays; past it the cache does not grow
    for n in range(5):
        for lab in irreps(n):
            f = irrep_character(lab)
            assert f is irrep_character(lab)
            re, im = char_re_im(lab, *class_keys(n))
            assert np.array_equal(f.re, re) and np.array_equal(f.im, im)
            assert not (f.re.flags.writeable or f.im.flags.writeable)
    size = characters._irrep_character.cache_info().currsize
    big = rho(MAX_TABLE_DEGREE + 1, "+")
    assert irrep_character(big) is not irrep_character(big)
    assert characters._irrep_character.cache_info().currsize == size


def test_tensor_and_restriction_read_the_embedded_values():
    # pointwise products gathered at the classes of CL(m) embedded in CL(n)
    for n in range(0, 5):
        for m in {n, max(n - 1, 0)}:
            for a in irreps(n):
                for b in irreps(n):
                    f = restrict_character(tensor_character(a, b), m)
                    assert f.degree == m
                    for (sign, mask), v in f.values.items():
                        g = CliffordElement(n, sign, mask)  # CL(m) in CL(n)
                        assert v == character_value(a, g) * character_value(b, g)


def test_decompose_matches_orthogonality_oracle():
    # the Walsh-Hadamard and central sums against the dense orthogonality
    # relations, on every restricted tensor product of two irreps
    for n in range(0, 6):
        for m in {n, max(n - 1, 0)}:
            for a in irreps(n):
                for b in irreps(n):
                    f = restrict_character(tensor_character(a, b), m)
                    assert decompose(f) == orthogonality_decompose(f)


def test_decompose_matches_oracle_past_enumeration():
    # spin (x) spin, and Res(spin (x) chi_A) at seeded A, at n = 6..9
    rng = random.Random(7)
    for n in range(6, 10):
        spins = irreps(n)[1 << n:]
        for a in spins:
            for b in spins:
                f = tensor_character(a, b)
                assert decompose(f) == orthogonality_decompose(f)
            for _ in range(4):
                f = restrict_character(tensor_character(a, chi(n, rng.randrange(1 << n))), n - 1)
                assert decompose(f) == orthogonality_decompose(f)
