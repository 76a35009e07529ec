"""Property tests on CL(n) for degrees up to 16, past the reach of enumeration,
and on the field Q(i) of Gaussian rationals.

Elements are drawn as (sign, mask) pairs; nothing here enumerates a group.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cliffharm.exact import ZERO, gr
from cliffharm.linalg import times_i
from cliffharm.characters import IrrepLabel, char_re_im, irrep_character
from cliffharm.elements import (
    MAX_DEGREE,
    CliffordElement,
    _minus_one_to,
    _pair_orbit,
    _parity,
    _xi_parity,
    class_index,
    class_keys,
    conjugate,
    conjugation_sign,
    element_index,
    embed_index,
    identity,
    index_product,
    inverse,
    is_central,
    multiply,
    predicted_labels,
)
from cliffharm.orbits import orbit_of, predicted_orbit
from oracles import UNITS, xi, xi_inverse, xi_multiply


degrees = st.integers(0, MAX_DEGREE)


@st.composite
def elements(draw, n):
    sign = draw(st.sampled_from((1, -1)))
    return CliffordElement(n, sign, draw(st.integers(0, (1 << n) - 1)))


@st.composite
def degree_and_elements(draw, k):
    n = draw(degrees)
    return n, [draw(elements(n)) for _ in range(k)]


@given(degree_and_elements(2))
def test_conjugation_sign_matches_conjugate(case):
    _, (x, c) = case
    got = conjugate(x, c)
    assert got.mask == x.mask
    assert got.sign == x.sign * conjugation_sign(x.mask, c.mask)


@given(degree_and_elements(3))
def test_multiply_is_associative_with_inverses(case):
    n, (x, y, z) = case
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
    assert multiply(x, inverse(x)) == identity(n)


@given(st.data())
def test_embed_is_a_homomorphism(data):
    # embed_index keeps sign and mask, and carries products of CL(m) to CL(n)
    n = data.draw(degrees)
    m = data.draw(st.integers(0, n))
    x, y = data.draw(elements(m)), data.draw(elements(m))
    i, j = element_index(x), element_index(y)
    assert embed_index(i, m, n) == element_index(CliffordElement(n, x.sign, x.mask))
    assert embed_index(index_product(i, j, m), m, n) == index_product(
        embed_index(i, m, n), embed_index(j, m, n), n
    )


@given(degree_and_elements(2))
def test_class_key_is_conjugation_invariant(case):
    # class_index is constant on classes, and its key is the sign-flip
    # lemma's representative
    n, (x, c) = case
    k = class_index(n, x.sign, x.mask)
    y = conjugate(x, c)
    assert class_index(n, y.sign, y.mask) == k
    signs, masks = class_keys(n)
    assert (signs[k], masks[k]) == (x.sign if is_central(x.mask, n) else 1, x.mask)


@given(st.data())
def test_is_central_is_the_sign_flip_lemma(data):
    # central exactly when no generator gamma_j flips gamma_A's sign
    n = data.draw(degrees)
    a = data.draw(st.integers(0, (1 << n) - 1))
    fixed = all(conjugation_sign(a, 1 << j) == 1 for j in range(n))
    assert is_central(a, n) == fixed


masks16 = st.integers(0, (1 << MAX_DEGREE) - 1)


@given(st.lists(masks16, min_size=1, max_size=8))
def test_parity_fold_is_the_parity_of_the_mask(masks):
    # the closed forms' popcount parity, on ints and on int64 arrays
    want = [(-1) ** mask.bit_count() for mask in masks]
    assert [_minus_one_to(mask) for mask in masks] == want
    assert _minus_one_to(np.array(masks, dtype=np.int64)).tolist() == want


@given(st.lists(st.tuples(masks16, masks16), min_size=1, max_size=8))
def test_xi_parity_fold_is_xi_mod_2(pairs):
    # the fold behind mult_table and the closed forms, on ints and arrays
    want = [xi(a, b) & 1 for a, b in pairs]
    assert [_xi_parity(a, b) for a, b in pairs] == want
    a, b = np.array(pairs, dtype=np.int64).T
    assert _xi_parity(a, b).tolist() == want


@given(st.lists(st.tuples(masks16, masks16), min_size=1, max_size=8))
def test_parity_kernel_keeps_python_ints(pairs):
    # ints in, Python ints out (element reprs and CLI output stay as they
    # were); numpy int64 scalars in, the same values out; arrays in, arrays
    # of their own dtype out, int16 (masks below 2^15) as well as int64
    for a, b in pairs:
        i, j = np.int64(a), np.int64(b)
        for f, ints, scalars in (
            (_minus_one_to, (a,), (i,)),
            (_xi_parity, (a, b), (i, j)),
            (index_product, (a, b, MAX_DEGREE), (i, j, MAX_DEGREE)),
        ):
            got = f(*ints)
            assert type(got) is int
            assert f(*scalars) == got
    masks = [a for a, _ in pairs]
    for f in (_parity, _minus_one_to):
        assert [type(f(a)) for a in masks] == [int] * len(masks)
        for dtype, values in ((np.int64, masks), (np.int16, [a & 0x7FFF for a in masks])):
            got = f(np.array(values, dtype=dtype))
            assert got.dtype == dtype
            assert got.tolist() == [f(a) for a in values]


@given(degree_and_elements(2))
def test_products_hold_python_ints(case):
    n, (x, y) = case
    z = multiply(x, y)
    assert type(z.mask) is int and type(z.sign) is int
    assert repr(z) == repr(xi_multiply(x, y))


@given(st.data())
def test_index_product_on_arrays_is_multiply(data):
    # the one group law, on ints and on int64 arrays, and multiply, inverse
    # and conjugate through it, against the xi-loop product and the
    # closed-form inverse
    n = data.draw(degrees)
    xs = data.draw(st.lists(elements(n), min_size=1, max_size=8))
    ys = [data.draw(elements(n)) for _ in xs]
    products = [xi_multiply(x, y) for x, y in zip(xs, ys)]
    inverses = [xi_inverse(x) for x in xs]
    want = [element_index(z) for z in products]
    i, j = (np.array([element_index(x) for x in zs], dtype=np.int64) for zs in (xs, ys))
    assert index_product(i, j, n).tolist() == want
    assert [index_product(a, b, n) for a, b in zip(i.tolist(), j.tolist())] == want
    assert (i ^ index_product(i, i, n)).tolist() == [element_index(z) for z in inverses]
    assert [multiply(x, y) for x, y in zip(xs, ys)] == products
    assert [inverse(x) for x in xs] == inverses
    assert [conjugate(x, y) for x, y in zip(xs, ys)] == [
        xi_multiply(xi_multiply(xi_inverse(y), x), y) for x, y in zip(xs, ys)
    ]


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_orbit_of_is_the_predicted_orbit(data):
    # the brute force against the case analysis past enumeration; the second
    # mask favours 0, X_n, the first mask and its complement, where the
    # case analysis branches
    n = data.draw(degrees)
    x = data.draw(elements(n))
    full = (1 << n) - 1
    b = st.sampled_from((0, full, x.mask, full ^ x.mask)) | st.integers(0, full)
    y = CliffordElement(n, data.draw(st.sampled_from((1, -1))), data.draw(b))
    assert orbit_of((x, y), n) == predicted_orbit((x, y), n)


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_predicted_labels_are_the_least_keys_of_the_generator_closure(data):
    # both subgroups past enumeration, on hypothesis-drawn keys where D1
    # checks seeded ones against the same closure; the masks follow D1's six
    # shapes taken over X_m, so that at m = n - 1 the complement and the
    # central mask X_m are those of CL(m), and the label on an int must be
    # the label on a one-element int64 array
    n = data.draw(degrees)
    m = data.draw(st.sampled_from((n, n - 1) if n else (0,)))
    z = (1 << m) - 1
    c = z * (m % 2)
    a, b = (data.draw(st.integers(0, (1 << n) - 1)) for _ in range(2))
    a, b = data.draw(st.sampled_from(((a, b), (a, a), (a, a ^ z), (a, 0), (c, b), (c, 0))))
    sx, sy = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    key = (sx << n | a) << (n + 1) | sy << n | b
    label = predicted_labels(key, n, m)
    assert predicted_labels(np.array([key], dtype=np.int64), n, m).tolist() == [label]
    assert label == _pair_orbit(key, n, m)[0]


@st.composite
def labels_and_points(draw):
    """A label of any kind valid at its degree, with lists of signs and of
    masks; the masks favour 0 and X_n, where spin characters live."""
    n = draw(degrees)
    full = (1 << n) - 1
    kind = draw(st.sampled_from(("chi", "rho") if n % 2 == 0 else ("chi", "rho+", "rho-")))
    label = IrrepLabel(n, kind, draw(st.integers(0, full)) if kind == "chi" else 0)
    mask = st.sampled_from((0, full)) | st.integers(0, full)
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=1, max_size=6))
    return label, signs, draw(st.lists(mask, min_size=1, max_size=6))


@given(labels_and_points())
def test_char_re_im_on_arrays_is_its_scalar_calls(case):
    # scalar/array sign x mask, elementwise pairs and a 2-D outer broadcast
    label, signs, masks = case
    sign_arr, mask_arr = np.array(signs), np.array(masks)

    def scalar_calls(sign, mask):
        sign, mask = np.broadcast_arrays(sign, mask)
        values = [char_re_im(label, int(s), int(m)) for s, m in zip(sign.flat, mask.flat)]
        assert all(type(v) is int for pair in values for v in pair)
        return np.moveaxis(np.array(values).reshape(*sign.shape, 2), -1, 0)

    k = min(len(signs), len(masks))
    for sign, mask in [
        (signs[0], mask_arr),
        (sign_arr, masks[0]),
        (sign_arr[:k], mask_arr[:k]),
        (sign_arr[:, None], mask_arr[None, :]),
    ]:
        assert np.array_equal(np.array(char_re_im(label, sign, mask)), scalar_calls(sign, mask))


@given(labels_and_points(), st.sampled_from((1, -1)), st.data())
def test_class_values_refuse_masks_outside_x_n(case, sign, data):
    # the flip vector reads only the bits of X_n, so a mask past it must be
    # refused before is_central can call it central
    label, n = case[0], case[0].degree
    mask = data.draw(st.integers(min_value=1 << n) | st.integers(max_value=-1))
    values = irrep_character(label).values
    with pytest.raises(KeyError):
        values[(sign, mask)]
    assert (sign, mask) not in values


# -- Q(i): GaussianRational is a field, and hashes like the numbers it equals

rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
gaussians = st.builds(gr, rationals, rationals) | st.builds(gr, rationals)


@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z) and x + y == y + x
    assert (x * y) * z == x * (y * z) and x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x and x * 1 == x and x + (-x) == ZERO
    assert x - y == x + (-y)


@given(gaussians)
def test_gaussian_inverse(x):
    assume(x != 0)
    assert x * (1 / x) == 1


@given(gaussians, gaussians)
def test_conjugate_and_abs2_are_multiplicative(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x * y).abs2() == x.abs2() * y.abs2()
    assert x * x.conjugate() == x.abs2()


int_parts = st.integers(-(1 << 40), 1 << 40)
gaussian_integers = st.builds(gr, int_parts, int_parts)


@given(st.lists(st.tuples(gaussian_integers, st.integers(-8, 8)), min_size=1, max_size=6))
def test_times_i_is_multiplication_by_a_power_of_i(terms):
    # linalg.times_i rotates int64 arrays, one exponent per entry
    parts = zip(*((int(x.re), int(x.im), k) for x, k in terms))
    re, im, k = (np.array(col, dtype=np.int64) for col in parts)
    out = zip(*(a.tolist() for a in times_i(re, im, k)))
    assert [gr(a, b) for a, b in out] == [x * UNITS[k % 4] for x, k in terms]


@given(gaussians)
def test_equal_gaussians_hash_alike(x):
    # every number equal to x: a fresh copy, and its Fraction and int forms
    equals = [x, gr(x.re, x.im)]
    if x.im == 0:
        equals.append(x.re)
        if x.re.denominator == 1:
            equals.append(int(x.re))
    for y in equals:
        assert x == y and y == x and hash(x) == hash(y)
    assert len(set(equals)) == 1
    assert {y: "found" for y in equals[1:]}.get(x) == "found"
