"""Property tests on CL(n) for degrees up to 16, past the reach of enumeration.

Elements are drawn as (sign, mask) pairs; nothing here enumerates a group.
"""

from hypothesis import given, strategies as st

from cliffharm.elements import (
    MAX_DEGREE,
    CliffordElement,
    class_key,
    conjugate,
    conjugation_sign,
    embed,
    identity,
    inverse,
    is_central,
    multiply,
    xi,
    xi_sign,
)

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
def test_xi_sign_is_the_parity_of_xi(case):
    _, (x, y) = case
    assert xi_sign(x.mask, y.mask) == (-1) ** xi(x.mask, y.mask)


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
    n = data.draw(degrees)
    m = data.draw(st.integers(0, n))
    x, y = data.draw(elements(m)), data.draw(elements(m))
    assert embed(multiply(x, y), n) == multiply(embed(x, n), embed(y, n))


@given(degree_and_elements(2))
def test_class_key_is_conjugation_invariant(case):
    _, (x, c) = case
    assert class_key(conjugate(x, c)) == class_key(x)


@given(st.data())
def test_is_central_is_the_sign_flip_lemma(data):
    # central exactly when no generator gamma_j flips gamma_A's sign
    n = data.draw(degrees)
    a = data.draw(st.integers(0, (1 << n) - 1))
    fixed = all(conjugation_sign(a, 1 << j) == 1 for j in range(n))
    assert is_central(a, n) == fixed
