from fractions import Fraction

import numpy as np
import pytest

from cliffharm.exact import (
    GaussianRational,
    ZERO,
    format_gaussian,
    gaussian_from_json,
    gaussian_to_json,
    gr,
)
from cliffharm.linalg import times_i

ONE, I = gr(1), gr(0, 1)


def test_basic_arithmetic():
    a = gr(1, 2)
    b = gr(Fraction(1, 3), -1)
    assert a + b == gr(Fraction(4, 3), 1)
    assert a - b == gr(Fraction(2, 3), 3)
    assert a * b == gr(Fraction(1, 3) + 2, Fraction(2, 3) - 1)
    assert (a / b) * b == a
    assert -a == gr(-1, -2)
    assert a + 1 == gr(2, 2)
    assert 2 * a == gr(2, 4)
    assert 1 - a == gr(0, -2)


def test_i_squares_to_minus_one():
    assert I * I == gr(-1)
    assert I.conjugate() == -I


def test_times_i_is_repeated_multiplication_by_i():
    # linalg.times_i, the rotation of Gaussian integers held as int parts
    for z in (ONE, gr(3, -5), gr(0, -2), ZERO):
        w = z
        for k in range(8):  # k >= 4 is unreduced
            assert gr(*(int(a) for a in times_i(int(z.re), int(z.im), k))) == w
            w = w * I
    re, im = times_i(np.ones(4, dtype=np.int64), 0, np.arange(4))
    assert [gr(a, b) for a, b in zip(re.tolist(), im.tolist())] == [ONE, I, -ONE, -I]


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gr(1) / ZERO


def test_conjugate_and_abs2():
    z = gr(Fraction(3, 4), Fraction(-5, 7))
    assert z * z.conjugate() == gr(z.abs2())
    assert z.abs2() == Fraction(9, 16) + Fraction(25, 49)


def test_predicates():
    assert not ZERO
    assert ONE and I
    assert gr(2).is_integer()
    assert gr(Fraction(1, 2)).is_rational()
    assert not gr(Fraction(1, 2)).is_integer()
    assert not gr(0, 1).is_rational()


def test_immutability_and_hash():
    z = gr(1, 1)
    with pytest.raises(AttributeError):
        z.re = Fraction(2)
    assert hash(gr(1, 2)) == hash(gr(1, 2))
    assert gr(1, 2) in {gr(1, 2)}


def test_formatting():
    assert format_gaussian(gr(0)) == "0"
    assert format_gaussian(gr(Fraction(1, 2))) == "1/2"
    assert format_gaussian(gr(0, 1)) == "i"
    assert format_gaussian(gr(0, -1)) == "-i"
    assert format_gaussian(gr(0, Fraction(3, 2))) == "3/2i"
    assert format_gaussian(gr(1, -2)) == "1 - 2i"


def test_json_round_trip():
    z = gr(Fraction(-3, 8), Fraction(7, 5))
    d = gaussian_to_json(z)
    assert d == {"re_num": -3, "re_den": 8, "im_num": 7, "im_den": 5}
    assert gaussian_from_json(d) == z


def test_no_float_coercion():
    with pytest.raises(TypeError):
        gr(1) + 0.5
