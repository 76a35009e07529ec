"""Exact Gaussian-rational scalars.

Every inner product, character value and spherical value in this package is
a complex number a + b*i with rational a, b.  Matrix entries are Gaussian
integers held in int64 arrays instead (cliffharm.linalg).  No floating
point is used anywhere; equality tests are exact.
"""

from __future__ import annotations

from fractions import Fraction


class GaussianRational:
    """A complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if isinstance(re, Fraction) else Fraction(re))
        object.__setattr__(self, "im", im if isinstance(im, Fraction) else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def abs2(self):
        """|z|^2 as an exact non-negative rational."""
        return self.re * self.re + self.im * self.im

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # equal to an int or Fraction when real, so hash like one (as complex does)
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def is_rational(self):
        return self.im == 0

    def is_integer(self):
        return self.im == 0 and self.re.denominator == 1

    # -- display ------------------------------------------------------------

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gaussian(self)


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")


ZERO = GaussianRational(0)


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)


def format_gaussian(z: GaussianRational) -> str:
    """Render as `a/b + c/d i` (omitting zero parts, `0` for zero)."""
    if z.im == 0:
        return str(z.re)
    im_abs = abs(z.im)
    im_str = "i" if im_abs == 1 else f"{im_abs}i"
    if z.re == 0:
        return im_str if z.im > 0 else f"-{im_str}"
    op = "+" if z.im > 0 else "-"
    return f"{z.re} {op} {im_str}"


def gaussian_to_json(z: GaussianRational) -> dict:
    """JSON-friendly entry {re_num, re_den, im_num, im_den}."""
    return {
        "re_num": z.re.numerator,
        "re_den": z.re.denominator,
        "im_num": z.im.numerator,
        "im_den": z.im.denominator,
    }


def gaussian_from_json(d: dict) -> GaussianRational:
    return GaussianRational(
        Fraction(d["re_num"], d["re_den"]), Fraction(d["im_num"], d["im_den"])
    )
