"""Irreducible characters of CL(n) and decompositions into irreducibles.

CL(n) has 2^n one-dimensional characters chi_A plus one further irreducible
of dimension 2^(n/2) for n even (rho), or two of dimension 2^((n-1)/2) for
n odd (rho+, rho-).  Character values come from one closed formula,
char_re_im, on ints or on int64 arrays of signs and masks: irrep_character
is a single call of it over the class keys, memoised per label up to
MAX_TABLE_DEGREE (every label of every degree to 10 holds about 23 MB; above
it each call recomputes, as one n = 16 character holds 1 MB).  The
matrix-models module provides the independent trace oracle.

A class function is a pair of int64 arrays over the classes, so a tensor
product is a pointwise product and a restriction an index gather.
decompose reads the multiplicities off the character table's structure:
chi_A(+/- gamma_T) = (-1)^|A & T| is a Sylvester-Hadamard matrix, so the
chi multiplicities are one fast Walsh-Hadamard transform, and the spin
characters vanish off the centre, so each spin multiplicity is a sum over
at most four central elements.  Every sum is an exact integer.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exact import GaussianRational, gr
from .linalg import int64_array
from .elements import (
    MAX_TABLE_DEGREE,
    CliffordElement,
    DegreeMismatchError,
    _check_degree,
    _minus_one_to,
    _parse_mask,
    class_index,
    class_keys,
    is_central,
    mask_of,
    subset_of,
)

# Class function values stay below 2^31 in absolute value, so a pointwise
# product of two stays below 2^63 and a Walsh-Hadamard sum of 2^n
# size-weighted values below 2^(n + 32) <= 2^48: every int64 path is exact.
# The tensor square of a spin character reaches 2^16 at n = 16, where its
# Walsh-Hadamard sums stay below 2^34.
_VALUE_BOUND = 1 << 31


class NotACharacterError(ValueError):
    """A class function whose irrep multiplicities are not in Z>=0."""


@dataclass(frozen=True)
class IrrepLabel:
    """Symbolic irreducible representation of CL(n)."""

    degree: int
    kind: str  # "chi" | "rho" | "rho+" | "rho-"
    mask: int = 0

    def __post_init__(self):
        n = self.degree
        _check_degree(n)  # element arithmetic reads masks below 2^16
        if self.kind == "chi":
            if self.mask >> n:
                raise ValueError("chi subset not contained in X_n")
        elif self.kind == "rho":
            if n % 2 != 0:
                raise ValueError(f"rho requires even degree, got n={n}")
        elif self.kind in ("rho+", "rho-"):
            if n % 2 != 1:
                raise ValueError(f"{self.kind} requires odd degree, got n={n}")
        else:
            raise ValueError(f"unknown irrep kind {self.kind!r}")
        if self.kind != "chi" and self.mask:
            raise ValueError("mask only meaningful for chi labels")

    @property
    def dim(self) -> int:
        if self.kind == "chi":
            return 1
        if self.kind == "rho":
            return 1 << (self.degree // 2)
        return 1 << ((self.degree - 1) // 2)

    @property
    def subset(self):
        return subset_of(self.mask)

    @property
    def index(self) -> int:
        """Position in irreps(degree): chi_A at A, then the spin labels."""
        return self.mask if self.kind == "chi" else (1 << self.degree) + (self.kind == "rho-")

    def __str__(self):
        return format_label(self)


def chi(n: int, subset=()) -> IrrepLabel:
    return IrrepLabel(n, "chi", mask_of(subset))


def rho(n: int, sign: str = "") -> IrrepLabel:
    return IrrepLabel(n, "rho" + sign)


def spin_labels(n: int):
    """The spin irreducibles of CL(n), last in the label order: (rho,) for
    even n, (rho+, rho-) for odd n."""
    return tuple(IrrepLabel(n, kind) for kind in (("rho+", "rho-") if n % 2 else ("rho",)))


def label_at(n: int, i: int) -> IrrepLabel:
    """The label at position i of irreps(n), built alone: IrrepLabel.index inverted."""
    return spin_labels(n)[i - (1 << n)] if i >> n else IrrepLabel(n, "chi", i)


@lru_cache(maxsize=None)
def irreps(n: int):
    """All irreducibles of CL(n) in the fixed label order."""
    spins = spin_labels(n)  # checks the degree before 2^n labels are built
    return tuple(IrrepLabel(n, "chi", mask) for mask in range(1 << n)) + spins


def top_phase_re_im(n: int):
    """The constant c with chi_{rho_n^+}(gamma_Xn) = c*2^m, as (re, im).

    c = 1 for m = (n-1)/2 even, c = -i for m odd.
    """
    m = (n - 1) // 2
    return (1, 0) if m % 2 == 0 else (0, -1)


def char_re_im(label: IrrepLabel, sign, mask):
    """Character value at sign*gamma_mask as (re, im), for ints or int64
    arrays sign and mask, broadcast against each other.

    chi_A reads (-1)^|A & mask| and does not see the sign.  A spin
    character vanishes off the centre: it is sign*2^(n//2) at mask 0 and,
    for odd n, sign*eta*c*2^(n//2) at X_n, with eta = -1 for rho- and c
    the top phase.
    """
    n, zero = label.degree, 0 * sign * mask
    if label.kind == "chi":
        return _minus_one_to(label.mask & mask) + zero, zero
    top = (mask == (1 << n) - 1) * (n % 2) * (-1 if label.kind == "rho-" else 1)
    cr, ci = top_phase_re_im(n)
    return ((mask == 0) + top * cr) * sign << n // 2, top * ci * sign << n // 2


def character_value(label: IrrepLabel, g: CliffordElement) -> GaussianRational:
    if label.degree != g.degree:
        raise DegreeMismatchError(
            f"label degree {label.degree} != element degree {g.degree}"
        )
    re, im = char_re_im(label, g.sign, g.mask)
    return gr(re, im)


# -- class functions --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ClassFunction:
    """A function CL(n) -> Z[i] constant on conjugacy classes: its value on
    the k-th class of class_keys(n) is re[k] + i im[k], with re and im
    read-only int64 arrays."""

    degree: int
    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        size = len(class_keys(self.degree)[0])
        both = int64_array((self.re, self.im))
        if both.shape != (2, size) or ((both >= _VALUE_BOUND) | (both <= -_VALUE_BOUND)).any():
            raise ValueError(f"re and im need {size} values each, below 2^31 in absolute value")
        both.setflags(write=False)
        object.__setattr__(self, "re", both[0])
        object.__setattr__(self, "im", both[1])

    @property
    def values(self) -> Mapping:
        """Read-only mapping from class keys (sign, mask) to GaussianRational."""
        return _ClassValues(self)

    def value_at(self, g: CliffordElement) -> GaussianRational:
        if g.degree != self.degree:
            raise DegreeMismatchError("element degree mismatch")
        central = is_central(g.mask, self.degree)
        return self.values[(g.sign if central else 1, g.mask)]

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        if self.degree != other.degree:
            raise DegreeMismatchError("cannot multiply class functions of different degree")
        return ClassFunction(
            self.degree,
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )


class _ClassValues(Mapping):
    """ClassFunction.values; compares two class functions on their arrays."""

    def __init__(self, f: ClassFunction):
        self._f = f

    def __getitem__(self, key):
        f, (sign, mask) = self._f, key
        # the range first: is_central reads only the bits of X_n
        in_range = 0 <= mask < 1 << f.degree
        if not (in_range and (sign == 1 or sign == -1 and is_central(mask, f.degree))):
            raise KeyError(key)
        k = int(class_index(f.degree, sign, mask))
        return gr(int(f.re[k]), int(f.im[k]))

    def __iter__(self):
        return zip(*(a.tolist() for a in class_keys(self._f.degree)))

    def __len__(self):
        return len(self._f.re)

    def __eq__(self, other):
        f, g = self._f, getattr(other, "_f", None)
        if isinstance(other, _ClassValues) and f.degree == g.degree:
            return np.array_equal(f.re, g.re) and np.array_equal(f.im, g.im)
        return super().__eq__(other)


def irrep_character(label: IrrepLabel) -> ClassFunction:
    if label.degree > MAX_TABLE_DEGREE:
        return _irrep_character.__wrapped__(label)
    return _irrep_character(label)


@lru_cache(maxsize=None)
def _irrep_character(label: IrrepLabel) -> ClassFunction:
    return ClassFunction(label.degree, *char_re_im(label, *class_keys(label.degree)))


def tensor_character(a: IrrepLabel, b: IrrepLabel) -> ClassFunction:
    """Character of the inner tensor product: pointwise product."""
    if a.degree != b.degree:
        raise DegreeMismatchError("tensor factors must share degree")
    return irrep_character(a) * irrep_character(b)


def restrict_character(f: ClassFunction, m: int) -> ClassFunction:
    """Restriction to the embedded subgroup CL(m): each class of CL(m) reads
    the value of the class of CL(f.degree) that contains it."""
    if m > f.degree:
        raise DegreeMismatchError(f"cannot restrict degree {f.degree} to larger {m}")
    idx = _restriction_index(f.degree, m)
    return ClassFunction(m, f.re[idx], f.im[idx])


@lru_cache(maxsize=None)
def _restriction_index(n: int, m: int):
    """restrict_character's read-only gather: at most 2^16 + 2 int64s, 0.5 MB."""
    idx = class_index(n, *class_keys(m))
    idx.setflags(write=False)
    return idx


# -- decompositions ---------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """Multiset of (irrep, multiplicity) pairs, in the fixed label order."""

    terms: tuple  # ((IrrepLabel, int), ...)

    @property
    def multiplicity_free(self) -> bool:
        return all(mult == 1 for _, mult in self.terms)

    def multiplicity(self, label: IrrepLabel) -> int:
        for lab, mult in self.terms:
            if lab == label:
                return mult
        return 0

    def to_json(self) -> dict:
        return {
            "terms": [
                {"irrep": format_label(lab), "mult": mult} for lab, mult in self.terms
            ],
            "multiplicity_free": self.multiplicity_free,
        }


def _walsh_hadamard(v):
    """sum_T (-1)^|A & T| v[T] for every A, by log2(len(v)) butterflies."""
    size, h = len(v), 1
    while h < size:
        v = v.reshape(-1, 2, h)
        v = np.stack((v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]), axis=1)
        h *= 2
    return v.reshape(size)


def decompose(f: ClassFunction) -> Decomposition:
    """Multiplicities <f, chi> = (1/|G|) sum_g f(g) conj chi(g) of every irrep.

    chi_A does not see the sign, so its sum is the Walsh-Hadamard transform
    at A of v[T] = f(gamma_T) + f(-gamma_T), which weights each class by its
    size.  A spin sum runs over the central elements, each its own class.
    """
    n, half = f.degree, 1 << f.degree
    masks = class_keys(n)[1]
    neg = class_index(n, -1, masks[:half])
    sums_re = _walsh_hadamard(f.re[:half] + f.re[neg]).tolist()
    sums_im = _walsh_hadamard(f.im[:half] + f.im[neg]).tolist()
    c = is_central(masks, n)
    for spin in map(irrep_character, spin_labels(n)):
        fre, fim, sre, sim = f.re[c], f.im[c], spin.re[c], spin.im[c]
        sums_re.append(int(fre @ sre + fim @ sim))  # f times conj(spin)
        sums_im.append(int(fim @ sre - fre @ sim))
    order = 1 << (n + 1)
    terms = []
    for i, (re, im) in enumerate(zip(sums_re, sums_im)):
        if im or re % order or re < 0:
            ip = gr(Fraction(re, order), Fraction(im, order))
            raise NotACharacterError(f"not a character: <f, {label_at(n, i)}> = {ip}")
        if re:
            terms.append((label_at(n, i), re // order))
    return Decomposition(tuple(terms))


def restricted_kronecker(a: IrrepLabel, b: IrrepLabel, m: int) -> Decomposition:
    """Decomposition of Res_{CL(m)} (a (x) b)."""
    return decompose(restrict_character(tensor_character(a, b), m))


def conjugate_label(label: IrrepLabel) -> IrrepLabel:
    """Label of the conjugate representation sigma'.

    chi_A and rho_n are self-conjugate; rho_n^+/- swap exactly when
    m = (n-1)/2 is odd (their top character value is then purely imaginary).
    """
    if label.kind in ("chi", "rho"):
        return label
    m = (label.degree - 1) // 2
    if m % 2 == 0:
        return label
    other = "rho-" if label.kind == "rho+" else "rho+"
    return IrrepLabel(label.degree, other)


# -- label syntax -----------------------------------------------------------


def format_label(label: IrrepLabel) -> str:
    if label.kind == "chi":
        body = ",".join(str(i) for i in sorted(label.subset))
        return f"chi:{{{body}}}"
    return label.kind


def parse_label(text: str, n: int) -> IrrepLabel:
    text = text.strip()
    if text in ("rho", "rho+", "rho-"):
        return IrrepLabel(n, text)
    if text.startswith("chi:{") and text.endswith("}"):
        return IrrepLabel(n, "chi", _parse_mask(text[5:-1], n, text))
    raise ValueError(f"malformed irrep label {text!r}; expected chi:{{...}}, rho, rho+ or rho-")
