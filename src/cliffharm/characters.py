"""Irreducible characters of CL(n) and decompositions into irreducibles.

CL(n) has 2^n one-dimensional characters chi_A plus one further irreducible
of dimension 2^(n/2) for n even (rho), or two of dimension 2^((n-1)/2) for
n odd (rho+, rho-).  Character values are computed from the closed formulas;
the matrix-models module provides the independent trace oracle.

All values live in Z[i] and all inner products in Q(i); arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .exact import GaussianRational, gr
from .elements import (
    CliffordElement,
    DegreeMismatchError,
    _check_degree,
    class_key,
    conjugacy_classes,
    embed,
    mask_of,
    subset_of,
)

# decompose() walks irreps x classes: 15 s at n = 9 and 62 s at n = 10
# (2-CPU VM).
MAX_CHARACTER_DEGREE = 9


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
        return frozenset(subset_of(self.mask))

    def __str__(self):
        return format_label(self)


def chi(n: int, subset=()) -> IrrepLabel:
    return IrrepLabel(n, "chi", mask_of(subset))


def rho(n: int, sign: str = "") -> IrrepLabel:
    return IrrepLabel(n, "rho" + sign)


@lru_cache(maxsize=None)
def irreps(n: int):
    """All irreducibles of CL(n) in the fixed label order."""
    _check_degree(n)
    labels = [IrrepLabel(n, "chi", mask) for mask in range(1 << n)]
    if n % 2 == 0:
        labels.append(IrrepLabel(n, "rho"))
    else:
        labels.append(IrrepLabel(n, "rho+"))
        labels.append(IrrepLabel(n, "rho-"))
    return tuple(labels)


def top_phase_re_im(n: int):
    """The constant c with chi_{rho_n^+}(gamma_Xn) = c*2^m, as (re, im).

    c = 1 for m = (n-1)/2 even, c = -i for m odd.
    """
    m = (n - 1) // 2
    return (1, 0) if m % 2 == 0 else (0, -1)


def char_re_im(label: IrrepLabel, sign: int, mask: int):
    """Character value at sign*gamma_mask as a pair of ints (re, im)."""
    n = label.degree
    if label.kind == "chi":
        return (-1 if (label.mask & mask).bit_count() & 1 else 1, 0)
    if label.kind == "rho":
        return (sign << (n // 2), 0) if mask == 0 else (0, 0)
    m = (n - 1) // 2
    if mask == 0:
        return (sign << m, 0)
    if mask == (1 << n) - 1:
        cr, ci = top_phase_re_im(n)
        s = sign if label.kind == "rho+" else -sign
        return (s * cr << m, s * ci << m) if m else (s * cr, s * ci)
    return (0, 0)


def character_value(label: IrrepLabel, g: CliffordElement) -> GaussianRational:
    if label.degree != g.degree:
        raise DegreeMismatchError(
            f"label degree {label.degree} != element degree {g.degree}"
        )
    re, im = char_re_im(label, g.sign, g.mask)
    return gr(re, im)


# -- class functions --------------------------------------------------------


@dataclass(frozen=True)
class ClassFunction:
    """A function CL(n) -> Q(i) constant on conjugacy classes.

    values maps the class representative key (sign, mask) to the value.
    """

    degree: int
    values: dict = field(compare=False)

    def value_at(self, g: CliffordElement) -> GaussianRational:
        if g.degree != self.degree:
            raise DegreeMismatchError("element degree mismatch")
        return self.values[class_key(g)]

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        if self.degree != other.degree:
            raise DegreeMismatchError("cannot multiply class functions of different degree")
        return ClassFunction(
            self.degree,
            {k: v * other.values[k] for k, v in self.values.items()},
        )


def _class_keys(n: int):
    return [(c.representative.sign, c.representative.mask) for c in conjugacy_classes(n)]


@lru_cache(maxsize=None)
def irrep_character(label: IrrepLabel) -> ClassFunction:
    n = label.degree
    values = {
        key: gr(*char_re_im(label, key[0], key[1])) for key in _class_keys(n)
    }
    return ClassFunction(n, values)


def inner_product(f: ClassFunction, g: ClassFunction) -> GaussianRational:
    """(1/|G|) sum_g f(g) conj(g(g)); exact."""
    if f.degree != g.degree:
        raise DegreeMismatchError("class function degrees differ")
    n = f.degree
    total = gr(0)
    for cls in conjugacy_classes(n):
        key = (cls.representative.sign, cls.representative.mask)
        total = total + cls.size * f.values[key] * g.values[key].conjugate()
    return total / (1 << (n + 1))


def tensor_character(a: IrrepLabel, b: IrrepLabel) -> ClassFunction:
    """Character of the inner tensor product: pointwise product."""
    if a.degree != b.degree:
        raise DegreeMismatchError("tensor factors must share degree")
    return irrep_character(a) * irrep_character(b)


def restrict_character(f: ClassFunction, m: int) -> ClassFunction:
    """Restriction to the embedded subgroup CL(m)."""
    if m > f.degree:
        raise DegreeMismatchError(f"cannot restrict degree {f.degree} to larger {m}")
    values = {}
    for key in _class_keys(m):
        g = embed(CliffordElement(m, key[0], key[1]), f.degree)
        values[key] = f.value_at(g)
    return ClassFunction(m, values)


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

    def dimension(self) -> int:
        return sum(mult * lab.dim for lab, mult in self.terms)

    def to_json(self) -> dict:
        return {
            "terms": [
                {"irrep": format_label(lab), "mult": mult} for lab, mult in self.terms
            ],
            "multiplicity_free": self.multiplicity_free,
        }


def decompose(f: ClassFunction) -> Decomposition:
    """Multiplicity extraction via the orthogonality relations."""
    _check_degree(f.degree, MAX_CHARACTER_DEGREE)
    terms = []
    for label in irreps(f.degree):
        ip = inner_product(f, irrep_character(label))
        if not ip.is_integer() or ip.re < 0:
            raise NotACharacterError(
                f"not a character: <f, {format_label(label)}> = {ip}"
            )
        mult = int(ip.re)
        if mult:
            terms.append((label, mult))
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


# -- exact integer character table (vectorized consumers) -------------------


@lru_cache(maxsize=None)
def character_table(n: int, m: int | None = None):
    """(labels, class_keys, sizes, re, im) for the irreps of CL(n) at the
    class representatives of CL(m) embedded in CL(n); m defaults to n.

    class_keys and sizes describe the classes of CL(m); re and im are int64
    arrays of shape (|Irr CL(n)|, |classes of CL(m)|).  Values are Gaussian
    integers well inside int64 range for n <= 12, so this is exact; it backs
    the vectorized Gelfand checks.  The arrays are read-only, since the
    result is cached.
    """
    import numpy as np

    if m is None:
        m = n
    if m > n:
        raise DegreeMismatchError(f"cannot embed CL({m}) into CL({n})")
    labels = irreps(n)
    classes = conjugacy_classes(m)
    keys = tuple((c.representative.sign, c.representative.mask) for c in classes)
    sizes = np.array([c.size for c in classes], dtype=np.int64)
    re = np.empty((len(labels), len(classes)), dtype=np.int64)
    im = np.empty_like(re)
    for i, lab in enumerate(labels):
        for j, (sign, mask) in enumerate(keys):
            re[i, j], im[i, j] = char_re_im(lab, sign, mask)
    for arr in (sizes, re, im):
        arr.setflags(write=False)
    return labels, keys, sizes, re, im


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
        body = text[5:-1].strip()
        indices = [int(tok) for tok in body.split(",") if tok.strip()] if body else []
        if any(i < 1 or i > n for i in indices):
            raise ValueError(f"index out of range in {text!r} for CL({n})")
        return IrrepLabel(n, "chi", mask_of(indices))
    raise ValueError(f"malformed irrep label {text!r}; expected chi:{{...}}, rho, rho+ or rho-")
