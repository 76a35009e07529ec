"""Exact arithmetic of the Clifford group CL(n).

CL(n) = {+/- gamma_A : A subset of {1..n}} with the twisted multiplication

    e1*gamma_A . e2*gamma_B = e1*e2*(-1)^xi(A,B) gamma_{A xor B}

where xi(A, B) counts pairs (a, b) in A x B with a > b.  Subsets are stored
as machine-word bitmasks (bit i-1 <-> index i), so xi is a masked-popcount
loop and multiplication is a couple of integer operations.

Conjugation only flips signs (the sign-flip lemma, see conjugation_sign):
gamma_A keeps its sign under every conjugation exactly when it is central
(is_central), and otherwise +/- gamma_A form one class of size 2.  The
class partition, class_key and the centre are read off that lemma; nothing
here enumerates the group to find them.

Whole-group computations (the eta images, the convolution algebra, the
matrix-coefficient identities) read mult_table, the product and inverse
tables on element indices, built for all pairs at once by a shift-XOR fold.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Element arithmetic works up to degree 16; anything that enumerates the
# whole group (or G x G) is guarded separately.
MAX_DEGREE = 16
MAX_ENUM_DEGREE = 12
# mult_table holds 4^(n+1) int64 entries, 8*4^(n+1) bytes: 32 MiB at n = 10,
# built in 0.12 s with a 125 MB peak RSS (2-CPU VM); n = 11 would hold
# 128 MiB and peak at 413 MB.
MAX_TABLE_DEGREE = 10


class DegreeMismatchError(ValueError):
    """Operands live in Clifford groups of different degrees."""


class GuardError(ValueError):
    """Requested degree exceeds the configured enumeration guard."""


def _check_degree(n: int, guard: int = MAX_DEGREE) -> None:
    if not 0 <= n <= guard:
        raise GuardError(f"degree {n} outside supported range [0, {guard}]")


def _check_subgroup_degree(n: int, m: int, what="subgroup degree", error=ValueError) -> None:
    """CL(m) must be CL(n) or CL(n - 1)."""
    if m not in (n, n - 1):
        raise error(f"{what} must be n or n-1, got m={m} for n={n}")


def mask_of(subset) -> int:
    """Bitmask of an iterable of 1-based indices (ints pass through)."""
    if isinstance(subset, int):
        return subset
    m = 0
    for i in subset:
        m |= 1 << (i - 1)
    return m


def subset_of(mask: int) -> frozenset:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def xi(a, b) -> int:
    """Number of pairs (x, y) in A x B with x > y."""
    am = mask_of(a)
    bm = mask_of(b)
    count = 0
    while am:
        low = am & -am
        count += (bm & (low - 1)).bit_count()
        am ^= low
    return count


@dataclass(frozen=True)
class CliffordElement:
    """A signed subset (sign, A) representing sign * gamma_A in CL(n)."""

    degree: int
    sign: int
    mask: int

    def __post_init__(self):
        _check_degree(self.degree)
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.mask >> self.degree:
            raise ValueError(
                f"subset {sorted(subset_of(self.mask))} not contained in X_{self.degree}"
            )

    @property
    def subset(self) -> frozenset:
        return frozenset(subset_of(self.mask))

    def __str__(self):
        return format_element(self)


def element(n: int, sign: int = 1, subset=()) -> CliffordElement:
    return CliffordElement(n, sign, mask_of(subset))


def identity(n: int) -> CliffordElement:
    return CliffordElement(n, 1, 0)


def multiply(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    if x.degree != y.degree:
        raise DegreeMismatchError(f"degrees differ: {x.degree} != {y.degree}")
    sign = x.sign * y.sign * (1 - 2 * (xi(x.mask, y.mask) & 1))
    return CliffordElement(x.degree, sign, x.mask ^ y.mask)


def inverse(x: CliffordElement) -> CliffordElement:
    k = x.mask.bit_count()
    sign = x.sign * (-1 if (k * (k - 1) // 2) & 1 else 1)
    return CliffordElement(x.degree, sign, x.mask)


def conjugate(x: CliffordElement, c: CliffordElement) -> CliffordElement:
    """c^-1 * x * c, by composed multiplications."""
    return multiply(multiply(inverse(c), x), c)


def conjugation_sign(a_mask: int, c_mask: int) -> int:
    """Closed form for gamma_C^-1 gamma_A gamma_C = s * gamma_A.

    s = (-1)^(|A||C| - |A & C|); the closed-form oracle for conjugate(),
    which multiplies instead.
    """
    e = a_mask.bit_count() * c_mask.bit_count() - (a_mask & c_mask).bit_count()
    return -1 if e & 1 else 1


def embed(x: CliffordElement, n: int) -> CliffordElement:
    if x.degree > n:
        raise DegreeMismatchError(f"cannot embed degree {x.degree} into degree {n}")
    return CliffordElement(n, x.sign, x.mask)


def enumerate_group(n: int):
    """All 2^(n+1) elements, sign-major then subset-as-integer ascending."""
    _check_degree(n, MAX_ENUM_DEGREE)
    return [
        CliffordElement(n, sign, mask)
        for sign in (1, -1)
        for mask in range(1 << n)
    ]


def element_index(x: CliffordElement) -> int:
    """Position of x in enumerate_group(x.degree)."""
    return ((x.sign < 0) << x.degree) | x.mask


def _xor_fold(x):
    """Bit j of the result is the parity of bits j..j+15 of x, for an int or
    an int64 array: for a mask below 2^16, the parity of its bits from j up,
    so bit 0 is the parity of |x|.  Right shifts only, so no intermediate
    exceeds x."""
    for shift in (8, 4, 2, 1):
        x = x ^ (x >> shift)
    return x


def _minus_one_to(x):
    """(-1)^|x| for a mask below 2^16, or an int64 array of them."""
    return 1 - 2 * (_xor_fold(x) & 1)


def _xi_parity(a, b):
    """xi(a, b) mod 2 on masks below 2^16, ints or int64 arrays: xi counts
    the pairs of a bit of a above a bit of b, and bit j of fold(a >> 1) is
    the parity of a's bits above j."""
    return _xor_fold(_xor_fold(a >> 1) & b) & 1


def index_product(i, j, n: int):
    """Index of x_i * x_j on element indices sign_bit << n | mask, ints or
    int64 arrays: the masks XOR, and the sign bits XOR with xi(a, b) mod 2.
    x^2 = +/-1 is index_product(i, i, n), so x^-1 = x^2 x is i ^ that.
    Indices are below 2^17 and the fold reads masks below 2^16, so nothing
    overflows int64; multiply is the oracle."""
    full = (1 << n) - 1
    return i ^ j ^ (_xi_parity(i & full, j & full) << n)


def index_sign_mask(i, n: int):
    """(sign, mask) of element index i in CL(n), for ints or int64 arrays."""
    return 1 - 2 * (i >> n), i & ((1 << n) - 1)


def embed_index(i, m: int, n: int):
    """The CL(n) index of the element with index i in CL(m), m <= n, ints
    or int64 arrays: the sign bit moves from bit m to bit n."""
    return (i >> m) << n | i & ((1 << m) - 1)


@lru_cache(maxsize=None)
def mult_table(n: int):
    """(tab, inv): read-only int64 arrays on element_index positions, with
    tab[i, j] the index of x_i * x_j and inv[i] the index of x_i^-1, by one
    broadcast index_product."""
    _check_degree(n, MAX_TABLE_DEGREE)
    idx = np.arange(2 << n, dtype=np.int64)
    tab = index_product(idx[:, None], idx, n)
    inv = idx ^ tab.diagonal()
    tab.setflags(write=False)
    inv.setflags(write=False)
    return tab, inv


def is_central(mask, n: int):
    """Whether gamma_mask commutes with all of CL(n): the mask is empty, or n
    is odd and the mask is X_n.  mask is an int or an int64 array."""
    return (mask == 0) | ((n % 2 == 1) & (mask == (1 << n) - 1))


def class_key(x: CliffordElement):
    """(sign, mask) of the representative of x's conjugacy class."""
    return (x.sign, x.mask) if is_central(x.mask, x.degree) else (1, x.mask)


def center(n: int):
    """{+/-1} for n even, plus {+/- gamma_Xn} for n odd."""
    _check_degree(n)
    return [
        CliffordElement(n, sign, mask)
        for mask in sorted({0, (1 << n) - 1})
        if is_central(mask, n)
        for sign in (1, -1)
    ]


@dataclass(frozen=True)
class ConjugacyClass:
    representative: CliffordElement
    members: tuple

    @property
    def size(self) -> int:
        return len(self.members)


@lru_cache(maxsize=None)
def class_keys(n: int):
    """(signs, masks): read-only int64 arrays of the class representatives'
    keys, in conjugacy_classes order: every +gamma_mask by ascending mask,
    then -1, then -gamma_Xn for odd n."""
    _check_degree(n)
    masks = np.arange(1 << n, dtype=np.int64)
    masks = np.concatenate((masks, masks[is_central(masks, n)]))
    signs = np.where(np.arange(len(masks)) < 1 << n, 1, -1)
    masks.setflags(write=False)
    signs.setflags(write=False)
    return signs, masks


def class_index(n: int, sign, mask):
    """Position in conjugacy_classes(n) of the class of sign * gamma_mask, for
    ints or int64 arrays: mask for a +gamma class or a non-central one, and
    2^n, 2^n + 1 for -1 and -gamma_Xn."""
    return np.where((sign < 0) & is_central(mask, n), (1 << n) + (mask != 0), mask)


# conjugacy_classes(16) builds its 65,537 classes in 0.3-0.4 s and 28 MB of
# RSS (2-CPU VM).
@lru_cache(maxsize=None)
def conjugacy_classes(n: int):
    """The class partition, from the sign-flip lemma.

    gamma_C^-1 gamma_A gamma_C = (-1)^(|A||C| - |A & C|) gamma_A, so the
    class of s gamma_A is {s gamma_A} when A is central and {+/- gamma_A}
    otherwise: for a non-central A, conjugating by gamma_j with j in A
    (|A| even) or j not in A (|A| odd) flips the sign.  Classes come in
    the order of class_keys, which is the enumeration order of their first
    members.
    """
    classes = []
    for sign, mask in zip(*(a.tolist() for a in class_keys(n))):
        x = CliffordElement(n, sign, mask)
        if is_central(mask, n):
            classes.append(ConjugacyClass(x, (x,)))
        else:
            classes.append(ConjugacyClass(x, (x, CliffordElement(n, -1, mask))))
    return tuple(classes)


# -- the triple-product group G x G x H -------------------------------------


@dataclass(frozen=True)
class TripleElement:
    """An element of CL(n) x CL(n) x CL(m), with CL(m) embedded in CL(n).

    g1, g2 have degree n; h has degree n but its subset lies in X_m.
    """

    g1: CliffordElement
    g2: CliffordElement
    h: CliffordElement
    subgroup_degree: int

    def __post_init__(self):
        n = self.g1.degree
        m = self.subgroup_degree
        if self.g2.degree != n or self.h.degree != n:
            raise DegreeMismatchError("triple components must share degree")
        _check_subgroup_degree(n, m)
        if self.h.mask >> m:
            raise ValueError(f"h lies outside the embedded subgroup CL({m})")

    @property
    def degree(self) -> int:
        return self.g1.degree


def triple(g1, g2, h, m=None) -> TripleElement:
    if m is None:
        m = g1.degree
    return TripleElement(g1, g2, embed(h, g1.degree), m)


def triple_identity(n: int, m: int) -> TripleElement:
    return TripleElement(identity(n), identity(n), identity(n), m)


def triple_multiply(s: TripleElement, t: TripleElement) -> TripleElement:
    return TripleElement(
        multiply(s.g1, t.g1),
        multiply(s.g2, t.g2),
        multiply(s.h, t.h),
        s.subgroup_degree,
    )


def triple_action(t: TripleElement, p):
    """(g1, g2, h) . (g3, g4) = (g1 g3 g2^-1, g2 g4 h^-1)."""
    g3, g4 = p
    if g3.degree != t.degree or g4.degree != t.degree:
        raise DegreeMismatchError("pair degree does not match acting triple")
    return (
        multiply(multiply(t.g1, g3), inverse(t.g2)),
        multiply(multiply(t.g2, g4), inverse(t.h)),
    )


# -- textual element syntax -------------------------------------------------

_ELEMENT_RE = _re.compile(r"^([+-])g\{([0-9,\s]*)\}$")


def _parse_mask(body: str, n: int, text: str) -> int:
    """Mask of a comma-separated list of strictly ascending indices in
    1..n, the body of `text`; an empty body is the empty set.  An empty
    token, a repeated or descending index or one outside 1..n is an error."""
    tokens = [tok.strip() for tok in body.split(",")] if body.strip() else []
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ValueError(f"malformed index list in {text!r}; expected e.g. '{{1,3}}'")
    indices = [int(tok) for tok in tokens]
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError(f"indices in {text!r} must be strictly ascending")
    if any(i < 1 or i > n for i in indices):
        raise ValueError(f"index out of range in {text!r} for CL({n})")
    return mask_of(indices)


def parse_element(text: str, n: int) -> CliffordElement:
    """Parse `+g{1,3}` / `-g{}` syntax."""
    m = _ELEMENT_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed element {text!r}; expected e.g. '+g{{1,3}}'")
    sign = 1 if m.group(1) == "+" else -1
    return CliffordElement(n, sign, _parse_mask(m.group(2), n, text))


def format_element(x: CliffordElement) -> str:
    body = ",".join(str(i) for i in sorted(x.subset))
    return f"{'+' if x.sign > 0 else '-'}g{{{body}}}"
