"""Exact arithmetic of the Clifford group CL(n).

CL(n) = {+/- gamma_A : A subset of {1..n}} with the twisted multiplication

    e1*gamma_A . e2*gamma_B = e1*e2*(-1)^xi(A,B) gamma_{A xor B}

where xi(A, B) counts pairs (a, b) in A x B with a > b.  Subsets are stored
as machine-word bitmasks (bit i-1 <-> index i), and an element is the index
sign_bit << n | mask.  index_product is the one group law: it multiplies
indices, ints or int64 arrays, reading xi(A, B) mod 2 off a shift-XOR fold
and a popcount.  multiply, inverse and conjugate call it on element_index,
and mult_table is one broadcast call of it over the whole group.

Conjugation only flips signs (the sign-flip lemma, _flip_vector): gamma_A
is central (is_central) exactly when its flip vector is 0, and otherwise
+/- gamma_A form one class of size 2, so class_keys and class_index need
no enumeration.  The double cosets of diag CL(m) in CL(n) x CL(n) x CL(m)
are the CL(m)-orbits on pair keys i << (n + 1) | j: predicted_labels reads
them off the flip vectors, and the brute force that gelfand, orbits and
verify (C5, D1) read closes keys under CL(m)'s generators by index_product.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Element arithmetic works up to degree 16; anything that enumerates the
# whole group (or G x G) is guarded separately.
MAX_DEGREE = 16
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
    """CL(m) must be CL(n) or CL(n - 1), with m >= 0."""
    if m not in (n, n - 1) or m < 0:
        raise error(f"{what} must be n or n-1 and at least 0, got m={m} for n={n}")


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
        return subset_of(self.mask)

    def __str__(self):
        return format_element(self)


def element(n: int, sign: int = 1, subset=()) -> CliffordElement:
    return CliffordElement(n, sign, mask_of(subset))


def identity(n: int) -> CliffordElement:
    return CliffordElement(n, 1, 0)


def _element_at(i: int, n: int) -> CliffordElement:
    return CliffordElement(n, *index_sign_mask(i, n))


def _index_inverse(i, n: int):
    """Index of x_i^-1, ints or int64 arrays: x^2 = +/-1 is
    index_product(i, i, n), so x^-1 = x^2 x."""
    return i ^ index_product(i, i, n)


def multiply(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    if x.degree != y.degree:
        raise DegreeMismatchError(f"degrees differ: {x.degree} != {y.degree}")
    return _element_at(index_product(element_index(x), element_index(y), x.degree), x.degree)


def inverse(x: CliffordElement) -> CliffordElement:
    return _element_at(_index_inverse(element_index(x), x.degree), x.degree)


def conjugate(x: CliffordElement, c: CliffordElement) -> CliffordElement:
    """c^-1 * x * c, by index_product."""
    if x.degree != c.degree:
        raise DegreeMismatchError(f"degrees differ: {x.degree} != {c.degree}")
    n, k = x.degree, element_index(c)
    left = index_product(_index_inverse(k, n), element_index(x), n)
    return _element_at(index_product(left, k, n), n)


def conjugation_sign(a_mask: int, c_mask: int) -> int:
    """Closed form for gamma_C^-1 gamma_A gamma_C = s * gamma_A.

    s = (-1)^|v_A & C| by the flip vector of A over any X_m that holds C;
    the closed-form oracle for conjugate(), which multiplies instead.
    """
    return _minus_one_to(_flip_vector(a_mask, c_mask.bit_length()) & c_mask)


def element_index(x: CliffordElement) -> int:
    """Position of x in the (sign, mask) order; _element_at is its inverse."""
    return ((x.sign < 0) << x.degree) | x.mask


def _parity(x):
    """|x| mod 2 for masks x >= 0: an int, or an array of x's dtype by
    np.bitwise_count.  Signed dtypes only: 1 - 2 * parity, as
    _minus_one_to forms it, would wrap in an unsigned one."""
    if isinstance(x, np.ndarray):
        return (np.bitwise_count(x) & 1).astype(x.dtype)
    return x.bit_count() & 1


def _minus_one_to(x):
    """(-1)^|x| for a mask, or a signed integer array of them, of its dtype."""
    return 1 - 2 * _parity(x)


def _xi_parity(a, b):
    """xi(a, b) mod 2 on masks below 2^16, ints or int64 arrays, or int16
    arrays of masks below 2^15, where the shift by 8 stays in the word: xi
    counts the pairs of a bit of a above a bit of b, and the shift-XOR fold
    of a >> 1 sets bit j to the parity of a's bits above j.  Right shifts
    only, so no intermediate exceeds a."""
    a = a >> 1
    for shift in (8, 4, 2, 1):
        a = a ^ (a >> shift)
    return _parity(a & b)


def index_product(i, j, n: int):
    """Index of x_i * x_j on element indices sign_bit << n | mask, ints or
    int64 arrays: the masks XOR, and the sign bits XOR with xi(a, b) mod 2.
    Indices are below 2^17 and the fold reads masks below 2^16, so nothing
    overflows int64; the xi loop in tests/oracles.py is the oracle."""
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
    inv = _index_inverse(idx, n)
    tab.setflags(write=False)
    inv.setflags(write=False)
    return tab, inv


def _flip_vector(mask, m: int):
    """v_A, for an int or signed integer array of masks A: gamma_C^-1 gamma_A
    gamma_C = (-1)^|v_A & C| gamma_A for C in X_m, where |A||C| - |A & C| is
    |A & C| or |C & ~A| mod 2, so v_A is A & X_m or X_m & ~A by |A| mod 2."""
    xm = (1 << m) - 1
    return (mask ^ xm * _parity(mask)) & xm


def is_central(mask, n: int):
    """Whether gamma_mask, an int or int64 array, commutes with all of CL(n):
    its flip vector over X_n is 0, so it is empty or, for odd n, X_n."""
    return _flip_vector(mask, n) == 0


@lru_cache(maxsize=None)
def class_keys(n: int):
    """(signs, masks): read-only int64 arrays of the class representatives'
    keys, one per class in the enumeration order of their first members:
    every +gamma_mask by ascending mask, then -1, then -gamma_Xn for odd n.
    A non-central class is {+/- gamma_mask}, of size 2; a central element
    is its own class."""
    _check_degree(n)
    masks = np.arange(1 << n, dtype=np.int64)
    masks = np.concatenate((masks, masks[is_central(masks, n)]))
    signs = np.where(np.arange(len(masks)) < 1 << n, 1, -1)
    masks.setflags(write=False)
    signs.setflags(write=False)
    return signs, masks


def class_index(n: int, sign, mask):
    """Position in class_keys(n) of the class of sign * gamma_mask, for
    ints or int64 arrays: mask for a +gamma class or a non-central one, and
    2^n, 2^n + 1 for -1 and -gamma_Xn."""
    return np.where((sign < 0) & is_central(mask, n), (1 << n) + (mask != 0), mask)


# -- conjugation by CL(m) on pairs -------------------------------------------


def predicted_labels(keys, n: int, m: int):
    """The least key of the CL(m)-orbit of each pair key i << (n + 1) | j
    (ints or int64 arrays, below 2^34): the orbit is the sign flips by
    |v_x & C|, |v_y & C| mod 2 for C in X_m, so x's sign bit is zeroed if v_x
    != 0, y's if v_y is neither 0 nor v_x; v_y = v_x != 0 sets it to s_x ^ s_y."""
    i, j, full = keys >> (n + 1), keys & ((2 << n) - 1), (1 << n) - 1
    vx, vy = _flip_vector(i & full, m), _flip_vector(j & full, m)
    x_flip = (i >> n) * (vx != 0)
    y_sign = ((j >> n) ^ x_flip * (vy == vx)) * ((vy == 0) | (vy == vx))
    return (i ^ x_flip << n) << (n + 1) | y_sign << n | j & full


def _generator_conjugates(x, n: int, m: int):
    """gamma_k x_i gamma_k, row k - 1 for k = 1..m, on a 1-D int64 array x of
    CL(n) indices by index_product: gamma_k squares to 1 and -1 is central,
    so closing under these m maps is conjugating by all of CL(m)."""
    g = np.left_shift(1, np.arange(m, dtype=np.int64))[:, None]
    return index_product(index_product(g, x, n), g, n)


def _pair_orbit(key: int, n: int, m: int):
    """The ascending pair keys (int64, below 2^34) of one pair key's CL(m)-orbit,
    closed round by round under the generator maps; nothing group-sized is built."""
    orbit, new = {key}, [key]
    while new:
        keys = np.fromiter(new, np.int64)
        c = _generator_conjugates(np.concatenate((keys >> (n + 1), keys & ((2 << n) - 1))), n, m)
        new = set((c[:, : len(keys)] << (n + 1) | c[:, len(keys) :]).ravel().tolist()) - orbit
        orbit |= new
    return sorted(orbit)


def _pair_orbit_labels(n: int, m: int):
    """int64 array: at each pair key, the least pair key of its CL(m)-orbit,
    by np.minimum on the (i, j) grid through the m generator maps until the
    sum of the labels, which only fall, stops changing.  The sum of 4^(n+1)
    keys below 4^(n+1) fits int64 up to n = 14; callers guard n.  This is
    linalg.gain_graph_nullspace with every gain 0, whose one gather through
    m flat maps of the grid would hold m x 8 MB at n = 9."""
    conj = _generator_conjugates(np.arange(2 << n, dtype=np.int64), n, m)
    labels = np.arange(1 << (2 * n + 2), dtype=np.int64).reshape(2 << n, 2 << n)
    while True:
        total = labels.sum()
        for c in conj:
            np.minimum(labels, labels[np.ix_(c, c)], out=labels)
        if labels.sum() == total:
            return labels.ravel()


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
