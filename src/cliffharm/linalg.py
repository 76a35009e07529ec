"""Exact linear algebra over the Gaussian integers, in int64 arrays.

Two matrix flavours, and one format for monomial images:

* Matrix    -- dense Gaussian-integer matrix: read-only int64 arrays re and
               im of one 2-D shape; used for intertwiners.
* ScaledMatrix -- sqrt(2)^half times a Matrix; the only irrationals in the
               theory are sqrt(2^k) normalization factors.
* (perm, phase) -- a pair of int64 arrays whose last axis is the column:
               column j of a monomial image carries i^phase[j], an exponent
               in range(4), at row perm[j].  Every representation matrix in
               this package (gamma products, permutation images) is
               monomial, and leading axes index group elements, so compose,
               kron and trace act on whole image tables at once, as
               integer gathers and sums mod 4.  Exponents act on int64
               arrays through the one rotation times_i.

Every intertwiner constraint between monomial images reads x[a] = i^k x[b];
each generator's constraints permute the cells, and gain_graph_nullspace
closes integer keys (least column, exponent) under all of them at once.  All
intertwiner entries are units or zero, and a monomial only rotates them, so
no entry grows.  Scalars (hs_inner, scaled_hs_inner) are GaussianRational,
with one exact division at the end.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import GaussianRational, ZERO, gr

_COS = np.array([1, 0, -1, 0], dtype=np.int64)  # re(i^k)
_SIN = np.array([0, 1, 0, -1], dtype=np.int64)  # im(i^k)


def times_i(re, im, k):
    """i^k (re + i im) on ints or int64 arrays; k is an int or an int64 array
    broadcast against them.  Entries keep their size: i^k only swaps and
    negates the parts."""
    k = np.bitwise_and(k, 3)
    c, s = _COS[k], _SIN[k]
    return c * re - s * im, s * re + c * im


def complex_matmul(x, y):
    """x @ y for Gaussian-integer matrices given as (re, im) int64 pairs;
    only the products of two nonzero factors are formed and added, so real
    tables cost one integer matmul.  Callers bound the sums they form."""
    live = [p.any() for p in x], [q.any() for q in y]

    def part(*terms):
        out = None
        for sign, i, j in terms:
            if live[0][i] and live[1][j]:
                prod = x[i] @ y[j]
                if out is None:
                    out = prod if sign > 0 else np.negative(prod, out=prod)
                elif sign > 0:
                    out += prod
                else:
                    out -= prod
        if out is None:
            return np.zeros((x[0].shape[0], y[0].shape[1]), dtype=np.int64)
        return out

    # (a + bi)(c + di) = (ac - bd) + (ad + bc)i
    return part((1, 0, 0), (-1, 1, 1)), part((1, 0, 1), (1, 1, 0))


def int64_array(values):
    """values as a new int64 array; ValueError for a dtype a cast would truncate or wrap."""
    a = np.array(values)
    if a.dtype != np.int64 and not np.can_cast(a.dtype, np.int64):
        raise ValueError(f"integer values expected, got dtype {a.dtype}")
    return a.astype(np.int64, copy=False)


class Matrix:
    """Dense Gaussian-integer matrix: read-only int64 arrays re and im."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        re, im = int64_array(re), int64_array(im)
        if re.ndim != 2 or re.shape != im.shape:
            raise ValueError("a Matrix needs re and im of one 2-D shape")
        re.setflags(write=False)
        im.setflags(write=False)
        self.re, self.im = re, im

    @property
    def shape(self):
        return self.re.shape

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and not (
            (self.re != other.re).any() or (self.im != other.im).any()
        )

    def __hash__(self):
        return hash((self.shape, self.re.tobytes(), self.im.tobytes()))

    def is_zero(self):
        return not (self.re.any() or self.im.any())

    def __repr__(self):
        return f"Matrix({self.shape[0]}x{self.shape[1]})"


def hs_inner(t1: Matrix, t2: Matrix, log2_scale=0) -> GaussianRational:
    """Normalized Hilbert-Schmidt product (1/ncols) tr(t2* t1), times
    2^log2_scale, folded into the one Fraction per part.

    The int64 dot products have one term per entry.  On intertwiners every
    entry is a unit or zero, so at n = 5 a sum has at most |G|^2 d1 d2
    dtheta <= 2^18 unit products and cannot overflow.
    """
    if t1.shape != t2.shape:
        raise ValueError("shape mismatch in Hilbert-Schmidt product")
    up, down = max(log2_scale, 0), max(-log2_scale, 0)
    re = int(np.vdot(t1.re, t2.re) + np.vdot(t1.im, t2.im)) << up
    im = int(np.vdot(t1.im, t2.re) - np.vdot(t1.re, t2.im)) << up
    return gr(Fraction(re, t1.shape[1] << down), Fraction(im, t1.shape[1] << down))


def compose(a, b):
    """The product A B of monomial images a = (perm, phase) and b, int64
    arrays whose last axis is the column and whose leading axes broadcast.
    Column j of B carries i^phase_b[j] at row perm_b[j], which A sends to
    row perm_a[perm_b[j]] with phase_a[perm_b[j]] more."""
    pa, ka, pb, kb = np.broadcast_arrays(*a, *b)
    return np.take_along_axis(pa, pb, -1), (kb + np.take_along_axis(ka, pb, -1)) & 3


def kron(a, b):
    """The Kronecker product A (x) B of monomial images a = (perm, phase)
    and b, with leading axes broadcast: column (j1, j2) carries
    i^(phase_a[j1] + phase_b[j2]) at row perm_a[j1] * dim_b + perm_b[j2].
    Rows stay below dim_a dim_b, so nothing overflows."""
    (pa, ka), (pb, kb) = a, b
    perm = pa[..., :, None] * pb.shape[-1] + pb[..., None, :]
    phase = (ka[..., :, None] + kb[..., None, :]) & 3
    shape = perm.shape[:-2] + (-1,)
    return perm.reshape(shape), phase.reshape(shape)


def trace(a):
    """(re, im): the int64 traces of monomial images a = (perm, phase) over
    the last axis, each the sum of i^phase[j] over the columns j with
    perm[j] = j."""
    perm, phase = a
    fixed = (perm == np.arange(perm.shape[-1])).astype(np.int64)
    re, im = times_i(fixed, 0, phase)
    return re.sum(-1), im.sum(-1)


@dataclass(frozen=True)
class ScaledMatrix:
    """sqrt(2)^half * matrix; keeps sqrt(2) factors exact.

    half is an integer exponent of sqrt(2).  Construction moves the largest
    power of two 2^k that divides every entry of the matrix into half
    (2^k M = sqrt(2)^(2k) M) by integer shifts, and sets half = 0 for a zero
    matrix.  Since sqrt(2) is not in Q(i), equal values then have equal
    fields, and the generated equality and hashing compare them.
    """

    half: int
    matrix: Matrix

    def __post_init__(self):
        re, im = self.matrix.re, self.matrix.im
        # the lowest set bit of the OR of all entries (negatives included)
        # is the largest power of two dividing every one of them
        low = int(np.bitwise_or.reduce(re | im, axis=None))
        if not low:
            object.__setattr__(self, "half", 0)  # zero at any scale is zero
            return
        k = (low & -low).bit_length() - 1
        if k:
            object.__setattr__(self, "half", self.half + 2 * k)
            object.__setattr__(self, "matrix", Matrix(re >> k, im >> k))


def scaled_hs_inner(t1: ScaledMatrix, t2: ScaledMatrix) -> GaussianRational:
    """Normalized Hilbert-Schmidt product of two scaled matrices.

    Requires the combined sqrt(2) exponent to be even (always the case in
    the isometry checks); raises otherwise.
    """
    h = t1.half + t2.half
    base = hs_inner(t1.matrix, t2.matrix, h >> 1)
    if h & 1 and base:
        raise ValueError("inner product leaves the Gaussian rationals")
    return base or ZERO


# -- unit-phase monomial systems: a gain graph over Z/4 ---------------------


def gain_graph_nullspace(maps, gains):
    """Nullspace of x[a] = i^gains[g, a] x[maps[g, a]], for (G, N) int64
    arrays whose rows are permutations of the N columns, gains in range(4),
    so the components are the orbits of the group the rows generate.

    Each column holds key = label << 3 | potential (x[c] = i^potential
    x[label]), from c << 3.  A round pulls every key through all G maps in
    one gather, adds the gains to the potentials and keeps the least of the
    candidates and the key.  The maps generate a finite group, so forward
    pulls reach the whole orbit; keys only fall, so the loop ends, with each
    label the least column of its orbit, at potential 0.  An orbit whose
    gains disagree breaks a constraint under any potentials, so one of the
    last round's candidates differs from its key and kills that label; a
    fixed point with gain 2 forces x[c] = 0.  Returns one vector per live
    label, by smallest column, as read-only int64 (re, im) with entries in
    {0, +/-1, +/-i} and 1 at that column.  Keys stay below 8N: nothing
    overflows or is divided.  elements._pair_orbit_labels is the all-gain-0
    case, kept apart: its flat maps would hold 8 MB each at n = 9.
    """
    ncols = maps.shape[1]
    key = np.arange(ncols, dtype=np.int64) << 3
    while True:
        # potential + gain <= 6 sets at most bit 2, which clearing takes mod 4
        cand = (key[maps] + gains) & ~4
        low = np.minimum(key, np.minimum.reduce(cand, axis=0, initial=ncols << 3))
        if (low == key).all():
            break
        key = low
    label = key >> 3
    dead = np.zeros(ncols, dtype=bool)
    dead[label[(cand != key).any(axis=0)]] = True
    (live,) = np.nonzero(~dead[label])
    (heads,) = np.nonzero(~dead & (label == np.arange(ncols)))
    out = np.zeros((2, len(heads), ncols), dtype=np.int64)  # (re, im) by row
    out[:, np.searchsorted(heads, label[live]), live] = times_i(1, 0, key[live])
    out.setflags(write=False)
    return list(zip(*out))
