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
such a system is a gain graph over Z/4, solved by gain_graph_nullspace with a
union-find on the same integer exponents.  All intertwiner entries are units
or zero, and a monomial only rotates them, so no entry grows.  Scalars
(hs_inner, scaled_hs_inner) are GaussianRational, with one exact division
at the end.  No floating point anywhere.
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


class Matrix:
    """Dense Gaussian-integer matrix: read-only int64 arrays re and im."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        re, im = np.array(re, dtype=np.int64), np.array(im, dtype=np.int64)
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
        return (
            self.shape == other.shape
            and np.array_equal(self.re, other.re)
            and np.array_equal(self.im, other.im)
        )

    def __hash__(self):
        return hash((self.shape, self.re.tobytes(), self.im.tobytes()))

    def is_zero(self):
        return not (self.re.any() or self.im.any())

    def __repr__(self):
        return f"Matrix({self.shape[0]}x{self.shape[1]})"


def hs_inner(t1: Matrix, t2: Matrix) -> GaussianRational:
    """Normalized Hilbert-Schmidt product (1/ncols) tr(t2* t1).

    The int64 sums have one term per entry.  On intertwiners every entry is
    a unit or zero, so at n = 3 a sum has at most |G|^2 d1 d2 dtheta <= 2^11
    unit products and cannot overflow.
    """
    if t1.shape != t2.shape:
        raise ValueError("shape mismatch in Hilbert-Schmidt product")
    re = int((t1.re * t2.re).sum() + (t1.im * t2.im).sum())
    im = int((t1.im * t2.re).sum() - (t1.re * t2.im).sum())
    ncols = t1.shape[1]
    return gr(Fraction(re, ncols), Fraction(im, ncols))


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
    base = hs_inner(t1.matrix, t2.matrix)
    if h & 1 and base:
        raise ValueError("inner product leaves the Gaussian rationals")
    return base * gr(Fraction(2) ** (h // 2)) if base else ZERO


# -- unit-phase monomial systems: a gain graph over Z/4 ---------------------


def gain_graph_nullspace(edges, ncols):
    """Nullspace of the constraints x[a] = i^k x[b], given as edges (a, b, k).

    The columns joined by edges form components; within one component every
    x[c] is i^p[c] times the component's root value, with potentials p kept
    by a union-find.  A component is inconsistent, and forced to zero, when
    a cycle's gains disagree; a self-loop (c, c, k) with k != 0 is such a
    cycle, so (c, c, 2) is how a caller forces x[c] = 0.  Returns one vector
    per consistent component, in order of its smallest column, as a pair
    (re, im) of read-only int64 arrays with entries in {0, +/-1, +/-i} and
    1 at that column.

    The solve is exact with no rational arithmetic: potentials are integers
    reduced mod 4, so nothing overflows and nothing is divided.
    """
    parent = list(range(ncols))
    pot = [0] * ncols  # x[c] = i^pot[c] x[parent[c]]
    dead = [False] * ncols  # meaningful at roots only

    def find(c):
        path = []
        while parent[c] != c:
            path.append(c)
            c = parent[c]
        acc = 0
        for v in reversed(path):  # nearest the root first
            acc = (acc + pot[v]) & 3
            pot[v] = acc
            parent[v] = c
        return c

    for a, b, k in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            if (pot[a] - pot[b] - k) & 3:
                dead[ra] = True
        else:
            # x[ra] = i^-pot[a] x[a] = i^(k + pot[b] - pot[a]) x[rb]
            parent[ra] = rb
            pot[ra] = (k + pot[b] - pot[a]) & 3
            dead[rb] = dead[rb] or dead[ra]

    heads = {}  # root -> (row, potential of the component's smallest column)
    cells = []  # (row, column, exponent of i)
    for c in range(ncols):
        r = find(c)
        if not dead[r]:
            row, p0 = heads.setdefault(r, (len(heads), pot[c]))
            cells.append((row, c, pot[c] - p0))
    re = np.zeros((len(heads), ncols), dtype=np.int64)
    im = np.zeros_like(re)
    if cells:
        rows, cols, exps = np.array(cells, dtype=np.int64).T
        re[rows, cols], im[rows, cols] = times_i(1, 0, exps)
    re.setflags(write=False)
    im.setflags(write=False)
    return list(zip(re, im))
