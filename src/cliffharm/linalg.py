"""Exact linear algebra over the Gaussian rationals.

Three matrix flavours:

* Matrix    -- dense, entries GaussianRational; used for intertwiners.
* Monomial  -- one nonzero per row/column, each a power of i stored as its
               exponent k in range(4); every representation matrix in this
               package (gamma products, permutation images) is monomial, so
               products, Kronecker products and conjugates are integer
               additions and negations mod 4.  Exponents become Gaussian
               rationals (exact.UNITS, GaussianRational.times_i) only where a
               monomial meets a dense Matrix.
* ScaledMatrix -- a Matrix together with a power of sqrt(2); the only
               irrationals in the theory are sqrt(2^k) normalization factors.

Every intertwiner constraint between monomial images reads x[a] = i^k x[b];
such a system is a gain graph over Z/4, solved by gain_graph_nullspace with a
union-find on the same integer exponents.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import GaussianRational, ZERO, ONE, UNITS, gr


class Matrix:
    """Dense matrix with GaussianRational entries (immutable by convention)."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0

    @staticmethod
    def zero(nrows, ncols):
        return Matrix([[ZERO] * ncols for _ in range(nrows)])

    @staticmethod
    def identity(n):
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other):
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __neg__(self):
        return Matrix([[-a for a in r] for r in self.rows])

    def scale(self, s):
        return Matrix([[a * s for a in r] for r in self.rows])

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch")
        ot = list(zip(*other.rows))
        out = []
        for r in self.rows:
            out.append(
                [
                    sum((a * b for a, b in zip(r, col) if a and b), ZERO)
                    for col in ot
                ]
            )
        return Matrix(out)

    def conj_transpose(self):
        return Matrix(
            [
                [self.rows[i][j].conjugate() for i in range(self.nrows)]
                for j in range(self.ncols)
            ]
        )

    def trace(self):
        return sum((self.rows[i][i] for i in range(min(self.nrows, self.ncols))), ZERO)

    def is_zero(self):
        return all(not a for r in self.rows for a in r)

    def kron(self, other):
        out = []
        for ra in self.rows:
            for rb in other.rows:
                out.append([a * b for a in ra for b in rb])
        return Matrix(out)

    def flatten(self):
        return [a for r in self.rows for a in r]

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


def hs_inner(t1: Matrix, t2: Matrix) -> GaussianRational:
    """Normalized Hilbert-Schmidt product (1/ncols) tr(t2* t1)."""
    if t1.ncols != t2.ncols or t1.nrows != t2.nrows:
        raise ValueError("shape mismatch in Hilbert-Schmidt product")
    total = ZERO
    for r1, r2 in zip(t1.rows, t2.rows):
        for a, b in zip(r1, r2):
            if a and b:
                total = total + a * b.conjugate()
    return total / t1.ncols


@dataclass(frozen=True)
class Monomial:
    """Generalized permutation matrix: column j carries i^phase[j] at row perm[j].

    phase holds integer exponents in range(4).
    """

    size: int
    perm: tuple
    phase: tuple

    @staticmethod
    def identity(size):
        return Monomial(size, tuple(range(size)), (0,) * size)

    def __matmul__(self, other: "Monomial") -> "Monomial":
        if self.size != other.size:
            raise ValueError("monomial size mismatch")
        perm = tuple(self.perm[other.perm[j]] for j in range(self.size))
        phase = tuple(
            (other.phase[j] + self.phase[other.perm[j]]) & 3 for j in range(self.size)
        )
        return Monomial(self.size, perm, phase)

    def times_i(self, k: int) -> "Monomial":
        """i^k * self."""
        return Monomial(self.size, self.perm, tuple((p + k) & 3 for p in self.phase))

    def conj(self) -> "Monomial":
        """Entrywise conjugate (same support)."""
        return Monomial(self.size, self.perm, tuple(-p & 3 for p in self.phase))

    def conj_transpose(self) -> "Monomial":
        inv = [0] * self.size
        for j, i in enumerate(self.perm):
            inv[i] = j
        phase = tuple(-self.phase[inv[j]] & 3 for j in range(self.size))
        return Monomial(self.size, tuple(inv), phase)

    def kron(self, other: "Monomial") -> "Monomial":
        sz = self.size * other.size
        perm = [0] * sz
        phase = [0] * sz
        for j1 in range(self.size):
            for j2 in range(other.size):
                col = j1 * other.size + j2
                perm[col] = self.perm[j1] * other.size + other.perm[j2]
                phase[col] = (self.phase[j1] + other.phase[j2]) & 3
        return Monomial(sz, tuple(perm), tuple(phase))

    def trace(self) -> GaussianRational:
        return sum(
            (UNITS[self.phase[j]] for j in range(self.size) if self.perm[j] == j), ZERO
        )

    def dense(self) -> Matrix:
        rows = [[ZERO] * self.size for _ in range(self.size)]
        for j in range(self.size):
            rows[self.perm[j]][j] = UNITS[self.phase[j]]
        return Matrix(rows)

    def apply_left(self, mat: Matrix) -> Matrix:
        """self @ mat without densifying self."""
        out = [None] * self.size
        for j in range(self.size):
            out[self.perm[j]] = [a.times_i(self.phase[j]) for a in mat.rows[j]]
        return Matrix(out)

    def apply_right(self, mat: Matrix) -> Matrix:
        """mat @ self without densifying self."""
        out = []
        for r in mat.rows:
            out.append([r[self.perm[j]].times_i(self.phase[j]) for j in range(self.size)])
        return Matrix(out)


@dataclass(frozen=True)
class ScaledMatrix:
    """2^(half/2) * matrix; keeps sqrt(2) factors exact.

    half is an integer exponent of sqrt(2).  Construction normalises it to
    {0, 1} by absorbing whole powers of two into the matrix, and to 0 for a
    zero matrix, so equal values have equal fields and the generated
    equality and hashing compare them.
    """

    half: int
    matrix: Matrix

    def __post_init__(self):
        if self.matrix.is_zero():
            object.__setattr__(self, "half", 0)  # zero at any scale is zero
            return
        k, r = divmod(self.half, 2)
        if k:
            object.__setattr__(self, "half", r)
            object.__setattr__(self, "matrix", self.matrix.scale(gr(Fraction(2) ** k)))

    def is_zero(self):
        return self.matrix.is_zero()


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
    per consistent component, in order of its smallest column, with entries
    in {0, +/-1, +/-i} and 1 at that column.

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

    basis = {}  # root -> (vector, potential of the component's smallest column)
    for c in range(ncols):
        r = find(c)
        if dead[r]:
            continue
        if r not in basis:
            basis[r] = ([ZERO] * ncols, pot[c])
        vec, p0 = basis[r]
        vec[c] = UNITS[(pot[c] - p0) & 3]
    return [vec for vec, _ in basis.values()]
