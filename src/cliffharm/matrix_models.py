"""Explicit unitary matrix models of CL(n) irreps and exact intertwiners.

Generator images are built from anticommuting Hermitian unitaries (tensor
products of 2x2 blocks with entries in {0, +/-1, +/-i}), so every image is a
generalized permutation matrix whose phases are powers of i.  Every model
is held in the one format of linalg: read-only int64 (perm, phase) tables
whose leading axes index element positions and whose column j carries
i^phase[j] at row perm[j].  build_matrix_rep tabulates an irrep on all of
CL(n); the models built from irreps (rho1 x rho2 x theta, theta',
Res(rho1 (x) rho2) and the permutation model eta) are gathers of those
rows at element indices, combined by linalg.kron.

Each intertwiner constraint then ties two cells, T[a] = i^k T[b], and one
generator's constraints permute the cells.  An intertwiner space is the
nullspace of that gain graph over Z/4, one basis vector per consistent orbit
(linalg.gain_graph_nullspace); the maps and gains of all generators come
from one broadcast, and invariant tensors are solved the same way.
Intertwiners are Gaussian-integer int64 arrays (linalg.Matrix); phases act
on them through the one rotation linalg.times_i.  Traces are checked
against the closed-form characters, which keeps the two modules mutually
verifying.

The only irrational scalars in the theory are sqrt(2)^k normalization
factors; those ride along symbolically in ScaledMatrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .elements import DegreeMismatchError, GuardError, _parity, embed_index, mult_table
from .characters import IrrepLabel, format_label, irreps, top_phase_re_im
from .gelfand import TripleIrrepLabel
from .linalg import (
    Matrix,
    ScaledMatrix,
    complex_matmul,
    compose,
    gain_graph_nullspace,
    kron,
    times_i,
    trace,
)

MAX_RHO_MODEL_DEGREE = 6
# A spin triple's C7 takes about 0.5 s and 181 MB at (5, 5), 0.5 s and 173 MB
# at (5, 4), and the coefficient identities to n = 5 0.2 s and 40 MB (2-CPU
# VM).  At n = 6 the all-spin triple's 512 x 16,384 cells hold a zero Hom
# space, as c = (-1, -1, -1) acts as -I on sigma and as I on eta; a triple
# with a nonzero space has at most 64 x 16,384 (about 1 M) cells, and ROADMAP
# measures hom_triple_eta on those at 699-731 MB with int64 maps.
MAX_ETA_DEGREE = 5

# (perm, phase) of the 2x2 blocks, by name
_BLOCKS = {"I": ((0, 1), (0, 0)), "X": ((1, 0), (0, 0)),
           "Y": ((1, 0), (1, 3)), "Z": ((0, 1), (0, 2))}


class PhaseFixError(RuntimeError):
    """The top-element phase could not be matched to the character value."""


def _gammas(n: int):
    """(perm, phase) of shape (n, 2^(n // 2)): n anticommuting Hermitian
    unitaries, Z..Z X I..I and Z..Z Y I..I for each of the n // 2 tensor
    slots (Jordan-Wigner), then Z..Z for odd n."""
    q = n // 2
    words = ["Z" * j + xy + "I" * (q - j - 1) for j in range(q) for xy in "XY"]
    words += ["Z" * q] * (n % 2)
    blocks = np.array([[_BLOCKS[c] for c in w] for w in words], dtype=np.int64).reshape(n, q, 2, 2)
    out = (np.zeros((n, 1), dtype=np.int64), np.zeros((n, 1), dtype=np.int64))
    for j in range(q):
        out = kron(out, (blocks[:, j, 0], blocks[:, j, 1]))
    return out


def _gamma_products(gammas):
    """The image table of the ordered products gamma_A, row element_index:
    gamma_A with top index j is gamma_(A - j) gamma_j, so the rows of the
    masks in [2^j, 2^(j+1)) are one compose, and -x adds 2 to the phase."""
    n, dim = gammas[0].shape
    perm = np.empty((2 << n, dim), dtype=np.int64)
    phase = np.empty_like(perm)
    perm[0], phase[0] = np.arange(dim), 0
    for j in range(n):
        low, high = slice(0, 1 << j), slice(1 << j, 2 << j)
        perm[high], phase[high] = compose((perm[low], phase[low]), (gammas[0][j], gammas[1][j]))
    perm[1 << n:], phase[1 << n:] = perm[: 1 << n], (phase[: 1 << n] + 2) & 3
    return perm, phase


@lru_cache(maxsize=None)
def build_matrix_rep(label: IrrepLabel):
    """(perm, phase): read-only int64 tables of shape (2^(n+1), dim) whose
    row element_index(g) is the image of g under the irrep label."""
    n = label.degree
    if label.kind == "chi":
        # chi_A(+/- gamma_T) = (-1)^|A & T| = i^(2 |A & T|)
        idx = np.arange(2 << n, dtype=np.int64)
        perm = np.zeros((2 << n, 1), dtype=np.int64)
        phase = 2 * _parity(label.mask & idx)[:, None]
    else:
        if n > MAX_RHO_MODEL_DEGREE:
            msg = f"matrix model for {format_label(label)} guarded at n <= {MAX_RHO_MODEL_DEGREE}"
            raise GuardError(msg)
        gammas = _gammas(n)
        perm, phase = _gamma_products(gammas)
        if n % 2:
            # solve the sign of the last generator so the trace of the image
            # of gamma_{X_n} matches the character value (the c convention)
            m, top = (n - 1) // 2, (1 << n) - 1
            cr, ci = top_phase_re_im(n)
            pm = 1 if label.kind == "rho+" else -1
            target = (pm * cr << m, pm * ci << m)
            if trace((perm[top], phase[top])) != target:
                gammas[1][-1] ^= 2
                perm, phase = _gamma_products(gammas)
                if trace((perm[top], phase[top])) != target:
                    raise PhaseFixError(f"cannot fix top-element phase for {format_label(label)}")
    perm.setflags(write=False)
    phase.setflags(write=False)
    return perm, phase


def _generators(n: int):
    """Element indices of -1 and gamma_1..gamma_n, which generate CL(n)."""
    return np.array([1 << n] + [1 << j for j in range(n)], dtype=np.int64)


# -- intertwiner spaces -----------------------------------------------------


@dataclass
class IntertwinerBasis:
    """Exact basis of Hom_G(src, dst) = {T : T src(g) = dst(g) T}."""

    basis: list  # list[Matrix], dim dst x dim src

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _cell_pairs(src, dst):
    """dst(g) T = T src(g) at entry (dst_perm[r], c) reads
    i^dst_phase[r] T[r, c] = i^src_phase[c] T[dst_perm[r], src_perm[c]]:
    the row and column gathers and both exponents, each of shape
    (rows of the tables, dst dim, src dim)."""
    (sp, sk), (dp, dk) = src, dst
    return dp[:, :, None], sp[:, None, :], dk[:, :, None], sk[:, None, :]


def intertwines(t: Matrix, src, dst) -> bool:
    """Whether dst(g) T = T src(g) for every row g of the image tables src
    and dst, in one gather over all rows."""
    rows, cols, q, p = _cell_pairs(src, dst)
    lhs = times_i(t.re, t.im, q)
    rhs = times_i(t.re[rows, cols], t.im[rows, cols], p)
    return not ((lhs[0] != rhs[0]).any() or (lhs[1] != rhs[1]).any())


def intertwiner_space(src, dst) -> IntertwinerBasis:
    """Exact basis of the intertwiners from src to dst, image tables with one
    row per generator.

    Every image is monomial with unit phases, so each generator's
    constraints tie every cell of T to one other cell by a power of i: a
    permutation of the cells with gains in Z/4, built for all generators by
    one broadcast and solved as a gain graph.
    """
    rows, cols, q, p = _cell_pairs(src, dst)
    dd, ds = rows.shape[1], cols.shape[2]
    maps, gains = rows * ds + cols, (p - q) & 3
    vecs = gain_graph_nullspace(maps.reshape(len(maps), -1), gains.reshape(len(gains), -1))
    basis = [Matrix(re.reshape(dd, ds), im.reshape(dd, ds)) for re, im in vecs]
    return IntertwinerBasis(basis)


# -- the Frobenius-reciprocity-type isomorphism -----------------------------


def _log2(x: int) -> int:
    k = x.bit_length() - 1
    if 1 << k != x:
        raise ValueError(f"{x} is not a power of two")
    return k


def _rows(table, i):
    """The images at element indices i (an int or an int64 array)."""
    return table[0][i], table[1][i]


class FrobeniusContext:
    """Everything needed to verify the tilde/hat isometry for one triple.

    Bundles the image tables of rho1, rho2 (irreps of CL(n)) and theta
    (irrep of CL(m)), and builds from them, by gathers at element indices,
    the models rho1 x rho2 x theta, theta', Res(rho1 (x) rho2) and the
    permutation model eta on L(G x G), with the coordinate conventions tying
    them together.  Indices i1, i2 are in CL(n) and ih in CL(m).
    """

    def __init__(self, n: int, m: int, rho1: IrrepLabel, rho2: IrrepLabel, theta: IrrepLabel):
        TripleIrrepLabel(rho1, rho2, theta)  # a valid triple: shared n, m in {n, n - 1}
        if (rho1.degree, theta.degree) != (n, m):
            raise DegreeMismatchError(
                f"labels of degrees ({rho1.degree}, {theta.degree}) given for (n, m) = ({n}, {m})"
            )
        if n > MAX_ETA_DEGREE:
            raise GuardError(f"eta matrix model guarded at n <= {MAX_ETA_DEGREE}")
        self.n, self.m = n, m
        self.rep1 = build_matrix_rep(rho1)
        self.rep2 = build_matrix_rep(rho2)
        self.rep_theta = build_matrix_rep(theta)
        self.d1, self.d2, self.dt = rho1.dim, rho2.dim, theta.dim
        self.group_order = 1 << (n + 1)
        self._embed = embed_index(np.arange(2 << m, dtype=np.int64), m, n)

    # the derived models, at element indices broadcast against each other

    def _triple(self, i1, i2, ih):
        """rho1 x rho2 x theta at (g1, g2, h)."""
        return kron(kron(_rows(self.rep1, i1), _rows(self.rep2, i2)), _rows(self.rep_theta, ih))

    def _eta(self, i1, i2, ih):
        """eta at (g1, g2, h): column (a, b), at a * |G| + b (so the pair of
        identities is column 0), goes to row (g1 a g2^-1, g2 b h^-1), the
        Kronecker product of two permutations of G."""
        tab, inv = mult_table(self.n)
        left = tab[tab[i1], inv[i2][..., None]]
        right = tab[tab[i2], inv[self._embed[ih]][..., None]]
        return kron((left, 0 * left), (right, 0 * right))

    def _res(self, ih):
        """Res_{CL(m)} (rho1 (x) rho2) at h."""
        e = self._embed[ih]
        return kron(_rows(self.rep1, e), _rows(self.rep2, e))

    def _theta_prime(self, ih):
        """theta' at h: the entrywise conjugate (= transpose-inverse) of theta."""
        perm, phase = _rows(self.rep_theta, ih)
        return perm, -phase & 3

    # Hom(rho1 x rho2 x theta, eta) and Hom(Res(rho1 (x) rho2), theta')

    def _triple_eta_generators(self):
        """(src, dst) at the factor-wise generators of CL(n) x CL(n) x CL(m):
        (g, 1, 1) and (1, g, 1) for each generator g of CL(n), then
        (1, 1, h) for each generator h of CL(m)."""
        gn, gm = _generators(self.n), _generators(self.m)
        i1, i2, ih = np.zeros((3, 2 * len(gn) + len(gm)), dtype=np.int64)
        i1[0:2 * len(gn):2], i2[1:2 * len(gn):2], ih[2 * len(gn):] = gn, gn, gm
        return self._triple(i1, i2, ih), self._eta(i1, i2, ih)

    def _res_theta_prime_generators(self):
        gens = _generators(self.m)
        return self._res(gens), self._theta_prime(gens)

    def hom_triple_eta(self) -> IntertwinerBasis:
        return intertwiner_space(*self._triple_eta_generators())

    def hom_res_theta_prime(self) -> IntertwinerBasis:
        """Solved on the generators of CL(m), then re-verified on every
        element of CL(m) as a safety check."""
        space = intertwiner_space(*self._res_theta_prime_generators())
        every = np.arange(2 << self.m)
        src, dst = self._res(every), self._theta_prime(every)
        if not all(intertwines(t, src, dst) for t in space.basis):
            raise AssertionError("computed intertwiner fails on a group element")
        return space

    # coordinate maps

    def _by_theta(self, re, im) -> Matrix:
        """A row over the columns (i, j, ell) of (V1 (x) V2 (x) W), laid out
        as the dt x (d1 d2) matrix with entry [ell, (i, j)]."""
        return Matrix(re.reshape(-1, self.dt).T, im.reshape(-1, self.dt).T)

    def tilde(self, t) -> ScaledMatrix:
        """T -> T~ with [T~(v1 (x) v2)](w) = (|G|/sqrt(d_theta)) [T(...)](1,1).

        The pair of identities is row 0 of T (eta's coordinates); the
        entries are those of T, unchanged.
        """
        half, t = (0, t) if isinstance(t, Matrix) else (t.half, t.matrix)
        half += 2 * _log2(self.group_order) - _log2(self.dt)
        return ScaledMatrix(half, self._by_theta(t.re[0], t.im[0]))

    def hat(self, s) -> ScaledMatrix:
        """S -> S^ mapping Hom(Res(rho1 (x) rho2), theta') back into Hom(.., eta).

        Row (g1, g2), column (i, j, ell) of S^ is i^k S[ell, src], where
        rho1(g2^-1 g1^-1) (x) rho2(g2^-1) takes column (i, j) to row src
        with phase i^k: the images are gathered from the image tables by
        the mult_table rows, for all (g1, g2) at once.  Entries are units
        times entries of S, so nothing grows.
        """
        half, s = (0, s) if isinstance(s, Matrix) else (s.half, s.matrix)
        src, k = self._hat_images
        re, im = times_i(s.re.T[src], s.im.T[src], k[..., None])
        rows = self.group_order**2
        half += _log2(self.dt) - 2 * _log2(self.group_order)
        return ScaledMatrix(half, Matrix(re.reshape(rows, -1), im.reshape(rows, -1)))

    @cached_property
    def _hat_images(self):
        """(src, k) of hat, gathered once per context."""
        tab, inv = mult_table(self.n)
        left = tab[inv, inv[:, None]]  # [i1, i2] = index of g2^-1 g1^-1
        return kron(_rows(self.rep1, left), _rows(self.rep2, inv))

    # invariant tensors and the Prop-3.3 style operators

    def invariant_tensors(self):
        """Basis of (V1 (x) V2 (x) W)^(H~): the intertwiners from the trivial
        representation of the diagonal CL(m), as (re, im) int64 vectors."""
        gens = _generators(self.m)
        e = self._embed[gens]
        trivial = np.zeros((2, len(gens), 1), dtype=np.int64)  # (perm, phase) of 1
        space = intertwiner_space(trivial, self._triple(e, e, gens))
        return [(t.re[:, 0], t.im[:, 0]) for t in space.basis]

    def operator_from_invariant(self, b) -> ScaledMatrix:
        """Prop-3.3 closed form: [T_B(v1 (x) v2 (x) w)](g1,g2) =
        (sqrt(d1 d2 dt)/|G|) conj B(rho1(g2^-1 g1^-1)v1, rho2(g2^-1)v2, w).

        b is the invariant tensor in coordinates; conj B on basis vectors
        recovers exactly those coordinates, so T_B is the lift of the
        corollary form tilde_from_invariant(b).
        """
        return self.hat(self.tilde_from_invariant(b))

    def operator_from_invariant_via_cosets(self, b) -> ScaledMatrix:
        """The generic T_w formula: (T_w v)(x) = sqrt(d/|X|) <v, sigma(g_x) w>.

        Independent route to operator_from_invariant (this is the content of
        the proposition): g_x = (g1 g2, g2, 1) maps the base point to (g1,g2).
        Row (g1, g2) holds the conjugate of sigma(g_x) b, whose entry
        perm[j] is i^phase[j] b[j].
        """
        tab, _ = mult_table(self.n)
        g1, g2 = np.divmod(np.arange(self.group_order**2), self.group_order)
        perm, phase = self._triple(tab[g1, g2], g2, 0)
        re, im = (np.empty_like(perm) for _ in "ri")
        for out, part in zip((re, im), times_i(b[0], b[1], phase)):
            np.put_along_axis(out, perm, part, axis=1)
        half = _log2(perm.shape[1]) - 2 * _log2(self.group_order)
        return ScaledMatrix(half, Matrix(re, -im))

    def tilde_from_invariant(self, b) -> ScaledMatrix:
        """Corollary form: [T~_B(v1 (x) v2)](w) = sqrt(d1 d2) conj B(v1,v2,w)."""
        return ScaledMatrix(_log2(self.d1 * self.d2), self._by_theta(*b))


# -- matrix coefficient identities ------------------------------------------


@dataclass
class MatrixCoefficientReport:
    n: int
    orthogonality_checked: int
    convolution_checked: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def matrix_coefficient_checks(n: int) -> MatrixCoefficientReport:
    """Verify the orthogonality and convolution identities for all matrix
    coefficients of all irreps of CL(n), exactly.

    The coefficient (rho, i, j) is the row u(g) = rho(g)[i, j] of one
    Gaussian-integer table with a column per group element.  Both identities
    are multiplied by d = dim rho1, so integers are compared:
    d sum_g u1(g) conj u2(g) = |G| [u1 = u2], one matmul; and
    d sum_x u1(x) u2(x^-1 g) = |G| [rho1 = rho2, j = h] u_(rho1, i, k)(g),
    one gather of u2 through mult_table and one matmul.  Each sum has at
    most |G| <= 64 unit terms, so nothing overflows int64.
    """
    if n > MAX_ETA_DEGREE:
        raise GuardError(f"matrix coefficient checks guarded at n <= {MAX_ETA_DEGREE}")
    order = 1 << (n + 1)
    labels = irreps(n)
    rows = [
        (a, i, j) for a, lab in enumerate(labels) for i in range(lab.dim) for j in range(lab.dim)
    ]
    lab_of, i_of, j_of = np.array(rows, dtype=np.int64).T
    dim = np.array([lab.dim for lab in labels], dtype=np.int64)[lab_of]
    first = np.searchsorted(lab_of, lab_of)  # the label's first row
    tables = []
    for label in labels:
        perm, phase = build_matrix_rep(label)
        # image(g) holds i^phase[g, j] at (perm[g, j], j): table [i, j, g]
        hit = (perm.T == np.arange(label.dim)[:, None, None]).astype(np.int64)
        tables.append(times_i(hit, 0, phase.T))
    u = [np.concatenate([t.reshape(-1, order) for t in part]) for part in zip(*tables)]
    gram_re, gram_im = complex_matmul(u, (u[0].T, -u[1].T))
    ort_ok = (dim[:, None] * gram_re == order * np.eye(len(rows), dtype=np.int64)) & (gram_im == 0)
    tab, inv = mult_table(n)
    # [x, (b, g)]: u_b(x^-1 g), with tab[inv][x, g] the index of x^-1 g
    conv = complex_matmul(u, [p[:, tab[inv]].transpose(1, 0, 2).reshape(order, -1) for p in u])
    same = (lab_of[:, None] == lab_of) & (j_of[:, None] == i_of)
    target = np.where(same, first[:, None] + i_of[:, None] * dim[:, None] + j_of, 0)
    con_ok = np.ones_like(same)
    for c, p in zip(conv, u):
        expect = np.where(same[..., None], order * p[target], 0)
        con_ok &= (dim[:, None, None] * c.reshape(expect.shape) == expect).all(axis=2)
    failures = []
    for a, b in zip(*np.nonzero(~(ort_ok & con_ok))):
        where = (
            format_label(labels[lab_of[a]]), (int(i_of[a]), int(j_of[a])),
            format_label(labels[lab_of[b]]), (int(i_of[b]), int(j_of[b])),
        )
        if not ort_ok[a, b]:
            failures.append(("ORT", *where))
        if not con_ok[a, b]:
            failures.append(("CON", *where))
    return MatrixCoefficientReport(n, len(rows) ** 2, len(rows) ** 2, failures)
