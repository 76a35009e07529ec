"""Explicit unitary matrix models of CL(n) irreps and exact intertwiners.

Generator images are built from anticommuting Hermitian unitaries (tensor
products of 2x2 blocks with entries in {0, +/-1, +/-i}), so every image is a
generalized permutation matrix whose phases are powers of i.  Each
intertwiner constraint then ties two cells, T[a] = i^k T[b], and an
intertwiner space is the nullspace of that gain graph over Z/4, one basis
vector per consistent component (linalg.gain_graph_nullspace); invariant
tensors are solved the same way.  A Monomial stores each phase as its
exponent k in range(4) (meaning i^k), so the images, their products and the
constraint gains are all integers mod 4.  Intertwiners are Gaussian-integer
int64 arrays (linalg.Matrix); phases act on them through the one rotation
linalg.times_i, and hat and the coefficient checks gather whole image
tables of perms and phases through elements.mult_table.  Traces are
checked against the closed-form characters, which keeps the two modules
mutually verifying.

The only irrational scalars in the theory are sqrt(2)^k normalization
factors; those ride along symbolically in ScaledMatrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exact import gr
from .elements import (
    CliffordElement,
    TripleElement,
    GuardError,
    element_index,
    embed,
    enumerate_group,
    identity,
    multiply,
    mult_table,
)
from .characters import IrrepLabel, format_label, irreps, top_phase_re_im
from .linalg import (
    Matrix,
    Monomial,
    ScaledMatrix,
    complex_matmul,
    gain_graph_nullspace,
    times_i,
)

MAX_RHO_MODEL_DEGREE = 6
MAX_ETA_DEGREE = 3

_PAULI_X = Monomial(2, (1, 0), (0, 0))
_PAULI_Y = Monomial(2, (1, 0), (1, 3))
_PAULI_Z = Monomial(2, (0, 1), (0, 2))


class PhaseFixError(RuntimeError):
    """The top-element phase could not be matched to the character value."""


def _tensor_chain(factors):
    out = factors[0]
    for f in factors[1:]:
        out = out.kron(f)
    return out


def _pair_gammas(q: int):
    """2q anticommuting Hermitian unitaries on 2^q dimensions."""
    gammas = []
    for j in range(q):
        pre = [_PAULI_Z] * j
        post = [Monomial.identity(2)] * (q - j - 1)
        gammas.append(_tensor_chain(pre + [_PAULI_X] + post))
        gammas.append(_tensor_chain(pre + [_PAULI_Y] + post))
    return gammas


class CliffordMatrixRep:
    """Matrix model of a single irrep of CL(n); images are monomial."""

    def __init__(self, label: IrrepLabel):
        self.label = label
        self.n = label.degree
        self.dim = label.dim
        self._cache = {}
        if label.kind == "chi":
            self._gammas = None
        else:
            if self.n > MAX_RHO_MODEL_DEGREE:
                raise GuardError(
                    f"matrix model for {format_label(label)} guarded at n <= {MAX_RHO_MODEL_DEGREE}"
                )
            self._gammas = self._build_gammas()

    def _build_gammas(self):
        n = self.n
        if n % 2 == 0:
            return _pair_gammas(n // 2)
        m = (n - 1) // 2
        gammas = _pair_gammas(m)
        top = (
            _tensor_chain([_PAULI_Z] * m) if m else Monomial.identity(1)
        )
        gammas.append(top)
        # solve the sign of the last generator so the trace of the image of
        # gamma_{X_n} matches the character value (the c convention).
        prod = gammas[0]
        for g in gammas[1:]:
            prod = prod @ g
        cr, ci = top_phase_re_im(n)
        pm = 1 if self.label.kind == "rho+" else -1
        target = gr(pm * cr * (1 << m), pm * ci * (1 << m))
        if prod.trace() == target:
            return gammas
        gammas[-1] = top.times_i(2)
        prod = gammas[0]
        for g in gammas[1:]:
            prod = prod @ g
        if prod.trace() != target:
            raise PhaseFixError(
                f"cannot fix top-element phase for {format_label(self.label)}"
            )
        return gammas

    def _subset_image(self, mask: int) -> Monomial:
        if mask == 0:
            return Monomial.identity(self.dim)
        key = ("subset", mask)
        if key not in self._cache:
            low = mask & -mask
            rest = mask ^ low
            g = self._gammas[low.bit_length() - 1]
            self._cache[key] = g @ self._subset_image(rest) if rest else g
        return self._cache[key]

    def image(self, g: CliffordElement) -> Monomial:
        if g.degree != self.n:
            raise ValueError("element degree does not match representation")
        if self.label.kind == "chi":
            odd = (self.label.mask & g.mask).bit_count() & 1
            return Monomial(1, (0,), (2 * odd,))
        mono = self._subset_image(g.mask)
        return mono.times_i(2) if g.sign < 0 else mono


class ConjugateRep:
    """theta': entrywise conjugate matrices (= transpose-inverse, unitary)."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim

    def image(self, g) -> Monomial:
        return self.base.image(g).conj()


class TripleProductRep:
    """rho1 boxtimes rho2 boxtimes theta on CL(n) x CL(n) x CL(m)."""

    def __init__(self, rep1, rep2, rep_theta, m: int):
        self.rep1, self.rep2, self.rep_theta = rep1, rep2, rep_theta
        self.m = m
        self.dim = rep1.dim * rep2.dim * rep_theta.dim

    def image(self, t: TripleElement) -> Monomial:
        h = CliffordElement(self.m, t.h.sign, t.h.mask)
        return (
            self.rep1.image(t.g1)
            .kron(self.rep2.image(t.g2))
            .kron(self.rep_theta.image(h))
        )


class TensorRestrictionRep:
    """Res_{CL(m)} (rho1 (x) rho2) as a representation of CL(m)."""

    def __init__(self, rep1, rep2, n: int, m: int):
        self.rep1, self.rep2 = rep1, rep2
        self.n, self.m = n, m
        self.dim = rep1.dim * rep2.dim

    def image(self, h: CliffordElement) -> Monomial:
        g = embed(h, self.n)
        return self.rep1.image(g).kron(self.rep2.image(g))


class EtaRep:
    """Permutation representation of G x G x H on L(G x G).

    The pair (a, b) sits at element_index(a) * |G| + element_index(b), so
    the pair of identities is coordinate 0.
    """

    def __init__(self, n: int, m: int):
        if n > MAX_ETA_DEGREE:
            raise GuardError(f"eta matrix model guarded at n <= {MAX_ETA_DEGREE}")
        self.n, self.m = n, m
        self.dim = 1 << (2 * n + 2)

    def image(self, t: TripleElement) -> Monomial:
        """Column (a, b) goes to row (g1 a g2^-1, g2 b h^-1)."""
        tab, inv = mult_table(self.n)
        i1, i2, ih = (element_index(g) for g in (t.g1, t.g2, t.h))
        left = tab[tab[i1], inv[i2]]
        right = tab[tab[i2], inv[ih]]
        perm = (left[:, None] * len(left) + right).ravel()
        return Monomial(self.dim, tuple(perm.tolist()), (0,) * self.dim)


@lru_cache(maxsize=None)
def build_matrix_rep(label: IrrepLabel) -> CliffordMatrixRep:
    return CliffordMatrixRep(label)


@lru_cache(maxsize=None)
def _image_arrays(label: IrrepLabel):
    """(perm, phase): read-only int64 arrays of shape (|G|, dim) whose row
    element_index(g) holds the perm and phase exponents of the image of g."""
    images = [build_matrix_rep(label).image(g) for g in enumerate_group(label.degree)]
    perm = np.array([m.perm for m in images], dtype=np.int64)
    phase = np.array([m.phase for m in images], dtype=np.int64)
    perm.setflags(write=False)
    phase.setflags(write=False)
    return perm, phase


def clifford_generators(n: int):
    """-1 together with gamma_1..gamma_n generates CL(n)."""
    gens = [CliffordElement(n, -1, 0)]
    gens += [CliffordElement(n, 1, 1 << j) for j in range(n)]
    return gens


def triple_generators(n: int, m: int):
    """Factor-wise generators of CL(n) x CL(n) x CL(m)."""
    e_n = identity(n)
    gens = []
    for g in clifford_generators(n):
        gens.append(TripleElement(g, e_n, e_n, m))
        gens.append(TripleElement(e_n, g, e_n, m))
    for h in clifford_generators(m):
        gens.append(TripleElement(e_n, e_n, embed(h, n), m))
    return gens


# -- intertwiner spaces -----------------------------------------------------


@dataclass
class IntertwinerBasis:
    """Exact basis of Hom_G(src, dst) = {T : T src(g) = dst(g) T}."""

    src_dim: int
    dst_dim: int
    basis: list  # list[Matrix], dst_dim x src_dim

    @property
    def dimension(self) -> int:
        return len(self.basis)


def intertwines(t: Matrix, src_rep, dst_rep, g) -> bool:
    src_mono = src_rep.image(g)
    dst_mono = dst_rep.image(g)
    return src_mono.apply_right(t) == dst_mono.apply_left(t)


def intertwiner_space(src_rep, dst_rep, generators, verify_on=()) -> IntertwinerBasis:
    """Exact basis of the intertwiners, from the generator constraints.

    All representation images here are monomial with unit phases, so each
    constraint ties two cells of T by a power of i and the system is solved
    as a gain graph.  Basis elements are re-verified on `verify_on` group
    elements.
    """
    ds, dd = src_rep.dim, dst_rep.dim
    edges = []
    for g in generators:
        src = src_rep.image(g)
        dst = dst_rep.image(g)
        for r in range(dd):
            # dst(g)T = T src(g) at entry (dst_perm[r], c):
            #   i^q T[r, c] = i^src_phase[c] T[dst_perm[r], src_perm[c]]
            q = dst.phase[r]
            a0, b0 = r * ds, dst.perm[r] * ds
            edges.extend(
                (a0 + c, b0 + src.perm[c], (src.phase[c] - q) & 3) for c in range(ds)
            )
    vecs = gain_graph_nullspace(edges, dd * ds)
    basis = [Matrix(re.reshape(dd, ds), im.reshape(dd, ds)) for re, im in vecs]
    for t in basis:
        for g in verify_on:
            if not intertwines(t, src_rep, dst_rep, g):
                raise AssertionError("computed intertwiner fails on a group element")
    return IntertwinerBasis(ds, dd, basis)


# -- the Frobenius-reciprocity-type isomorphism -----------------------------


def _log2(x: int) -> int:
    k = x.bit_length() - 1
    if 1 << k != x:
        raise ValueError(f"{x} is not a power of two")
    return k


class FrobeniusContext:
    """Everything needed to verify the tilde/hat isometry for one triple.

    Bundles the matrix models of rho1, rho2 (irreps of CL(n)), theta (irrep
    of CL(m)), the permutation model eta on L(G x G), and the coordinate
    conventions tying them together.
    """

    def __init__(self, n: int, m: int, rho1: IrrepLabel, rho2: IrrepLabel, theta: IrrepLabel):
        self.n, self.m = n, m
        self.rho1, self.rho2, self.theta = rho1, rho2, theta
        self.rep1 = build_matrix_rep(rho1)
        self.rep2 = build_matrix_rep(rho2)
        self.rep_theta = build_matrix_rep(theta)
        self.eta = EtaRep(n, m)
        self.triple_rep = TripleProductRep(self.rep1, self.rep2, self.rep_theta, m)
        self.res_rep = TensorRestrictionRep(self.rep1, self.rep2, n, m)
        self.theta_prime = ConjugateRep(self.rep_theta)
        self.d1, self.d2, self.dt = self.rep1.dim, self.rep2.dim, self.rep_theta.dim
        self.group_order = 1 << (n + 1)

    # Hom(rho1 x rho2 x theta, eta) and Hom(Res(rho1 (x) rho2), theta')

    def hom_triple_eta(self, verify_on=()) -> IntertwinerBasis:
        return intertwiner_space(
            self.triple_rep, self.eta, triple_generators(self.n, self.m), verify_on
        )

    def hom_res_theta_prime(self, verify_on=None) -> IntertwinerBasis:
        gens = clifford_generators(self.m)
        if verify_on is None:
            verify_on = enumerate_group(self.m)
        return intertwiner_space(self.res_rep, self.theta_prime, gens, verify_on)

    # coordinate maps

    def _by_theta(self, re, im) -> Matrix:
        """A row over the columns (i, j, ell) of (V1 (x) V2 (x) W), laid out
        as the dt x (d1 d2) matrix with entry [ell, (i, j)]."""
        return Matrix(re.reshape(-1, self.dt).T, im.reshape(-1, self.dt).T)

    def tilde(self, t) -> ScaledMatrix:
        """T -> T~ with [T~(v1 (x) v2)](w) = (|G|/sqrt(d_theta)) [T(...)](1,1).

        The pair of identities is row 0 of T (EtaRep's coordinates); the
        entries are those of T, unchanged.
        """
        if isinstance(t, Matrix):
            t = ScaledMatrix(0, t)
        half = 2 * _log2(self.group_order) - _log2(self.dt)
        return ScaledMatrix(t.half + half, self._by_theta(t.matrix.re[0], t.matrix.im[0]))

    def hat(self, s) -> ScaledMatrix:
        """S -> S^ mapping Hom(Res(rho1 (x) rho2), theta') back into Hom(.., eta).

        Row (g1, g2), column (i, j, ell) of S^ is i^k S[ell, src], where
        rho1(g2^-1 g1^-1) (x) rho2(g2^-1) takes column (i, j) to row src
        with phase i^k: the images are gathered from their perm and phase
        tables by the mult_table rows, for all (g1, g2) at once.  Entries
        are units times entries of S, so nothing grows.
        """
        if isinstance(s, Matrix):
            s = ScaledMatrix(0, s)
        tab, inv = mult_table(self.n)
        perm1, phase1 = _image_arrays(self.rho1)
        perm2, phase2 = _image_arrays(self.rho2)
        left = tab[inv, inv[:, None]]  # [i1, i2] = index of g2^-1 g1^-1
        src = perm1[left][..., None] * self.d2 + perm2[inv][:, None, :]
        k = phase1[left][..., None] + phase2[inv][:, None, :]  # (G, G, d1, d2)
        re, im = times_i(s.matrix.re.T[src], s.matrix.im.T[src], k[..., None])
        rows = self.group_order**2
        half = _log2(self.dt) - 2 * _log2(self.group_order)
        return ScaledMatrix(
            s.half + half, Matrix(re.reshape(rows, -1), im.reshape(rows, -1))
        )

    # invariant tensors and the Prop-3.3 style operators

    def invariant_tensors(self):
        """Basis of (V1 (x) V2 (x) W)^(H~): fixed vectors of the diagonal
        action, each an (re, im) pair of int64 vectors."""
        edges = []
        for h in enumerate_group(self.m):
            hh = embed(h, self.n)
            mono = self.triple_rep.image(TripleElement(hh, hh, hh, self.m))
            # pi(t) v = v at coordinate perm[c]: v[perm[c]] = i^phase[c] v[c]
            edges.extend(zip(mono.perm, range(mono.size), mono.phase))
        return gain_graph_nullspace(edges, self.triple_rep.dim)

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
        """
        n = self.n
        g_elements = enumerate_group(n)
        column = Matrix(b[0][:, None], b[1][:, None])
        rows = []
        for g1 in g_elements:
            for g2 in g_elements:
                gx = TripleElement(multiply(g1, g2), g2, identity(n), self.m)
                # row entries <e_col, sigma(g_x) b>: the conjugate of sigma(g_x) b
                rows.append(self.triple_rep.image(gx).apply_left(column))
        re = np.hstack([w.re for w in rows]).T
        im = np.hstack([w.im for w in rows]).T
        half = _log2(self.triple_rep.dim) - _log2(self.eta.dim)
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
    most |G| <= 16 unit terms, so nothing overflows int64.
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
        perm, phase = _image_arrays(label)
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
