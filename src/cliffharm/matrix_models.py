"""Explicit unitary matrix models of CL(n) irreps and exact intertwiners.

Generator images are built from anticommuting Hermitian unitaries (tensor
products of 2x2 blocks with entries in {0, +/-1, +/-i}), so every image is a
generalized permutation matrix whose phases are powers of i.  Each
intertwiner constraint then ties two cells, T[a] = i^k T[b], and an
intertwiner space is the nullspace of that gain graph over Z/4, one basis
vector per consistent component (linalg.gain_graph_nullspace); invariant
tensors are solved the same way.  A Monomial stores each phase as its
exponent k in range(4) (meaning i^k), so the images, their products and the
constraint gains are all integers mod 4; phases become Gaussian rationals
only where they meet a dense Matrix (traces, hat, the coset formula).
Traces are checked against the closed-form characters, which keeps the two
modules mutually verifying.

The only irrational scalars in the theory are sqrt(2)^k normalization
factors; those ride along symbolically in ScaledMatrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exact import ZERO, gr
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
from .linalg import Matrix, Monomial, ScaledMatrix, gain_graph_nullspace

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
    basis = [
        Matrix([vec[r * ds : (r + 1) * ds] for r in range(dd)]) for vec in vecs
    ]
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
        group = enumerate_group(n)
        self._images1 = [self.rep1.image(g) for g in group]
        self._images2 = [self.rep2.image(g) for g in group]

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

    def _col(self, i, j, ell) -> int:
        return (i * self.d2 + j) * self.dt + ell

    def tilde(self, t) -> ScaledMatrix:
        """T -> T~ with [T~(v1 (x) v2)](w) = (|G|/sqrt(d_theta)) [T(...)](1,1).

        The pair of identities is row 0 of T (EtaRep's coordinates).
        """
        if isinstance(t, Matrix):
            t = ScaledMatrix(0, t)
        rows = [
            [
                t.matrix[0, self._col(i, j, ell)]
                for i in range(self.d1)
                for j in range(self.d2)
            ]
            for ell in range(self.dt)
        ]
        half = 2 * _log2(self.group_order) - _log2(self.dt)
        return ScaledMatrix(t.half + half, Matrix(rows))

    def hat(self, s) -> ScaledMatrix:
        """S -> S^ mapping Hom(Res(rho1 (x) rho2), theta') back into Hom(.., eta)."""
        if isinstance(s, Matrix):
            s = ScaledMatrix(0, s)
        tab, inv = mult_table(self.n)
        rows = []
        for i1 in range(self.group_order):
            for i2 in range(self.group_order):
                # rho1(g2^-1 g1^-1) and rho2(g2^-1)
                m1 = self._images1[tab[inv[i2], inv[i1]]]
                m2 = self._images2[inv[i2]]
                row = []
                for i in range(self.d1):
                    for j in range(self.d2):
                        k = m1.phase[i] + m2.phase[j]
                        src = m1.perm[i] * self.d2 + m2.perm[j]
                        for ell in range(self.dt):
                            row.append(s.matrix[ell, src].times_i(k))
                rows.append(row)
        half = _log2(self.dt) - 2 * _log2(self.group_order)
        return ScaledMatrix(s.half + half, Matrix(rows))

    # invariant tensors and the Prop-3.3 style operators

    def invariant_tensors(self):
        """Basis of (V1 (x) V2 (x) W)^(H~): fixed vectors of the diagonal action."""
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
        dim_sigma = self.triple_rep.dim
        rows = []
        for g1 in g_elements:
            for g2 in g_elements:
                gx = TripleElement(multiply(g1, g2), g2, identity(n), self.m)
                mono = self.triple_rep.image(gx)
                # sigma(g_x) b, then row entries <e_col, sigma(g_x) b> = conj
                w = [ZERO] * dim_sigma
                for c in range(dim_sigma):
                    coeff = b[c]
                    if coeff:
                        w[mono.perm[c]] = coeff.times_i(mono.phase[c])
                rows.append([w[c].conjugate() for c in range(dim_sigma)])
        half = _log2(dim_sigma) - _log2(self.eta.dim)
        return ScaledMatrix(half, Matrix(rows))

    def tilde_from_invariant(self, b) -> ScaledMatrix:
        """Corollary form: [T~_B(v1 (x) v2)](w) = sqrt(d1 d2) conj B(v1,v2,w)."""
        rows = [
            [
                b[(i * self.d2 + j) * self.dt + ell]
                for i in range(self.d1)
                for j in range(self.d2)
            ]
            for ell in range(self.dt)
        ]
        return ScaledMatrix(_log2(self.d1 * self.d2), Matrix(rows))


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
    coefficients of all irreps of CL(n), exactly."""
    if n > MAX_ETA_DEGREE:
        raise GuardError(f"matrix coefficient checks guarded at n <= {MAX_ETA_DEGREE}")
    elements = enumerate_group(n)
    order = len(elements)
    coeffs = []  # (label, dim, i, j, values over the group)
    for label in irreps(n):
        rep = build_matrix_rep(label)
        dense = [rep.image(g).dense() for g in elements]
        for i in range(rep.dim):
            for j in range(rep.dim):
                vals = [d[i, j] for d in dense]
                coeffs.append((label, rep.dim, i, j, vals))
    tab, inv = (a.tolist() for a in mult_table(n))
    failures = []
    n_ort = n_con = 0
    for a, (lab1, d1, i, j, u1) in enumerate(coeffs):
        for lab2, d2, h, k, u2 in coeffs:
            n_ort += 1
            expect = (
                gr(order) / d1
                if (lab1 == lab2 and i == h and j == k)
                else ZERO
            )
            got = sum((u1[g] * u2[g].conjugate() for g in range(order)), ZERO)
            if got != expect:
                failures.append(
                    ("ORT", format_label(lab1), (i, j), format_label(lab2), (h, k))
                )
            n_con += 1
            conv = [
                sum(
                    (u1[x] * u2[tab[inv[x]][g]] for x in range(order)),
                    ZERO,
                )
                for g in range(order)
            ]
            if lab1 == lab2 and j == h:
                u_ik = next(
                    v for (l3, _, a3, b3, v) in coeffs
                    if l3 == lab1 and a3 == i and b3 == k
                )
                expect_fun = [gr(order) / d1 * v for v in u_ik]
            else:
                expect_fun = [ZERO] * order
            if conv != expect_fun:
                failures.append(
                    ("CON", format_label(lab1), (i, j), format_label(lab2), (h, k))
                )
    return MatrixCoefficientReport(n, n_ort, n_con, failures)
