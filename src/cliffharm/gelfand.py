"""Gelfand-pair testing for (CL(n) x CL(n) x CL(m), diagonal CL(m)).

The multiplicity of theta' in the restricted Kronecker product rho1 (x) rho2
equals the dimension of the diagonal invariants in V1 (x) V2 (x) W, which is
the plain (unconjugated) averaged character product.  The pair is Gelfand
exactly when every such multiplicity is at most 1.

Two independent verdicts are provided: the character scan here, and the
brute-force commutativity of the bi-invariant convolution algebra, which
composes group elements through elements.mult_table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exact import GaussianRational, gr
from .elements import (
    DegreeMismatchError,
    _check_degree,
    TripleElement,
    conjugacy_classes,
    mult_table,
    xi_sign,
)
from .characters import (
    IrrepLabel,
    char_re_im,
    character_table,
    conjugate_label,
    format_label,
)

# The scan builds an |Irr|^3 int64 table: gelfand_check_characters(8, 8)
# takes 20 s and 166 MB (2-CPU VM); n = 9 would need a 514^3 table, 1.1 GB.
MAX_CHARACTER_METHOD_DEGREE = 8
MAX_CONVOLUTION_DEGREE = 3


@dataclass(frozen=True)
class TripleIrrepLabel:
    """Outer tensor product label rho1 x rho2 x theta on CL(n) x CL(n) x CL(m)."""

    rho1: IrrepLabel
    rho2: IrrepLabel
    theta: IrrepLabel

    def __post_init__(self):
        n = self.rho1.degree
        m = self.theta.degree
        if self.rho2.degree != n:
            raise DegreeMismatchError("rho1 and rho2 must share degree")
        if m not in (n, n - 1):
            raise DegreeMismatchError(
                f"theta degree must be n or n-1, got {m} for n={n}"
            )

    @property
    def dim(self) -> int:
        return self.rho1.dim * self.rho2.dim * self.theta.dim

    def __str__(self):
        return (
            f"({format_label(self.rho1)}, {format_label(self.rho2)}, "
            f"{format_label(self.theta)})"
        )


def diagonal_invariant_dim(rho1: IrrepLabel, rho2: IrrepLabel, theta: IrrepLabel) -> int:
    """dim (V1 (x) V2 (x) W)^(H~) = (1/|H|) sum_h chi1(h) chi2(h) chi_theta(h).

    This equals the multiplicity of theta' in Res_{CL(m)} (rho1 (x) rho2);
    note the absence of conjugates.
    """
    TripleIrrepLabel(rho1, rho2, theta)  # degree validation
    m = theta.degree
    total = gr(0)
    for cls in conjugacy_classes(m):
        sign, mask = cls.representative.sign, cls.representative.mask
        v1 = gr(*char_re_im(rho1, sign, mask))
        v2 = gr(*char_re_im(rho2, sign, mask))
        vt = gr(*char_re_im(theta, sign, mask))
        total = total + cls.size * v1 * v2 * vt
    total = total / (1 << (m + 1))
    if not total.is_integer() or total.re < 0:
        raise AssertionError(f"invariant dimension not in Z>=0: {total}")
    return int(total.re)


@dataclass(frozen=True)
class GelfandReport:
    """Outcome of the character-multiplicity scan over all irrep triples.

    Reports are cached, so they are immutable and mult_array is read-only.
    """

    n: int
    m: int
    gelfand: bool
    max_multiplicity: int
    witness: TripleIrrepLabel | None
    witness_multiplicity: int
    labels_g: tuple
    labels_h: tuple
    mult_array: np.ndarray  # shape (|Irr G|, |Irr G|, |Irr H|)

    @property
    def pair_name(self) -> str:
        return f"(CL({self.n})xCL({self.n})xCL({self.m}), diag)"

    def table(self) -> dict:
        out = {}
        for i, a in enumerate(self.labels_g):
            for j, b in enumerate(self.labels_g):
                for k, c in enumerate(self.labels_h):
                    out[TripleIrrepLabel(a, b, c)] = int(self.mult_array[i, j, k])
        return out

    def to_json(self) -> dict:
        d = {
            "pair": self.pair_name,
            "gelfand": self.gelfand,
            "max_multiplicity": self.max_multiplicity,
        }
        if self.witness is not None:
            t = self.witness
            # theta indexes the multiplicity; theta' is the label appearing
            # in the restricted Kronecker decomposition.  Publish both when
            # the involution moves the label.
            d["witness"] = {
                "rho1": format_label(t.rho1),
                "rho2": format_label(t.rho2),
                "theta": format_label(t.theta),
                "multiplicity": self.witness_multiplicity,
            }
            prime = conjugate_label(t.theta)
            if prime != t.theta:
                d["witness"]["theta_prime"] = format_label(prime)
        return d


@lru_cache(maxsize=None)
def gelfand_check_characters(n: int, m: int) -> GelfandReport:
    """Multiplicity table for all triples via vectorized exact integer sums.

    Character values are Gaussian integers of magnitude <= 2^(n/2) and class
    sizes are <= 2, so every intermediate stays far inside int64: the numpy
    arithmetic is exact.
    """
    if m not in (n, n - 1) and not (n == 0 and m == 0):
        raise ValueError(f"subgroup degree must be n or n-1, got m={m}")
    _check_degree(n, MAX_CHARACTER_METHOD_DEGREE)
    labels_g, _, sizes, E_re, E_im = character_table(n, m)
    labels_h, _, _, T_re, T_im = character_table(m)
    order_h = 1 << (m + 1)
    lg, lh = len(labels_g), len(labels_h)
    mult = np.empty((lg, lg, lh), dtype=np.int64)
    wT_re = T_re * sizes
    wT_im = T_im * sizes
    for i in range(lg):
        p_re = E_re[i] * E_re - E_im[i] * E_im  # (lg, classes)
        p_im = E_re[i] * E_im + E_im[i] * E_re
        s_re = p_re @ wT_re.T - p_im @ wT_im.T  # (lg, lh)
        s_im = p_re @ wT_im.T + p_im @ wT_re.T
        if s_im.any():
            raise AssertionError("invariant dimension acquired an imaginary part")
        if (s_re % order_h).any() or (s_re < 0).any():
            raise AssertionError("invariant dimension not a non-negative integer")
        mult[i] = s_re // order_h
    max_mult = int(mult.max())
    witness = None
    witness_mult = 0
    if max_mult > 1:
        i, j, k = np.argwhere(mult >= 2)[0]
        witness = TripleIrrepLabel(labels_g[i], labels_g[j], labels_h[k])
        witness_mult = int(mult[i, j, k])
    mult.setflags(write=False)
    return GelfandReport(
        n=n,
        m=m,
        gelfand=max_mult <= 1,
        max_multiplicity=max_mult,
        witness=witness,
        witness_multiplicity=witness_mult,
        labels_g=labels_g,
        labels_h=labels_h,
        mult_array=mult,
    )


# -- spherical characters ---------------------------------------------------


def spherical_character(sigma: TripleIrrepLabel, at: TripleElement) -> GaussianRational:
    """psi(g1, g2, h1) = (1/|H|) sum_h conj chi1(h g1) conj chi2(h g2) conj chi_t(h h1).

    The sum runs over h = s gamma_D in H = CL(m), m = theta's degree, with
    h g = s e (-1)^xi(D, T) gamma_(D xor T) for g = e gamma_T, in exact
    integers until the final division by |H|.
    """
    n = sigma.rho1.degree
    m = sigma.theta.degree
    if at.degree != n or at.subgroup_degree != m:
        raise DegreeMismatchError("evaluation point degrees do not match the label")
    labels = (sigma.rho1, sigma.rho2, sigma.theta)
    args = (at.g1, at.g2, at.h)
    acc_re = acc_im = 0
    for s in (1, -1):
        for d in range(1 << m):
            re, im = 1, 0
            for lab, g in zip(labels, args):
                vre, vim = char_re_im(lab, s * g.sign * xi_sign(d, g.mask), d ^ g.mask)
                if vre == 0 and vim == 0:
                    re, im = 0, 0
                    break
                re, im = re * vre + im * vim, im * vre - re * vim  # times conj(v)
            acc_re += re
            acc_im += im
    order = 1 << (m + 1)
    return gr(Fraction(acc_re, order), Fraction(acc_im, order))


# -- convolution-algebra verdict --------------------------------------------


def gelfand_check_biinvariant(n: int, m: int) -> bool:
    """Brute-force verdict: is the H~-bi-invariant convolution algebra on
    K = CL(n) x CL(n) x CL(m) commutative?

    Works on the double-coset indicator basis; convolutions are compared as
    integer count vectors (exact).
    """
    _check_degree(n, MAX_CONVOLUTION_DEGREE)
    if m not in (n, n - 1) and not (n == 0 and m == 0):
        raise ValueError(f"subgroup degree must be n or n-1, got m={m}")
    tg, _ = mult_table(n)
    th, _ = mult_table(m)
    og, oh = 1 << (n + 1), 1 << (m + 1)
    order = og * og * oh
    idx1, idx2, idx3 = np.meshgrid(
        np.arange(og), np.arange(og), np.arange(oh), indexing="ij"
    )
    idx1, idx2, idx3 = idx1.ravel(), idx2.ravel(), idx3.ravel()

    def compose(a1, a2, a3, b1, b2, b3):
        return (tg[a1, b1] * og + tg[a2, b2]) * oh + th[a3, b3]

    # double cosets of the diagonal copy of CL(m); the first two components
    # see the CL(m) element through its CL(n) index (sign bit moves)
    h_idx = np.arange(oh)
    emb = ((h_idx >> m) << n) | (h_idx & ((1 << m) - 1))
    coset_of = np.full(order, -1, dtype=np.int64)
    cosets = []
    for t in range(order):
        if coset_of[t] >= 0:
            continue
        t1, t2, t3 = idx1[t], idx2[t], idx3[t]
        members = set()
        for a in range(oh):
            l1, l2, l3 = tg[emb[a], t1], tg[emb[a], t2], th[a, t3]
            members.update(compose(l1, l2, l3, emb, emb, h_idx))
        members = np.fromiter(members, dtype=np.int64)
        coset_of[members] = len(cosets)
        cosets.append(members)
    # pairwise convolution commutativity of the indicator functions
    for a in range(len(cosets)):
        ca = cosets[a]
        t1a, t2a, t3a = idx1[ca], idx2[ca], idx3[ca]
        for b in range(a + 1, len(cosets)):
            cb = cosets[b]
            ab = compose(
                t1a[:, None], t2a[:, None], t3a[:, None],
                idx1[cb][None, :], idx2[cb][None, :], idx3[cb][None, :],
            )
            ba = compose(
                idx1[cb][:, None], idx2[cb][:, None], idx3[cb][:, None],
                t1a[None, :], t2a[None, :], t3a[None, :],
            )
            if not np.array_equal(
                np.bincount(ab.ravel(), minlength=order),
                np.bincount(ba.ravel(), minlength=order),
            ):
                return False
    return True
