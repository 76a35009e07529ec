"""Gelfand-pair testing for (CL(n) x CL(n) x CL(m), diagonal CL(m)).

The multiplicity of theta' in the restricted Kronecker product rho1 (x) rho2
equals the dimension of the diagonal invariants in V1 (x) V2 (x) W, which is
the plain (unconjugated) averaged character product.  The pair is Gelfand
exactly when every such multiplicity is at most 1.

The character scan reads each multiplicity off by one rule
(diagonal_invariant_dim): 0 for an odd number of spin labels, since -1 acts
as -1; [(A ^ B) & (2^m - 1) == C] for chi_A, chi_B, chi_C; and for two spin
labels a sum over the at most four central elements of CL(m) where both
spin characters are nonzero.  Only the O(|Irr|) two-spin triples are
summed.  The second, independent verdict is the brute-force commutativity
of the bi-invariant convolution algebra, read off its structure constants
at one representative per double coset.  The double cosets are the orbits
of CL(m) on G x G by simultaneous conjugation (elements._pair_orbit_labels),
so the check runs on G x G rather than on the whole triple group.

Spherical characters have one direct sum over H: conj_summands tabulates
conj chi(h g) at given rows h and points (chi labels by the mask of h g);
spherical_character sums the product of three columns over the <= 4 rows
with h g central in the first spin slot (_central_rows), or over all of H.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from types import MappingProxyType

import numpy as np

from .exact import GaussianRational, gr
from .elements import (
    DegreeMismatchError,
    _check_degree,
    _check_subgroup_degree,
    _index_inverse,
    _minus_one_to,
    _pair_orbit_labels,
    TripleElement,
    embed_index,
    index_product,
    index_sign_mask,
    is_central,
)
from .characters import (
    IrrepLabel,
    char_re_im,
    conjugate_label,
    format_label,
    label_at,
    spin_labels,
)

# gelfand_check_biinvariant sorts two arrays of 4^(n+1) label pairs per
# double coset: 1.9 s for the 4,288 cosets at (6, 6), 0.02 s at (6, 5), where
# the first table is already asymmetric, 0.2 s at (5, 5) and (5, 4), and a
# peak RSS of 30 MB throughout (2-CPU VM); n = 7 would take about 55 s.
MAX_CONVOLUTION_DEGREE = 6


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
        _check_subgroup_degree(n, m, "theta degree", DegreeMismatchError)

    @property
    def dim(self) -> int:
        return self.rho1.dim * self.rho2.dim * self.theta.dim

    def __str__(self):
        return (
            f"({format_label(self.rho1)}, {format_label(self.rho2)}, "
            f"{format_label(self.theta)})"
        )


def _spin_pair_multiplicity(a: IrrepLabel, b: IrrepLabel, x, m: int):
    """(1/|H|) sum_h a(h) b(h) chi_x(h) over H = CL(m), for spin labels a, b
    and a chi mask x, an int or an int64 array of masks.

    A spin character of CL(k) vanishes at gamma_T unless T is central in
    CL(k), and T lies in X_m, so only T = 0 and T = X_m can contribute: at
    most four elements h = s gamma_T.  Spin values have modulus at most
    2^(n/2), so each sum stays below 2^(n+3) in absolute value: exact in
    int64 up to n = 16.
    """
    acc_re = acc_im = x & 0  # an int or an array of zeros, like x
    for t in {0, (1 << m) - 1}:
        for s in (1, -1):
            are, aim = char_re_im(a, s, t)
            bre, bim = char_re_im(b, s, t)
            pre, pim = are * bre - aim * bim, are * bim + aim * bre
            if pre or pim:
                sign = _minus_one_to(x & t)
                acc_re = acc_re + pre * sign
                acc_im = acc_im + pim * sign
    order = 1 << (m + 1)
    if np.count_nonzero(acc_im):
        raise AssertionError("invariant dimension acquired an imaginary part")
    if np.count_nonzero(acc_re % order) or np.count_nonzero(acc_re < 0):
        raise AssertionError("invariant dimension not a non-negative integer")
    return acc_re // order


def diagonal_invariant_dim(rho1: IrrepLabel, rho2: IrrepLabel, theta: IrrepLabel) -> int:
    """dim (V1 (x) V2 (x) W)^(H~) = (1/|H|) sum_h chi1(h) chi2(h) chi_theta(h).

    This equals the multiplicity of theta' in Res_{CL(m)} (rho1 (x) rho2);
    note the absence of conjugates.  The sum is read off by the rule in the
    module docstring.
    """
    TripleIrrepLabel(rho1, rho2, theta)  # degree validation
    m = theta.degree
    labels = (rho1, rho2, theta)
    spins = [lab for lab in labels if lab.kind != "chi"]
    if len(spins) % 2:
        return 0
    if not spins:
        return int((rho1.mask ^ rho2.mask) & ((1 << m) - 1) == theta.mask)
    (x,) = (lab.mask for lab in labels if lab.kind == "chi")
    return _spin_pair_multiplicity(*spins, x, m)


@dataclass(frozen=True)
class GelfandReport:
    """Outcome of the character-multiplicity scan over all irrep triples.

    two_spin holds the multiplicities of the triples with two spin labels,
    O(|Irr|) of them, by block: the key (p, a, b) names the chi label's
    position p (0, 1, 2 for rho1, rho2, theta) and the positions a, b of the
    two spin labels in their irreps lists, and the value is the read-only
    int64 array of the multiplicities over the chi label's mask.  Reports
    are cached, so they are immutable and two_spin is a read-only mapping.
    """

    n: int
    m: int
    gelfand: bool
    max_multiplicity: int
    witness: TripleIrrepLabel | None
    witness_multiplicity: int
    two_spin: Mapping

    @property
    def pair_name(self) -> str:
        return f"(CL({self.n})xCL({self.n})xCL({self.m}), diag)"

    def multiplicity(self, t: TripleIrrepLabel) -> int:
        """The multiplicity of one triple, in O(1)."""
        if (t.rho1.degree, t.theta.degree) != (self.n, self.m):
            raise DegreeMismatchError(f"{t} is not a triple of {self.pair_name}")
        labels = (t.rho1, t.rho2, t.theta)
        spin = [lab.kind != "chi" for lab in labels]
        if sum(spin) != 2:
            return diagonal_invariant_dim(*labels)
        p = spin.index(False)
        a, b = (lab.index for lab in labels if lab.kind != "chi")
        return int(self.two_spin[(p, a, b)][labels[p].mask])

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
    """Every multiplicity of the pair: each two-spin sum runs over the chi
    label in the remaining position as one int64 array."""
    _check_subgroup_degree(n, m)
    _check_degree(n)
    degrees = (n, n, m)
    two_spin = {}
    for p in range(3):  # the chi label's position
        q, r = (k for k in range(3) if k != p)
        chis = np.arange(1 << degrees[p])
        for a, b in product(spin_labels(degrees[q]), spin_labels(degrees[r])):
            mult = _spin_pair_multiplicity(a, b, chis, m)
            mult.setflags(write=False)
            two_spin[(p, a.index, b.index)] = mult
    # chi-chi-chi multiplicities reach 1 and no further, so the first triple
    # in label order with multiplicity >= 2 is the least of the first such
    # triples of the blocks
    max_mult = max([1] + [int(mult.max()) for mult in two_spin.values()])
    firsts = []
    for (p, a, b), mult in two_spin.items():
        big = np.flatnonzero(mult >= 2)
        if len(big):
            key = [a, b]
            key.insert(p, int(big[0]))
            firsts.append((tuple(key), int(mult[big[0]])))
    first, witness_mult = min(firsts, default=(None, 0))
    witness = None if first is None else TripleIrrepLabel(*map(label_at, degrees, first))
    return GelfandReport(
        n=n,
        m=m,
        gelfand=max_mult <= 1,
        max_multiplicity=max_mult,
        witness=witness,
        witness_multiplicity=witness_mult,
        two_spin=MappingProxyType(two_spin),
    )


# -- spherical characters ---------------------------------------------------


def conj_summands(label: IrrepLabel, m: int, rows, sign, mask):
    """conj chi_label(h g) as int64 (re, im): a row per CL(m) element index
    h in rows, a 1-D int64 array, and a column per point g = sign gamma_mask,
    for ints or 1-D int64 arrays sign and mask.

    A spin label reads h g by index_product, h embedded in its degree n (m
    for theta); chi_A does not see the sign and reads only the mask of h g,
    h's mask ^ mask, with no xi fold.  A summand has modulus at most 2^(n/2)
    <= 2^8, so a product of three is at most 2^24 and a sum of one over any
    of the 2^17 elements h stays below 2^41: int64 is exact up to n = 16.
    """
    n, h = label.degree, rows[:, None]
    if label.kind == "chi":
        hg = sign, (h & ((1 << m) - 1)) ^ mask
    else:
        hg = index_sign_mask(index_product(embed_index(h, m, n), (sign < 0) << n | mask, n), n)
    re, im = char_re_im(label, *hg)
    return re, -im


def _central_rows(k: int, mask: int, m: int):
    """The CL(m) indices h, both signs, with h gamma_mask central in CL(k), where
    a spin character of CL(k) can be nonzero: mask ^ h's mask is 0 or X_k, by is_central."""
    masks = sorted(mask ^ c for c in {0, (1 << k) - 1} if is_central(c, k) and not (mask ^ c) >> m)
    return np.array([s << m | d for s in (0, 1) for d in masks], dtype=np.int64)


def spherical_character(sigma: TripleIrrepLabel, at: TripleElement) -> GaussianRational:
    """psi(g1, g2, h1) = (1/|H|) sum_h conj chi1(h g1) conj chi2(h g2) conj chi_t(h h1).

    The sum runs over h in H = CL(m), m = theta's degree: the three slots'
    conj_summands columns are multiplied and summed in exact integers until
    the division by |H|, on the _central_rows of the first spin slot, as a
    spin character vanishes off the centre, or on all of H for chi x chi x chi.
    """
    n, m = sigma.rho1.degree, sigma.theta.degree
    if at.degree != n or at.subgroup_degree != m:
        raise DegreeMismatchError("evaluation point degrees do not match the label")
    slots = list(zip((sigma.rho1, sigma.rho2, sigma.theta), (at.g1, at.g2, at.h)))
    spin = [(lab.degree, g.mask) for lab, g in slots if lab.kind != "chi"]
    rows = _central_rows(*spin[0], m) if spin else np.arange(2 << m, dtype=np.int64)
    (re, im), *rest = (conj_summands(lab, m, rows, g.sign, g.mask) for lab, g in slots)
    for vre, vim in rest:
        re, im = re * vre - im * vim, re * vim + im * vre
    order = 1 << (m + 1)
    return gr(Fraction(int(re.sum()), order), Fraction(int(im.sum()), order))


# -- convolution-algebra verdict --------------------------------------------


def gelfand_check_biinvariant(n: int, m: int) -> bool:
    """Brute-force verdict: is the H~-bi-invariant convolution algebra on
    K = CL(n) x CL(n) x CL(m) commutative?

    The double-coset indicators 1_a span it, and 1_a * 1_b is fixed by its
    values at one representative r per double coset, so it commutes exactly
    when every N_r[a, b] = #{z in K : z^-1 in a, z r in b} is symmetric.
    This is read on G x G, exactly: (g1, g2, h) lies in the double coset of
    (g1 h^-1, g2 h^-1, 1), so the double cosets are the CL(m)-orbits of
    elements._pair_orbit_labels, each with r = (x, y, 1) at its least key;
    z -> d z (d in H~) moves neither coset, and each H~ z holds one
    z = (z1, z2, 1), so N_r is |H| times the count over those z; and N_r is
    symmetric exactly when the multiset of label pairs (z^-1, z r) is.  A
    pair of labels stays below 2^(4n + 4) <= 2^28, exact in int64.
    """
    _check_degree(n, MAX_CONVOLUTION_DEGREE)
    _check_subgroup_degree(n, m)
    labels = _pair_orbit_labels(n, m)
    g, shift = np.arange(2 << n, dtype=np.int64), 2 * n + 2
    inv = _index_inverse(g, n)
    a = labels[inv[:, None] << (n + 1) | inv].ravel()  # the labels of z^-1
    for r in np.flatnonzero(labels == np.arange(len(labels))):  # the least keys
        x, y = divmod(int(r), 2 << n)
        b = labels[index_product(g, x, n)[:, None] << (n + 1) | index_product(g, y, n)].ravel()
        if not np.array_equal(np.sort(a << shift | b), np.sort(b << shift | a)):
            return False
    return True
