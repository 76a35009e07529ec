"""Conjugation orbits on CL(n) x CL(n) and the spherical characters of the
pair (CL(n) x CL(n) x CL(n), diagonal).

Orbits come in two flavours: the brute-force enumeration (the oracle) and
the case-analysis prediction, which reads the sign-flip lemma through
elements.is_central and never touches the group.  Spherical characters
likewise: direct summation over the subgroup (spherical_value, which is
gelfand.spherical_character with H = G) versus the closed-form case
formulas.  The full-grid comparison scales both by 2^(n+1): the direct grid
sums the library's one character formula, characters.char_re_im, tabulated
over the labels of irreps(n); the closed grid evaluates the case formulas on
the parity table (-1)^|A cap E| and the xi parity table.

The closed forms below are the oracle-validated versions.  Three published
case displays carry transcription slips (a wrong intersection set in the
even-n chi x rho x rho exponent; a 2^n prefactor where the derivation gives
1/2; an unconjugated c and a transposed xi argument in the T2 =
complement(T3) branch).  Direct summation is authoritative; the forms here
agree with it on every grid point, asserted by the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from .exact import GaussianRational, gr
from .elements import (
    CliffordElement,
    DegreeMismatchError,
    GuardError,
    TripleElement,
    element_order_key,
    inverse,
    is_central,
    multiply,
    xi,
    xi_sign,
)
from .characters import IrrepLabel, char_re_im, irreps, top_phase_re_im
from .gelfand import TripleIrrepLabel, spherical_character

MAX_PAIR_ORBIT_DEGREE = 7
MAX_GRID_DEGREE = 4


@dataclass(frozen=True)
class PairOrbit:
    """Orbit of CL(n) acting by simultaneous conjugation on pairs."""

    representative: tuple  # (CliffordElement, CliffordElement)
    members: tuple

    @property
    def size(self) -> int:
        return len(self.members)


def _pair_key(p):
    return (element_order_key(p[0]), element_order_key(p[1]))


def _orbit_from_members(members) -> PairOrbit:
    ordered = tuple(sorted(members, key=_pair_key))
    return PairOrbit(ordered[0], ordered)


def orbit_of(pair, n: int) -> PairOrbit:
    """Brute-force orbit of one pair under conjugation by every gamma_C.

    Signed conjugators act like the unsigned ones, so C ranges over subsets;
    conjugation is done with group multiplication (the closed-form
    conjugation sign is the *predicted* route, kept independent).
    """
    x, y = pair
    members = set()
    for cmask in range(1 << n):
        c = CliffordElement(n, 1, cmask)
        ci = inverse(c)
        members.add((multiply(multiply(ci, x), c), multiply(multiply(ci, y), c)))
    return _orbit_from_members(members)


def enumerate_pair_orbits(n: int):
    if n > MAX_PAIR_ORBIT_DEGREE:
        raise GuardError(f"pair orbits guarded at n <= {MAX_PAIR_ORBIT_DEGREE}")
    seen = set()
    orbits = []
    for sa, amask, sb, bmask in product((1, -1), range(1 << n), (1, -1), range(1 << n)):
        x = CliffordElement(n, sa, amask)
        y = CliffordElement(n, sb, bmask)
        if _pair_key((x, y)) in seen:
            continue
        orb = orbit_of((x, y), n)
        seen.update(_pair_key(p) for p in orb.members)
        orbits.append(orb)
    return orbits


def predicted_orbit(pair, n: int) -> PairOrbit:
    """Orbit from the case analysis alone (no enumeration).

    Conjugation can only flip component signs; gamma_A keeps its sign under
    every conjugation iff A is empty or (n odd and A = X_n).  The two signs
    flip together (never independently) exactly when A = B or n is odd and
    A, B disjointly cover X_n.
    """
    x, y = pair
    if x.degree != n or y.degree != n:
        raise DegreeMismatchError("pair degree mismatch")
    a, b = x.mask, y.mask
    a_fixed = is_central(a, n)
    b_fixed = is_central(b, n)

    def neg(z):
        return CliffordElement(n, -z.sign, z.mask)

    if a_fixed and b_fixed:
        members = [(x, y)]
    elif a_fixed:
        members = [(x, y), (x, neg(y))]
    elif b_fixed:
        members = [(x, y), (neg(x), y)]
    elif a == b or (n % 2 == 1 and a & b == 0 and a | b == (1 << n) - 1):
        members = [(x, y), (neg(x), neg(y))]
    else:
        members = [(x, y), (neg(x), y), (x, neg(y)), (neg(x), neg(y))]
    return _orbit_from_members(members)


# -- spherical characters on CL(n)^3: direct summation ----------------------


@dataclass(frozen=True)
class SphericalQuery:
    """A spherical character evaluation on the pair with H = G = CL(n)."""

    sigma: TripleIrrepLabel
    at: TripleElement

    def __post_init__(self):
        n = self.sigma.rho1.degree
        if self.sigma.theta.degree != n:
            raise DegreeMismatchError("spherical queries require subgroup degree n")
        if self.at.degree != n or self.at.subgroup_degree != n:
            raise DegreeMismatchError("evaluation point degree mismatch")


def subset_sum_lemma(subset_mask: int, n: int) -> int:
    """(1/2^n) sum_D (-1)^|U cap D| by direct summation: 1 iff U empty."""
    if subset_mask >> n:
        raise ValueError("subset not contained in X_n")
    total = sum(
        -1 if (subset_mask & d).bit_count() & 1 else 1 for d in range(1 << n)
    )
    if total % (1 << n):
        raise RuntimeError(f"subset sum {total} is not a multiple of 2^{n}")
    return total >> n


def spherical_value(q: SphericalQuery) -> GaussianRational:
    """psi at (e1 gamma_T1, e2 gamma_T2, e3 gamma_T3) by direct summation
    over h in CL(n): gelfand.spherical_character with H = G."""
    return spherical_character(q.sigma, q.at)


# -- closed forms -----------------------------------------------------------


@dataclass(frozen=True)
class SphericalResult:
    value: GaussianRational
    analyzed: bool
    family: str


def _family_of(sigma: TripleIrrepLabel) -> str:
    kinds = tuple(
        "chi" if lab.kind == "chi" else "rho"
        for lab in (sigma.rho1, sigma.rho2, sigma.theta)
    )
    return {
        ("chi", "chi", "chi"): "chi-chi-chi",
        ("rho", "rho", "rho"): "rho-rho-rho",
        ("chi", "rho", "rho"): "chi-rho-rho",
        ("chi", "chi", "rho"): "chi-chi-rho",
    }.get(kinds, "unanalyzed")


def _eta_of(label: IrrepLabel) -> int:
    return -1 if label.kind == "rho-" else 1


def spherical_closed_form(q: SphericalQuery) -> SphericalResult:
    """Case-formula evaluation; unanalyzed families fall back to summation."""
    family = _family_of(q.sigma)
    n = q.sigma.rho1.degree
    t1, t2, t3 = q.at.g1.mask, q.at.g2.mask, q.at.h.mask
    e2, e3 = q.at.g2.sign, q.at.h.sign
    if family == "unanalyzed":
        return SphericalResult(spherical_value(q), False, family)
    if family in ("rho-rho-rho", "chi-chi-rho"):
        return SphericalResult(gr(0), True, family)
    a = q.sigma.rho1.mask

    def par(mask):
        return -1 if (a & mask).bit_count() & 1 else 1

    if family == "chi-chi-chi":
        b, c = q.sigma.rho2.mask, q.sigma.theta.mask
        if a ^ b ^ c:
            return SphericalResult(gr(0), True, family)
        e = (
            (a & t1).bit_count() + (b & t2).bit_count() + (c & t3).bit_count()
        )
        return SphericalResult(gr(-1 if e & 1 else 1), True, family)
    # chi-rho-rho
    full = (1 << n) - 1
    if n % 2 == 0:
        if t2 != t3:
            return SphericalResult(gr(0), True, family)
        return SphericalResult(gr(par(t2 ^ t1) * e2 * e3), True, family)
    # n odd
    eta2, eta3 = _eta_of(q.sigma.rho2), _eta_of(q.sigma.theta)
    cr, ci = top_phase_re_im(n)
    csq = 1 if ci == 0 else -1  # c^2 = conj(c)^2
    if t2 == t3:
        bracket = par(t2 ^ t1) + csq * eta2 * eta3 * par(t2 ^ full ^ t1)
        return SphericalResult(gr(Fraction(e2 * e3 * bracket, 2)), True, family)
    if t2 == full ^ t3:
        t, tc = t2, full ^ t2
        bracket = eta3 * par(t ^ t1) * xi_sign(t, t) * xi_sign(t, tc) + (
            eta2 * par(tc ^ t1) * xi_sign(tc, t) * xi_sign(tc, tc)
        )
        half = Fraction(e2 * e3 * bracket, 2)
        return SphericalResult(gr(cr * half, -ci * half), True, family)
    return SphericalResult(gr(0), True, family)


# -- exhaustive closed-vs-direct comparison (vectorized, exact int64) -------


@lru_cache(maxsize=None)
def _xi_bit_table(n: int) -> np.ndarray:
    size = 1 << n
    t = np.empty((size, size), dtype=np.int64)
    for d in range(size):
        for e in range(size):
            t[d, e] = xi(d, e) & 1
    return t


@lru_cache(maxsize=None)
def _parity_table(n: int) -> np.ndarray:
    """p[a, e] = (-1)^|A cap E| over all mask pairs."""
    size = 1 << n
    masks = np.arange(size)
    inter = masks[:, None] & masks[None, :]
    counts = np.zeros_like(inter)
    for bit in range(n):
        counts += (inter >> bit) & 1
    return np.where(counts & 1, -1, 1).astype(np.int64)


def _slot(n: int, spin: bool):
    """(v_re, v_im, sign_relevant, nlabels) for one slot of the direct grid.

    v[s, lab, E] = conj char_re_im(lab, (-1)^s, E) over the chi labels of
    irreps(n), or over its spin labels; v_im is None when every value is
    real, and sign_relevant says whether the table depends on s.
    """
    labels = [lab for lab in irreps(n) if (lab.kind != "chi") == spin]
    v = np.array(
        [
            [[char_re_im(lab, sign, e) for e in range(1 << n)] for lab in labels]
            for sign in (1, -1)
        ],
        dtype=np.int64,
    )
    v_re, v_im = v[..., 0], -v[..., 1]
    sign_relevant = not np.array_equal(v[0], v[1])
    return v_re, (v_im if v_im.any() else None), sign_relevant, len(labels)


def _direct_grid(n: int, slots):
    """2^(n+1) * psi over the full grid by literal summation over h.

    Each slot contributes flattened axes (label, T[, sign]); the sign axis
    is dropped when the slot's value table does not depend on the sign.  All
    arithmetic is int64 and exact: term magnitudes are <= 2^(3n/2) and there
    are 2^(n+1) terms.
    """
    size = 1 << n
    masks = np.arange(size)
    xi_bit = _xi_bit_table(n)
    shapes = tuple(
        nlab * size * (1 + sign_rel) for _, _, sign_rel, nlab in slots
    )
    total_re = np.zeros(shapes, dtype=np.int64)
    total_im = np.zeros(shapes, dtype=np.int64)
    for s in (0, 1):
        for d in range(size):
            # h g = (-1)^(s + xi(D, T) + e) gamma_(D xor T) for g = (-1)^e gamma_T
            sbit = (s ^ xi_bit[d])[None, :, None]
            e_row = (d ^ masks)[None, :, None]
            parts = []
            for v_re, v_im, sign_rel, nlab in slots:
                # v[sign of h g, label, E]; a sign-independent table has no
                # sign axis and reads the same at either sign
                idx = (sbit ^ np.arange(1 + sign_rel), np.arange(nlab)[:, None, None], e_row)
                parts.append(
                    tuple(None if v is None else v[idx].reshape(-1) for v in (v_re, v_im))
                )
            _accumulate_triple_product(total_re, total_im, parts)
    return total_re, total_im


def _accumulate_triple_product(total_re, total_im, parts):
    """total += outer product of three complex vectors (None imag = 0)."""
    (a_re, a_im), (b_re, b_im), (c_re, c_im) = parts
    ab_re = a_re[:, None] * b_re[None, :]
    ab_im = None
    if a_im is not None or b_im is not None:
        ab_im = np.zeros_like(ab_re)
        if b_im is not None:
            ab_im += a_re[:, None] * b_im[None, :]
        if a_im is not None:
            ab_im += a_im[:, None] * b_re[None, :]
        if a_im is not None and b_im is not None:
            ab_re = ab_re - a_im[:, None] * b_im[None, :]
    total_re += ab_re[:, :, None] * c_re[None, None, :]
    if ab_im is not None:
        total_im += ab_im[:, :, None] * c_re[None, None, :]
    if c_im is not None:
        total_im += ab_re[:, :, None] * c_im[None, None, :]
        if ab_im is not None:
            total_re -= ab_im[:, :, None] * c_im[None, None, :]


def _closed_grid(n: int, family: str, shapes):
    """2^(n+1) * closed-form values, matching _direct_grid's axis layout."""
    size = 1 << n
    full = size - 1
    par = _parity_table(n)
    scale = 1 << (n + 1)
    masks = np.arange(size)
    re = np.zeros(shapes, dtype=np.int64)
    im = np.zeros(shapes, dtype=np.int64)
    if family in ("rho-rho-rho", "chi-chi-rho"):
        return re, im
    lab = np.repeat(masks, size)  # label mask per flattened (lab, T) index
    t_arg = np.tile(masks, size)  # T mask per flattened (lab, T) index
    if family == "chi-chi-chi":
        f = par.reshape(-1)  # f[(A,T)] = (-1)^|A cap T|
        delta = (
            lab[:, None, None] ^ lab[None, :, None] ^ lab[None, None, :]
        ) == 0
        re[:] = scale * (
            f[:, None, None] * f[None, :, None] * f[None, None, :]
        ) * delta
        return re, im
    # chi-rho-rho: slot1 (A, T1); slots 2, 3 have a sign axis
    eps = np.array([1, -1])
    if n % 2 == 0:
        g = par[lab[:, None], masks[None, :] ^ t_arg[:, None]]  # [(A,T1), T2]
        t_eq = np.eye(size, dtype=np.int64)
        v = (
            g[:, :, None, None, None]
            * t_eq[None, :, None, :, None]
            * (eps[None, None, :, None, None] * eps[None, None, None, None, :])
        )
        re[:] = scale * v.reshape(shapes)
        return re, im
    # n odd: slots 2, 3 flatten (eta-label, T, sign)
    cr, ci = top_phase_re_im(n)
    csq = 1 if ci == 0 else -1
    scale2 = 1 << n  # scale * the 1/2 prefactor
    xsign = 1 - 2 * _xi_bit_table(n)
    p_t = par[lab[:, None], masks[None, :] ^ t_arg[:, None]]  # [(A,T1), T]
    p_tc = par[lab[:, None], (masks[None, :] ^ full) ^ t_arg[:, None]]
    s1 = xsign[masks, masks] * xsign[masks, masks ^ full]  # xi(T,T), xi(T,Tc)
    s2 = xsign[masks ^ full, masks] * xsign[masks ^ full, masks ^ full]
    t_eq = np.eye(size, dtype=np.int64)
    t_comp = np.zeros((size, size), dtype=np.int64)
    t_comp[masks, masks ^ full] = 1
    re_m = re.reshape(shapes[0], 2, size, 2, 2, size, 2)
    im_m = im.reshape(shapes[0], 2, size, 2, 2, size, 2)
    for k2, eta2 in enumerate((1, -1)):
        for k3, eta3 in enumerate((1, -1)):
            same = (
                p_t[:, :, None] + csq * eta2 * eta3 * p_tc[:, :, None]
            ) * t_eq[None, :, :]
            comp = (
                eta3 * p_t[:, :, None] * s1[None, :, None]
                + eta2 * p_tc[:, :, None] * s2[None, :, None]
            ) * t_comp[None, :, :]
            for i2, e2 in enumerate((1, -1)):
                for i3, e3 in enumerate((1, -1)):
                    sgn = e2 * e3
                    re_m[:, k2, :, i2, k3, :, i3] = scale2 * sgn * (
                        same + cr * comp
                    )
                    im_m[:, k2, :, i2, k3, :, i3] = scale2 * sgn * (-ci) * comp
    return re, im


@dataclass
class GridFamilyReport:
    family: str
    points: int
    agree: bool


def closed_vs_direct_grids(n: int):
    """Compare closed forms with direct summation on the full input grid.

    Covers every analyzed family at degree n; both sides are scaled by
    2^(n+1) so everything stays integral.  Returns per-family reports.
    """
    if n > MAX_GRID_DEGREE:
        raise GuardError(f"full-grid comparison guarded at n <= {MAX_GRID_DEGREE}")
    chi, rho = _slot(n, spin=False), _slot(n, spin=True)
    fams = [
        ("chi-chi-chi", (chi, chi, chi)),
        ("rho-rho-rho", (rho, rho, rho)),
        ("chi-rho-rho", (chi, rho, rho)),
        ("chi-chi-rho", (chi, chi, rho)),
    ]
    reports = []
    for family, slots in fams:
        d_re, d_im = _direct_grid(n, slots)
        c_re, c_im = _closed_grid(n, family, d_re.shape)
        agree = np.array_equal(d_re, c_re) and np.array_equal(d_im, c_im)
        reports.append(GridFamilyReport(family, int(d_re.size), agree))
    return reports
