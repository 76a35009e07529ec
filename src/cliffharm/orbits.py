"""Conjugation orbits on CL(n) x CL(n) and the spherical characters of the
pair (CL(n) x CL(n) x CL(n), diagonal).

A PairOrbit (m = n) holds an orbit's ascending pair keys and decodes its
members into elements on read: orbit_of closes one pair's key under the
generators, enumerate_pair_orbits cuts the keys by their _pair_orbit_labels
label, and predicted_orbit flips the key by elements._sign_flips, the rule
predicted_labels reads.
Spherical characters likewise: direct summation over the subgroup
(spherical_value, which is gelfand.spherical_character with H = G) versus
the closed-form case formulas.  The case formulas are written once, as
exact integer code on ints or integer arrays (_closed_scaled):
spherical_closed_form evaluates them at one point, and the full-grid
comparison evaluates them, in int16, on whole slabs of the grid.  That
comparison scales both sides by 2^(n+1) and checks them one slab of the
last slot at a time; the direct side tabulates gelfand.conj_summands at
every h in CL(n), so the rows spherical_value reads off the centre are
checked exhaustively, and sums by a popcount of sign bits if every summand
is real and +-1, else by matmul over the rows where the last slot's
summand is nonzero (_nonzero_rows): at most 4 of 2^(n+1) for a spin slot.

With H = G, psi does not change when the three (label, point) slots are
permuted together, so spherical_closed_form sorts the chi slots first and
picks the formula by the number of spin slots: none is chi x chi x chi,
two is chi x rho x rho, and an odd number gives 0, since h -> -h negates
every summand.  No ordering is summed, so SphericalResult.analyzed is
always True; it stays because the perfbench spherical workload reads it.

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

import numpy as np

from .exact import GaussianRational, gr
from .elements import (
    CliffordElement,
    DegreeMismatchError,
    _check_degree,
    _element_at,
    _minus_one_to,
    _pair_orbit,
    _pair_orbit_labels,
    _sign_flips,
    _xi_parity,
    TripleElement,
    element_index,
)
from .characters import IrrepLabel, spin_labels, top_phase_re_im
from .gelfand import TripleIrrepLabel, conj_summands, spherical_character
from .linalg import complex_matmul

# enumerate_pair_orbits(7) finds its 17,152 orbits in 0.02 s with a 36 MB
# peak RSS (2-CPU VM); n = 8 would take 0.10 s and 58 MB for 66,304.
MAX_PAIR_ORBIT_DEGREE = 7
# closed_vs_direct_grids(4) compares its 19.2 M points in 0.08-0.14 s cold
# with a 32.6 MB peak RSS (2-CPU VM), 16.8 M of them chi x chi x chi by
# sign-bit popcount in int16; n = 5 has 1,024 chi points per slot, 1.07 G
# chi x chi x chi points, and 64 rows h, which do not fit the sign-bit
# packing.
MAX_GRID_DEGREE = 4


@dataclass(frozen=True)
class PairOrbit:
    """Orbit of CL(n) acting by simultaneous conjugation on pairs: its
    ascending pair keys, decoded into pairs of elements on read."""

    degree: int
    keys: tuple

    @property
    def size(self) -> int:
        return len(self.keys)

    @property
    def members(self) -> tuple:
        return tuple(map(self._pair, self.keys))

    @property
    def representative(self) -> tuple:
        return self._pair(self.keys[0])

    def _pair(self, key: int) -> tuple:
        i, j = divmod(key, 2 << self.degree)
        return _element_at(i, self.degree), _element_at(j, self.degree)


def _pair_key(pair, n: int) -> int:
    """The pair key i << (n + 1) | j of a pair of CL(n) elements."""
    _check_degree(n)
    x, y = pair
    if x.degree != n or y.degree != n:
        raise DegreeMismatchError("pair degree mismatch")
    return element_index(x) << (n + 1) | element_index(y)


def orbit_of(pair, n: int) -> PairOrbit:
    """Brute-force orbit of one pair: elements._pair_orbit of its pair key."""
    return PairOrbit(n, tuple(_pair_orbit(_pair_key(pair, n), n, n)))


def enumerate_pair_orbits(n: int):
    """Every orbit, in the order of its first pair by (sign, mask): the
    pair keys sorted stably by elements._pair_orbit_labels (with m = n),
    cut where the label changes."""
    _check_degree(n, MAX_PAIR_ORBIT_DEGREE)
    labels = _pair_orbit_labels(n, n)
    order = np.argsort(labels, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), len(order)]
    keys = order.tolist()
    return [PairOrbit(n, tuple(keys[a:b])) for a, b in zip(cuts, cuts[1:])]


def predicted_orbit(pair, n: int) -> PairOrbit:
    """Orbit by the sign-flip lemma alone: the pair's key and its
    elements._sign_flips over X_n, in key order."""
    key = _pair_key(pair, n)
    x, y, both = _sign_flips(key, n, n)
    return PairOrbit(n, tuple(sorted({key, key ^ x, key ^ y, key ^ both})))


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
    """(1/2^n) sum_D (-1)^|U cap D| by direct summation: 1 iff U empty.

    The 2^n masks D are summed in one int64 pass, guarded at n <=
    MAX_DEGREE, so the sum stays within +/-2^16."""
    _check_degree(n)
    if subset_mask >> n:
        raise ValueError("subset not contained in X_n")
    total = int(_minus_one_to(subset_mask & np.arange(1 << n, dtype=np.int64)).sum())
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
    analyzed: bool  # always True: every ordering has a closed form
    family: str


# The chi-first orderings; every other ordering is a slot permutation of one.
FAMILIES = ("chi-chi-chi", "rho-rho-rho", "chi-rho-rho", "chi-chi-rho")


def _label_parameter(label: IrrepLabel) -> int:
    """The chi mask, or eta = +-1 for a spin label (-1 only for rho-)."""
    if label.kind == "chi":
        return label.mask
    return -1 if label.kind == "rho-" else 1


def _xi_sign(a, b):
    return 1 - 2 * _xi_parity(a, b)


def _closed_scaled(n: int, spins: int, x1, x2, x3):
    """2^(n+1) * psi by the case formulas, as (re, im), for `spins` spin
    slots placed after the chi slots.

    Each slot xk = (label parameter, T mask, sign) of the k-th label and
    element; its entries are ints, or broadcastable arrays of one signed
    integer dtype, which the arithmetic keeps.  Every value is at most
    2^(n+1) in size and the intermediates are no larger, so int64 cannot
    overflow up to n = 16.  The grid passes int16: its values are at most
    2^(n+1) = 32 at MAX_GRID_DEGREE = 4 (chi x chi x chi is a product of
    three +-1 values shifted by n + 1 <= 5), and its masks, below 2^4, keep
    the shift by 8 of xi's fold inside the 16-bit word.
    """
    (a, t1, _), (p2, t2, e2), (p3, t3, e3) = x1, x2, x3
    if spins == 0:
        # the parity of an XOR is the XOR of the parities; slot 3 is one point
        # per grid slab, so a ^ p3 and the sign's first product stay a column
        sign = _minus_one_to(a & t1) * _minus_one_to(p3 & t3) * _minus_one_to(p2 & t2)
        return (a ^ p3 == p2) * sign << (n + 1), 0
    if spins != 2:  # -1 acts as -1 on an odd number of spin slots
        return 0, 0
    sign = e2 * e3
    if n % 2 == 0:
        return (t2 == t3) * sign * _minus_one_to(a & (t1 ^ t2)) << (n + 1), 0
    # n odd: the 1/2 prefactor leaves 2^n; c^2 = conj(c)^2 = csq
    cr, ci = top_phase_re_im(n)
    csq = 1 if ci == 0 else -1
    tc = ((1 << n) - 1) ^ t2
    p_t, p_tc = _minus_one_to(a & (t1 ^ t2)), _minus_one_to(a & (t1 ^ tc))
    same = (t2 == t3) * (p_t + csq * p2 * p3 * p_tc)
    comp = (tc == t3) * (
        p3 * p_t * _xi_sign(t2, t2) * _xi_sign(t2, tc)
        + p2 * p_tc * _xi_sign(tc, t2) * _xi_sign(tc, tc)
    )
    # the T2 = complement(T3) branch carries conj(c)
    return sign * (same + cr * comp) << n, -ci * sign * comp << n


def spherical_closed_form(q: SphericalQuery) -> SphericalResult:
    """_closed_scaled at one point, divided by 2^(n+1), after a stable sort
    moves the chi slots, each label with its point, to the front."""
    n = q.sigma.rho1.degree
    labels = (q.sigma.rho1, q.sigma.rho2, q.sigma.theta)
    family = "-".join("chi" if lab.kind == "chi" else "rho" for lab in labels)
    slots = sorted(zip(labels, (q.at.g1, q.at.g2, q.at.h)), key=lambda s: s[0].kind != "chi")
    re, im = _closed_scaled(
        n, family.count("rho"), *[(_label_parameter(lab), g.mask, g.sign) for lab, g in slots]
    )
    scale = 1 << (n + 1)
    return SphericalResult(
        gr(Fraction(int(re), scale), Fraction(int(im), scale)), True, family
    )


# -- exhaustive closed-vs-direct comparison (vectorized, exact integers) ----


def _slot(n: int, spin: bool):
    """(summands, points) for one slot of the grid, over the chi labels of
    CL(n) or over its spin labels.

    The slot's grid points are its (label, T, sign) triples, label-major,
    with the sign held at +1 for chi labels, which do not see it; points
    lists them as the int16 (label parameter, T, sign) rows that
    _closed_scaled reads (every entry is below 2^n <= 2^MAX_GRID_DEGREE in
    size).  summands = (re, im) is gelfand.conj_summands for each label,
    side by side: an int64 row per h in CL(n) and a column per grid point.
    """
    labels = spin_labels(n) if spin else [IrrepLabel(n, "chi", a) for a in range(1 << n)]
    params = [_label_parameter(lab) for lab in labels]
    grid = np.meshgrid(params, np.arange(1 << n), (1, -1)[: 1 + spin], indexing="ij")
    points = np.stack([a.reshape(len(labels), -1) for a in grid])  # by label
    rows = np.arange(2 << n, dtype=np.int64)
    tables = [conj_summands(lab, n, rows, e, t) for lab, t, e in zip(labels, points[1], points[2])]
    summands = tuple(np.hstack(part) for part in zip(*tables))
    return summands, points.reshape(3, -1).astype(np.int16)


def _sign_bits(re, im):
    """Column words of a real +-1 table, bit h set where row h is -1; else None."""
    if not im.any() and np.all(np.abs(re) == 1):
        if len(re) > 62:
            raise ValueError(f"{len(re)} rows do not fit below bit 62 of an int64")
        return ((re < 0) << np.arange(len(re))[:, None]).sum(axis=0)


def _nonzero_rows(re, im):
    """The rows h where a summand column re + i im is nonzero."""
    return np.flatnonzero(re | im)


def _direct_grid(slots):
    """2^(n+1) * psi over the full grid by literal summation over h, one
    slab per point k of the last slot: sum_h c[h, k] outer(a[h], b[h]).

    If every summand is real and +-1, a product is -1 where an odd number of
    its _sign_bits is set, so slab k is rows - 2 popcount(a[:, None] ^ b ^
    c_k), in int16: rows are at most 2^(MAX_GRID_DEGREE+1) = 32.
    np.bitwise_count counts the bits of |x| for signed x, so bit 63 would
    miscount; 32 rows stay below bit 62.  Otherwise slab k sums only the
    rows h where _nonzero_rows finds c[h, k] nonzero, (c[h, k] a[h])^T b[h]
    by complex_matmul: a spin slot, which every such family has last,
    vanishes off the h with h g_k central.  Exact in int64: terms are at
    most 2^(3n/2), and at most 2^(n+1) of them.
    """
    (a_re, a_im), (b_re, b_im), (c_re, c_im) = slots
    bits = [_sign_bits(*summands) for summands in slots]
    if all(w is not None for w in bits):
        pair = bits[0][:, None] ^ bits[1]
        rows = len(c_re)
        return ((rows - 2 * np.bitwise_count(pair ^ w).astype(np.int16), 0) for w in bits[2])

    def slab(k):
        h = _nonzero_rows(c_re[:, k], c_im[:, k])
        cr, ci, ar, ai = c_re[h, k, None], c_im[h, k, None], a_re[h], a_im[h]
        return complex_matmul(((cr * ar - ci * ai).T, (cr * ai + ci * ar).T), (b_re[h], b_im[h]))

    return (slab(k) for k in range(c_re.shape[1]))


def _first_mismatch(direct, closed):
    """(k, i, j) of the first grid point where two slab streams differ, slab
    by slab, or None; only a slab that differs is searched."""
    for k, ((d_re, d_im), (c_re, c_im)) in enumerate(zip(direct, closed)):
        if not (np.all(d_re == c_re) and np.all(d_im == c_im)):
            wrong = (d_re != c_re) | (d_im != c_im)
            return (k, *divmod(int(np.flatnonzero(wrong)[0]), wrong.shape[1]))
    return None


def _grid_query(n: int, family: str, slot_points, cols):
    """The SphericalQuery at one grid point: column cols[s] of slot s."""
    slots = []
    for kind, points, col in zip(family.split("-"), slot_points, cols):
        param, t, e = points[:, col].tolist()
        # a spin parameter is eta: -1 only for rho-, the second spin label
        label = IrrepLabel(n, "chi", param) if kind == "chi" else spin_labels(n)[param < 0]
        slots.append((label, CliffordElement(n, e, t)))
    labels, at = zip(*slots)
    return SphericalQuery(TripleIrrepLabel(*labels), TripleElement(*at, n))


@dataclass
class GridFamilyReport:
    family: str
    points: int
    agree: bool
    counterexample: SphericalQuery | None  # the first disagreeing point


def closed_vs_direct_grids(n: int):
    """Compare the closed form with direct summation on the full input grid.

    Covers the four chi-first FAMILIES at degree n; both sides are scaled
    by 2^(n+1) so everything stays integral, and they are compared one
    slab of the last slot at a time.  Returns per-family reports, each with
    the first disagreeing point, in slab order, as a SphericalQuery.
    """
    _check_degree(n, MAX_GRID_DEGREE)
    slot_of = {"chi": _slot(n, spin=False), "rho": _slot(n, spin=True)}
    reports = []
    for family in FAMILIES:
        slots = [slot_of[kind] for kind in family.split("-")]
        x1, x2, x3 = (points for _, points in slots)
        cols, rows = [x[:, None] for x in x1], [x[None, :] for x in x2]
        closed = (_closed_scaled(n, family.count("rho"), cols, rows, p) for p in zip(*x3))
        direct = _direct_grid([summands for summands, _ in slots])
        mismatch = _first_mismatch(direct, closed)
        counterexample = None
        if mismatch is not None:
            k, i, j = mismatch
            counterexample = _grid_query(n, family, (x1, x2, x3), (i, j, k))
        points = x1.shape[1] * x2.shape[1] * x3.shape[1]
        reports.append(GridFamilyReport(family, points, mismatch is None, counterexample))
    return reports
