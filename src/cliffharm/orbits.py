"""Conjugation orbits on CL(n) x CL(n) and the spherical characters of the
pair (CL(n) x CL(n) x CL(n), diagonal).

Orbits come in two flavours: the brute-force enumeration (the oracle),
which conjugates int64 element indices by every gamma_C at once through
elements.index_product, and the case-analysis prediction, which reads the
sign-flip lemma through elements.is_central and never multiplies.
Spherical characters likewise: direct summation over the subgroup
(spherical_value, which is gelfand.spherical_character with H = G) versus
the closed-form case formulas.  The case formulas are written once, as
exact integer code on ints or int64 arrays (_closed_scaled):
spherical_closed_form evaluates them at one point, and the full-grid
comparison evaluates them on whole slabs of the grid.  That comparison
scales both sides by 2^(n+1) and checks them one slab of the first slot at
a time; the direct side sums the summand table gelfand.conj_summands over
every h in CL(n), the table that spherical_value sums at one point.

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
from functools import lru_cache

import numpy as np

from .exact import GaussianRational, gr
from .elements import (
    CliffordElement,
    DegreeMismatchError,
    _check_degree,
    _minus_one_to,
    _xi_parity,
    TripleElement,
    element_index,
    enumerate_group,
    index_product,
    index_sign_mask,
    is_central,
)
from .characters import IrrepLabel, irreps, top_phase_re_im
from .gelfand import TripleIrrepLabel, conj_summands, spherical_character
from .linalg import complex_matmul

# enumerate_pair_orbits(7) finds its 17,152 orbits in 0.4 s with a 38 MB
# peak RSS (2-CPU VM); n = 8 would take 2.1 s and 59 MB for 66,304.
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


@lru_cache(maxsize=None)
def _conjugators(n: int):
    """(c, c_inv): read-only int64 element indices of gamma_C and of its
    inverse, for C = 0..2^n - 1."""
    c = np.arange(1 << n, dtype=np.int64)
    c_inv = c ^ index_product(c, c, n)
    c.setflags(write=False)
    c_inv.setflags(write=False)
    return c, c_inv


def _conjugates(x, n: int):
    """Indices of gamma_C^-1 x_i gamma_C for every subset C, by
    index_product on ints or int64 arrays: column C for C = 0..2^n - 1."""
    c, c_inv = _conjugators(n)
    return index_product(index_product(c_inv, x, n), c, n)


def _distinct(keys):
    """The distinct values of an int64 array, ascending, as a list: a sort
    and a neighbour mask (np.unique would import numpy.ma, which costs
    RSS)."""
    keys = np.sort(keys, axis=None)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))].tolist()


def _orbit_from_keys(keys, n: int, group=None) -> PairOrbit:
    """The orbit with the ascending pair keys i << (n + 1) | j of element
    indices, the (sign, mask) order; x_i is group[i] or is built from i."""
    pairs = [divmod(k, 2 << n) for k in keys]
    at = group or {i: CliffordElement(n, *index_sign_mask(i, n)) for i in set(sum(pairs, ()))}
    members = tuple((at[i], at[j]) for i, j in pairs)
    return PairOrbit(members[0], members)


def orbit_of(pair, n: int) -> PairOrbit:
    """Brute-force orbit of one pair under conjugation by every gamma_C.

    Signed conjugators act like the unsigned ones, so C ranges over subsets,
    all in one pass of index_product on int64 element indices (below 2^17;
    pair keys below 2^34), independent of the predicted route.
    """
    _check_degree(n)
    x, y = pair
    if x.degree != n or y.degree != n:
        raise DegreeMismatchError("pair degree mismatch")
    x, y = _conjugates(np.array([[element_index(x)], [element_index(y)]], dtype=np.int64), n)
    return _orbit_from_keys(_distinct(x << (n + 1) | y), n)


def enumerate_pair_orbits(n: int):
    """Every orbit, in the order of its first pair by (sign, mask), read
    from one conjugation table conj[i, C] of shape 2^(n+1) x 2^n."""
    _check_degree(n, MAX_PAIR_ORBIT_DEGREE)
    group, size = enumerate_group(n), 2 << n
    conj = _conjugates(np.arange(size, dtype=np.int64)[:, None], n)
    seen = np.zeros(size * size, dtype=bool)
    orbits = []
    for k in range(size * size):
        if not seen[k]:
            keys = sorted(set((conj[k // size] << (n + 1) | conj[k % size]).tolist()))
            seen[keys] = True
            orbits.append(_orbit_from_keys(keys, n, group))
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
    nx, ny = CliffordElement(n, -x.sign, a), CliffordElement(n, -y.sign, b)
    if is_central(a, n):
        members = [(x, y)] if is_central(b, n) else [(x, y), (x, ny)]
    elif is_central(b, n):
        members = [(x, y), (nx, y)]
    elif a == b or (n % 2 == 1 and a & b == 0 and a | b == (1 << n) - 1):
        members = [(x, y), (nx, ny)]
    else:
        members = [(x, y), (nx, y), (x, ny), (nx, ny)]
    members = tuple(sorted(members, key=lambda p: (element_index(p[0]), element_index(p[1]))))
    return PairOrbit(members[0], members)


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

    The 2^n masks D are summed in one int64 pass.  _minus_one_to reads masks
    below 2^16, hence the guard n <= MAX_DEGREE, and the sum stays within
    +/-2^16."""
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
    element; its entries are ints or broadcastable int64 arrays.  Every
    value is at most 2^(n+1) <= 2^17 in size and the intermediates are no
    larger, so the int64 arithmetic cannot overflow.
    """
    (a, t1, _), (p2, t2, e2), (p3, t3, e3) = x1, x2, x3
    if spins == 0:
        cancel = a ^ p2 ^ p3 == 0
        return cancel * _minus_one_to((a & t1) ^ (p2 & t2) ^ (p3 & t3)) << (n + 1), 0
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


# -- exhaustive closed-vs-direct comparison (vectorized, exact int64) -------


def _slot(n: int, spin: bool):
    """(summands, points) for one slot of the grid, over the chi labels of
    irreps(n) or over its spin labels.

    The slot's grid points are its (label, T, sign) triples, label-major,
    with the sign held at +1 for chi labels, which do not see it; points
    lists them as the (label parameter, T, sign) rows that _closed_scaled
    reads.  summands = (re, im) is gelfand.conj_summands for each label,
    side by side: a row per h in CL(n) and a column per grid point.
    """
    labels = [lab for lab in irreps(n) if (lab.kind != "chi") == spin]
    params = [_label_parameter(lab) for lab in labels]
    grid = np.meshgrid(params, np.arange(1 << n), (1, -1)[: 1 + spin], indexing="ij")
    points = np.stack([a.reshape(len(labels), -1) for a in grid])  # by label
    tables = [conj_summands(lab, n, e, t) for lab, t, e in zip(labels, points[1], points[2])]
    return tuple(np.hstack(part) for part in zip(*tables)), points.reshape(3, -1)


def _direct_grid(slots):
    """2^(n+1) * psi over the full grid by literal summation over h, one
    slab per point i of the first slot.

    With rows h and columns grid points, slab i is
    sum_h a[h, i] outer(b[h], c[h]) = (a[:, i, None] * b)^T c.  All
    arithmetic is int64 and exact: terms are at most 2^(3n/2) in size and
    there are 2^(n+1) of them.
    """
    (a_re, a_im), (b_re, b_im), c = slots
    for i in range(a_re.shape[1]):
        ar, ai = a_re[:, i, None], a_im[:, i, None]
        yield complex_matmul(((ar * b_re - ai * b_im).T, (ar * b_im + ai * b_re).T), c)


@dataclass
class GridFamilyReport:
    family: str
    points: int
    agree: bool


def closed_vs_direct_grids(n: int):
    """Compare the closed form with direct summation on the full input grid.

    Covers the four chi-first FAMILIES at degree n; both sides are scaled
    by 2^(n+1) so everything stays integral, and they are compared one
    slab of the first slot at a time.  Returns per-family reports.
    """
    _check_degree(n, MAX_GRID_DEGREE)
    slot_of = {"chi": _slot(n, spin=False), "rho": _slot(n, spin=True)}
    reports = []
    for family in FAMILIES:
        slots = [slot_of[kind] for kind in family.split("-")]
        x1, x2, x3 = (points for _, points in slots)
        cols, rows = [x[:, None] for x in x2], [x[None, :] for x in x3]
        closed = (_closed_scaled(n, family.count("rho"), p, cols, rows) for p in zip(*x1))
        direct = _direct_grid([summands for summands, _ in slots])
        agree = all(
            np.all(d_re == c_re) and np.all(d_im == c_im)
            for (d_re, d_im), (c_re, c_im) in zip(direct, closed)
        )
        points = x1.shape[1] * x2.shape[1] * x3.shape[1]
        reports.append(GridFamilyReport(family, points, agree))
    return reports
