"""Reproduction suite: one check per headline claim, three effort levels.

Levels: smoke (tiny degrees, seconds), desk (the documented acceptance
ranges), deep (desk plus extended sampled ranges).  Every comparison is
exact; a check either reproduces the claimed statement on its whole range
or fails with the first counterexample.  CHECKS declares each check once:
its description and parts, each a body run at one degree (n or (n, m))
that returns None or the failure detail, a pass-detail template and its
degrees per level.  A sampled body's rng is seeded by (seed, check id,
degree) alone, so one degree run by itself replays what the whole run saw.
"""

from __future__ import annotations

import random
import shlex
import time
from dataclasses import dataclass
from itertools import product

import numpy as np

from .elements import MAX_DEGREE, CliffordElement, TripleElement, format_element, index_sign_mask
from .elements import _element_at, _pair_orbit, _pair_orbit_labels, predicted_labels
from .characters import (
    ClassFunction,
    IrrepLabel,
    chi,
    irreps,
    spin_labels,
    irrep_character,
    tensor_character,
    restrict_character,
    decompose,
    restricted_kronecker,
    char_re_im,
    format_label,
)
from .gelfand import (
    TripleIrrepLabel,
    diagonal_invariant_dim,
    gelfand_check_characters,
    gelfand_check_biinvariant,
)
from .matrix_models import (
    MAX_ETA_DEGREE,
    MAX_RHO_MODEL_DEGREE,
    FrobeniusContext,
    build_matrix_rep,
    matrix_coefficient_checks,
)
from .linalg import ScaledMatrix, hs_inner, scaled_hs_inner, trace
from .orbits import (
    MAX_PAIR_ORBIT_DEGREE,
    SphericalQuery,
    closed_vs_direct_grids,
    spherical_closed_form,
    spherical_value,
    subset_sum_lemma,
)


@dataclass
class CheckResult:
    ident: str
    description: str
    ok: bool
    detail: str
    degrees: tuple  # one tuple of degrees per part, as run
    seconds: float


def _chars_equal(f, g):
    return f.degree == g.degree and f.values == g.values


def _gelfand_equal(n, rng):
    r = gelfand_check_characters(n, n)
    if not r.gelfand:
        return f"failed at n={n}: max multiplicity {r.max_multiplicity}"


def _gelfand_drop(n, rng):
    r = gelfand_check_characters(n, n - 1)
    if r.gelfand != (n % 2 == 1):
        return f"wrong verdict at n={n}"
    if n % 2 == 0:
        if r.witness_multiplicity != 2:
            return f"witness multiplicity {r.witness_multiplicity} at n={n}"
        w = r.witness
        if (w.rho1.kind, w.rho2.kind, w.theta.mask) != ("rho", "rho", 0):
            return f"unexpected witness {w} at n={n}"


def _chi_terms(n, mult, parity=None):
    """The terms (chi_A, mult) of CL(n) in label order, over the A with |A|
    of the given parity, or over every A when parity is None."""
    return [
        (IrrepLabel(n, "chi", mask), mult)
        for mask in range(1 << n)
        if parity is None or mask.bit_count() % 2 == parity
    ]


def _tensor_table(n, rng):
    """Each a (x) b of spin labels is a sum of distinct chi_A: every A at
    even n, and at odd n the A with (-1)^|A| = (-1)^((n-1)/2) eta_a eta_b."""
    for a, b in product(spin_labels(n), repeat=2):
        parity = None if n % 2 == 0 else ((n - 1) // 2 + (a != b)) % 2
        if list(decompose(tensor_character(a, b)).terms) != _chi_terms(n, 1, parity):
            return f"{a} x {b} at n={n}"


def _chi_rows(n, m):
    """Res_{CL(m)} chi_A for every chi label of CL(n), stacked as (re, im)."""
    rows = [restrict_character(irrep_character(chi(n, a)), m) for a in range(1 << n)]
    return np.stack([f.re for f in rows]), np.stack([f.im for f in rows])


def _restriction_rules(n, rng):
    """Every rule to CL(n - 1): chi x chi, chi x spin (the sum of the spin
    characters of CL(m)) and spin x spin (every chi of CL(m), twice at even
    n)."""
    m = n - 1
    top = 1 << (n - 1)
    # chi x chi for all pairs at once, in one int64 broadcast: the rows of
    # A and B times the row of C = (A ^ B) minus the top index.  For
    # integers x y z = 1 exactly when x, y, z are +/-1 and x y = z, so the
    # product is 1 everywhere exactly when the rule holds, and the
    # in-place products need one (2^n, 2^n, classes) array, not three.
    re, im = _chi_rows(n, m)
    want_re, want_im = _chi_rows(m, m)
    if im.any() or want_im.any():
        return f"a chi character of CL({n}) or CL({m}) is not real"
    ab = np.arange(1 << n)
    prod = want_re[(ab[:, None] ^ ab) & ~top]
    prod *= re[:, None]
    prod *= re
    bad = (prod != 1).any(axis=2)
    if bad.any():
        a, b = np.argwhere(bad)[0]
        return f"chi x chi at n={n}, A={a}, B={b}"
    spin_chars = [irrep_character(s) for s in spin_labels(m)]
    target = ClassFunction(m, sum(f.re for f in spin_chars), sum(f.im for f in spin_chars))
    for spin in spin_labels(n):
        for a in range(1 << n):
            f = restrict_character(tensor_character(chi(n, a), spin), m)
            if not _chars_equal(f, target):
                return f"chi x {spin} at n={n}, A={a}"
    for s1, s2 in product(spin_labels(n), repeat=2):
        if list(restricted_kronecker(s1, s2, m).terms) != _chi_terms(m, 2 - n % 2):
            return f"{s1} x {s2} restriction at n={n}"


def _sampled_chi_chi(n, rng):
    """The chi x chi rule at 32 seeded pairs (A, B)."""
    m, top = n - 1, 1 << (n - 1)
    for _ in range(32):
        a, b = rng.randrange(1 << n), rng.randrange(1 << n)
        f = restrict_character(tensor_character(chi(n, a), chi(n, b)), m)
        if not _chars_equal(f, irrep_character(chi(m, (a ^ b) & ~top))):
            return f"chi x chi at n={n}, A={a}, B={b}"


def _label_mismatch(n, m, key):
    x, y = (_element_at(i, n) for i in divmod(int(key), 2 << n))
    return f"label mismatch at n={n}, m={m}, pair ({x}, {y})"


def _orbit_labels(n, rng):
    keys = np.arange(1 << (2 * n + 2), dtype=np.int64)
    for m in (n, n - 1):
        bad = np.flatnonzero(predicted_labels(keys, n, m) != _pair_orbit_labels(n, m))
        if len(bad):
            return _label_mismatch(n, m, bad[0])


def spherical_replay(q: SphericalQuery) -> str:
    """The `cliffharm spherical` command line that recomputes q both ways."""
    n = q.sigma.rho1.degree
    labels = ",".join(map(format_label, (q.sigma.rho1, q.sigma.rho2, q.sigma.theta)))
    at = ",".join(map(format_element, (q.at.g1, q.at.g2, q.at.h)))
    return f"cliffharm spherical {n} --triple {shlex.quote(labels)} --at {shlex.quote(at)}"


def _spherical_grid(n, rng):
    for rep in closed_vs_direct_grids(n):
        if not rep.agree:
            replay = spherical_replay(rep.counterexample)
            return f"family {rep.family} disagrees at n={n}; replay: {replay}"


def _subset_sum_lemma(n, rng):
    for u in range(1 << n):
        if subset_sum_lemma(u, n) != (1 if u == 0 else 0):
            return f"subset-sum lemma fails at n={n}, U={u:b}"


def sampled_triples(n, m, rng):
    """One triple per chi/spin ordering of the slots, chi masks from rng.  A
    spin slot takes its degree's last spin label when the next slot
    (cyclically) is spin too, else the first: every slot meets every one."""
    for spin in product((False, True), repeat=3):
        yield tuple(
            spin_labels(d)[-spin[(j + 1) % 3]] if spin[j] else chi(d, rng.randrange(1 << d))
            for j, d in enumerate((n, n, m))
        )


def frobenius_mismatch(n, m, r1, r2, th):
    """The first C7 failure for one irrep triple, or None.

    Compares the dimensions of Hom(rho1 x rho2 x theta, eta), of
    Hom(Res(rho1 (x) rho2), theta'), of the invariant tensors and the
    character count, then checks that tilde and hat are mutually inverse
    and that tilde is an isometry.
    """
    ctx = FrobeniusContext(n, m, r1, r2, th)
    d = diagonal_invariant_dim(r1, r2, th)
    he = ctx.hom_triple_eta()
    hs = ctx.hom_res_theta_prime()
    inv = ctx.invariant_tensors()
    if not he.dimension == hs.dimension == len(inv) == d:
        return "dimension mismatch"
    tildes = [ctx.tilde(t) for t in he.basis]
    for t, tt in zip(he.basis, tildes):
        if ctx.hat(tt) != ScaledMatrix(0, t):
            return "hat(tilde) != id"
    for s in hs.basis:
        if ctx.tilde(ctx.hat(s)) != ScaledMatrix(0, s):
            return "tilde(hat) != id"
    for i, ti in enumerate(he.basis):
        for j, tj in enumerate(he.basis):
            if scaled_hs_inner(tildes[i], tildes[j]) != hs_inner(ti, tj):
                return "isometry fails"
    return None


def _every_triple(n, m, rng, triples=None):
    """C7 at (n, m) on the given triples, by default on every irrep triple."""
    for r1, r2, th in triples or product(irreps(n), irreps(n), irreps(m)):
        err = frobenius_mismatch(n, m, r1, r2, th)
        if err:
            return f"{err} at (n,m)=({n},{m}), triple ({r1}, {r2}, {th})"


def _sampled_triple(n, m, rng):
    return _every_triple(n, m, rng, sampled_triples(n, m, rng))


def _method_agreement(n, m, rng):
    a = gelfand_check_characters(n, m).gelfand
    b = gelfand_check_biinvariant(n, m)
    if a != b:
        return f"methods disagree at (n,m)=({n},{m}): {a} vs {b}"


def _traces(n, rng):
    """The trace of every image table against char_re_im at every element,
    one array comparison per irrep."""
    sign, mask = index_sign_mask(np.arange(2 << n), n)
    for lab in irreps(n):
        re, im = trace(build_matrix_rep(lab))
        want_re, want_im = char_re_im(lab, sign, mask)
        bad = np.flatnonzero((re != want_re) | (im != want_im))
        if len(bad):
            g = CliffordElement(n, int(sign[bad[0]]), int(mask[bad[0]]))
            return f"trace mismatch for {format_label(lab)} at {format_element(g)}"


def _coefficients(n, rng):
    report = matrix_coefficient_checks(n)
    if not report.ok:
        return f"coefficient identity failures at n={n}: {report.failures[:3]}"


def _sampled_orbit_labels(n, m, rng):
    """C5's rule past its range: 500 seeded pair keys, masks cycling through
    six shapes over X_m (both free; equal; complementary; y's central; x's
    central; both central), so flip vectors that are 0, equal and distinct
    are all hit; every member of each key's _pair_orbit must carry the
    orbit's least key as its predicted_labels."""
    z = (1 << m) - 1
    c = z * (m % 2)  # the central mask of CL(m) other than 0 for odd m
    for k in range(500):
        (sx, a), (sy, b) = ((rng.randrange(2), rng.randrange(1 << n)) for _ in range(2))
        a, b = ((a, b), (a, a), (a, a ^ z), (a, 0), (c, b), (c, 0))[k % 6]
        orbit = np.array(_pair_orbit((sx << n | a) << (n + 1) | sy << n | b, n, m))
        bad = orbit[predicted_labels(orbit, n, m) != orbit[0]]
        if len(bad):
            return _label_mismatch(n, m, bad[0])


def _sampled_spherical(n, rng):
    """spherical_closed_form against spherical_value at 128 seeded points,
    cycling over the eight chi/spin orderings of the slots.

    In the second of every four blocks of eight the first and last spin
    slots get equal masks, in the fourth complementary ones, and in both the
    chi-chi-chi labels cancel (C = A ^ B), so each nonzero branch of the
    closed form is hit in every ordering.
    """
    orderings = list(product(("chi", "rho"), repeat=3))
    spins = spin_labels(n)
    for k in range(128):
        kinds = orderings[k % 8]
        labels = [
            chi(n, rng.randrange(1 << n)) if kind == "chi" else rng.choice(spins)
            for kind in kinds
        ]
        at = [CliffordElement(n, rng.choice((1, -1)), rng.randrange(1 << n)) for _ in kinds]
        spin_at = [i for i, kind in enumerate(kinds) if kind == "rho"]
        if k // 8 % 2 and not spin_at:
            labels[2] = chi(n, labels[0].mask ^ labels[1].mask)
        elif k // 8 % 2 and len(spin_at) > 1:
            i, j = spin_at[0], spin_at[-1]
            t = at[i].mask ^ ((1 << n) - 1 if k // 16 % 2 else 0)
            at[j] = CliffordElement(n, at[j].sign, t)
        q = SphericalQuery(TripleIrrepLabel(*labels), TripleElement(*at, n))
        closed, direct = spherical_closed_form(q).value, spherical_value(q)
        if closed != direct:
            return (
                f"{'-'.join(kinds)} at n={n}: closed {closed} != direct {direct}; "
                f"replay: {spherical_replay(q)}"
            )


def subgroup_pairs(ns):
    """(n, n) and (n, n - 1) for each n in ns: both subgroups of each degree."""
    return tuple((n, m) for n in ns for m in (n, n - 1))


LEVELS = ("smoke", "desk", "deep")

# The character claims reach MAX_DEGREE = 16 at the deep level.  C5 to n = 8
# takes 0.1 s with a 49 MB peak RSS, to n = 9 0.6 s and 105 MB, and to n = 10
# 2.7 s and 328 MB (2-CPU VM).  C7 runs every triple at n = 3 too (500 at
# (3, 2), 1,000 at (3, 3)); past the full sweeps (4,913 triples at (4, 4),
# 39,304 at (5, 5)) eight seeded ones, in a 10 s budget: the 32 take about
# 2 s, 1 s of it two all-spin triples (2 CPUs).
CHECKS = {
    "C1": ("diagonal pair (n,n) is Gelfand", (
        (_gelfand_equal, "{}", range(1, 3), range(1, 7), range(1, MAX_DEGREE + 1)),)),
    "C2": ("pair (n,n-1) is Gelfand iff n odd; even-n witness has multiplicity 2", (
        (_gelfand_drop, "{}", range(2, 3), range(2, 7), range(2, MAX_DEGREE + 1)),)),
    "C3": ("tensor-square decomposition tables (even and odd degree)", (
        (_tensor_table, "{}", range(2, 4), range(2, 8), range(2, MAX_DEGREE + 1)),)),
    "C4": ("the five restriction rules for tensor products", (
        (_restriction_rules, "{}", range(2, 4), range(2, 7), range(2, 9)),
        (_sampled_chi_chi, "chi x chi at 32 pairs per {} (seed {seed})",
         (), (), range(9, MAX_DEGREE + 1)))),
    "C5": ("predicted orbit labels match the generator closure on all pairs", (
        (_orbit_labels, "{}, m = n and n - 1, exhaustive",
         range(1, 3), range(1, 9), range(1, 10)),)),
    "C6": ("spherical closed forms equal direct summation on full grids", (
        (_spherical_grid, "grids {}", range(1, 3), range(1, 5), range(1, 5)),
        (_subset_sum_lemma, "lemma {}", range(7), range(11), range(11)))),
    "C7": ("intertwiner isometry: dimensions, round trip, inner products", (
        (_every_triple, "{}: all irrep triples",
         subgroup_pairs(range(1, 2)), subgroup_pairs(range(1, 3)), subgroup_pairs(range(1, 4))),
        (_sampled_triple, "8 triples per {} (seed {seed})",
         (), (), subgroup_pairs(range(4, MAX_ETA_DEGREE + 1))))),
    "C8": ("character and convolution Gelfand verdicts agree", (
        (_method_agreement, "{}", ((1, 1), (2, 1)), ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3)),
         ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 4), (5, 5), (6, 5), (6, 6))),
    )),
    "C9": ("matrix-model traces match characters; coefficient identities hold", (
        (_traces, "traces {} at every element",
         range(3), range(MAX_RHO_MODEL_DEGREE + 1), range(MAX_RHO_MODEL_DEGREE + 1)),
        (_coefficients, "coefficients {}",
         range(2), range(MAX_ETA_DEGREE + 1), range(MAX_ETA_DEGREE + 1)))),
    "D1": ("sampled orbit labels match the generator closure, n=8..16", (
        (_sampled_orbit_labels, "500 pairs per {} (seed {seed})",
         (), (), subgroup_pairs(range(MAX_PAIR_ORBIT_DEGREE + 1, MAX_DEGREE + 1))),)),
    "D2": ("sampled spherical closed forms equal direct summation", (
        (_sampled_spherical, "128 points per degree, all 8 orderings, {} (seed {seed})",
         (), (), range(5, MAX_DEGREE + 1)),)),
}


def level_degrees(ident, level):
    """The degrees of each part of check `ident` at `level`; a level runs the
    checks that have a degree there."""
    return tuple(part[2 + LEVELS.index(level)] for part in CHECKS[ident][1])


def _span(degrees):
    """Name a tuple of degrees: n = a..b when they run through consecutive
    n, with m = n and n - 1 when they are the subgroup_pairs of such n."""
    first, last = degrees[0], degrees[-1]
    if isinstance(first, int):
        consecutive = degrees == tuple(range(first, last + 1))
        return f"n = {first}..{last}" if consecutive else f"n in {degrees}"
    if degrees == subgroup_pairs(range(first[0], last[0] + 1)):
        return f"n = {first[0]}..{last[0]}, m = n and n - 1"
    return f"(n,m) in {degrees}"


def run_check(ident, *degrees, seed=0):
    """Run check `ident` at the given degrees, one collection per part, in
    order; parts past those given run at none, and at least one degree must
    be given.  Stops at the first failure."""
    description, parts = CHECKS[ident]
    degrees = tuple(map(tuple, degrees)) + ((),) * (len(parts) - len(degrees))
    if not any(degrees):
        raise ValueError(f"check {ident} given no degree to run at")
    t0 = time.perf_counter()
    failures = (  # lazily, part by part; str seeds hash by sha512, not hash()
        body(*(d if isinstance(d, tuple) else (d,)), random.Random(repr((seed, ident, d))))
        for (body, *_), part_degrees in zip(parts, degrees)
        for d in part_degrees
    )
    failure = next(filter(None, failures), None)
    detail = failure or "; ".join(
        template.format(_span(ds), seed=seed) for (_, template, *_), ds in zip(parts, degrees) if ds
    )
    seconds = time.perf_counter() - t0
    return CheckResult(ident, description, failure is None, detail, degrees, seconds)


def run_suite(level="desk", seed=0):
    """Run the reproduction checks for the given effort level."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}; expected one of {LEVELS}")
    runs = [(ident, level_degrees(ident, level)) for ident in CHECKS]
    return [run_check(ident, *degrees, seed=seed) for ident, degrees in runs if any(degrees)]
