"""Reproduction suite: one check per headline claim, three effort levels.

Levels: smoke (tiny degrees, seconds), desk (the documented acceptance
ranges), deep (desk plus extended sampled ranges).  Every comparison is
exact; a check either reproduces the claimed statement on its whole range
or fails with the first counterexample.
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
    seconds: float


def _check(ident, description):
    def wrap(fn):
        def run(**kw):
            t0 = time.perf_counter()
            ok, detail = fn(**kw)
            return CheckResult(ident, description, ok, detail, time.perf_counter() - t0)

        return run

    return wrap


def _chars_equal(f, g):
    return f.degree == g.degree and f.values == g.values


@_check("C1", "diagonal pair (n,n) is Gelfand")
def check_gelfand_equal(n_max=6):
    for n in range(1, n_max + 1):
        r = gelfand_check_characters(n, n)
        if not r.gelfand:
            return False, f"failed at n={n}: max multiplicity {r.max_multiplicity}"
    return True, f"n = 1..{n_max}"


@_check("C2", "pair (n,n-1) is Gelfand iff n odd; even-n witness has multiplicity 2")
def check_gelfand_drop(n_max=6):
    for n in range(2, n_max + 1):
        r = gelfand_check_characters(n, n - 1)
        if r.gelfand != (n % 2 == 1):
            return False, f"wrong verdict at n={n}"
        if n % 2 == 0:
            if r.witness_multiplicity != 2:
                return False, f"witness multiplicity {r.witness_multiplicity} at n={n}"
            w = r.witness
            if (w.rho1.kind, w.rho2.kind, w.theta.mask) != ("rho", "rho", 0):
                return False, f"unexpected witness {w} at n={n}"
    return True, f"n = 2..{n_max}"


def _chi_terms(n, mult, parity=None):
    """The terms (chi_A, mult) of CL(n) in label order, over the A with |A|
    of the given parity, or over every A when parity is None."""
    return [
        (IrrepLabel(n, "chi", mask), mult)
        for mask in range(1 << n)
        if parity is None or mask.bit_count() % 2 == parity
    ]


@_check("C3", "tensor-square decomposition tables (even and odd degree)")
def check_tensor_tables(ns=range(2, 8)):
    """Each a (x) b of spin labels is a sum of distinct chi_A: every A at
    even n, and at odd n the A with (-1)^|A| = (-1)^((n-1)/2) eta_a eta_b."""
    for n in ns:
        for a, b in product(spin_labels(n), repeat=2):
            parity = None if n % 2 == 0 else ((n - 1) // 2 + (a != b)) % 2
            if list(decompose(tensor_character(a, b)).terms) != _chi_terms(n, 1, parity):
                return False, f"{a} x {b} at n={n}"
    return True, f"n in {tuple(ns)}"


def _chi_rows(n, m):
    """Res_{CL(m)} chi_A for every chi label of CL(n), stacked as (re, im)."""
    rows = [restrict_character(irrep_character(chi(n, a)), m) for a in range(1 << n)]
    return np.stack([f.re for f in rows]), np.stack([f.im for f in rows])


@_check("C4", "the five restriction rules for tensor products")
def check_restriction_rules(n_max=6, sampled_ns=(), seed=0):
    """Every rule for n = 2..n_max: chi x chi, chi x spin (the sum of the
    spin characters of CL(m)) and spin x spin (every chi of CL(m), twice at
    even n); chi x chi also at 32 seeded pairs (A, B) for each n in
    sampled_ns."""
    for n in range(2, n_max + 1):
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
            return False, f"a chi character of CL({n}) or CL({m}) is not real"
        ab = np.arange(1 << n)
        prod = want_re[(ab[:, None] ^ ab) & ~top]
        prod *= re[:, None]
        prod *= re
        bad = (prod != 1).any(axis=2)
        if bad.any():
            a, b = np.argwhere(bad)[0]
            return False, f"chi x chi at n={n}, A={a}, B={b}"
        spin_chars = [irrep_character(s) for s in spin_labels(m)]
        target = ClassFunction(m, sum(f.re for f in spin_chars), sum(f.im for f in spin_chars))
        for spin in spin_labels(n):
            for a in range(1 << n):
                f = restrict_character(tensor_character(chi(n, a), spin), m)
                if not _chars_equal(f, target):
                    return False, f"chi x {spin} at n={n}, A={a}"
        for s1, s2 in product(spin_labels(n), repeat=2):
            if list(restricted_kronecker(s1, s2, m).terms) != _chi_terms(m, 2 - n % 2):
                return False, f"{s1} x {s2} restriction at n={n}"
    rng = random.Random(seed)
    for n in sampled_ns:
        m, top = n - 1, 1 << (n - 1)
        for _ in range(32):
            a, b = rng.randrange(1 << n), rng.randrange(1 << n)
            f = restrict_character(tensor_character(chi(n, a), chi(n, b)), m)
            if not _chars_equal(f, irrep_character(chi(m, (a ^ b) & ~top))):
                return False, f"chi x chi at n={n}, A={a}, B={b}"
    detail = f"n = 2..{n_max}"
    if sampled_ns:
        detail += f"; chi x chi at 32 pairs per n in {tuple(sampled_ns)} (seed {seed})"
    return True, detail


@_check("C5", "predicted orbit labels match the generator closure on all pairs")
def check_orbits(n_max=8):
    for n in range(1, n_max + 1):
        keys = np.arange(1 << (2 * n + 2), dtype=np.int64)
        for m in (n, n - 1):
            bad = np.flatnonzero(predicted_labels(keys, n, m) != _pair_orbit_labels(n, m))
            if len(bad):
                x, y = (_element_at(i, n) for i in divmod(int(bad[0]), 2 << n))
                return False, f"label mismatch at n={n}, m={m}, pair ({x}, {y})"
    return True, f"n = 1..{n_max}, m = n and n - 1, exhaustive"


def spherical_replay(q: SphericalQuery) -> str:
    """The `cliffharm spherical` command line that recomputes q both ways."""
    n = q.sigma.rho1.degree
    labels = ",".join(map(format_label, (q.sigma.rho1, q.sigma.rho2, q.sigma.theta)))
    at = ",".join(map(format_element, (q.at.g1, q.at.g2, q.at.h)))
    return f"cliffharm spherical {n} --triple {shlex.quote(labels)} --at {shlex.quote(at)}"


@_check("C6", "spherical closed forms equal direct summation on full grids")
def check_spherical_grids(n_max=4, lemma_n_max=10):
    for n in range(1, n_max + 1):
        for rep in closed_vs_direct_grids(n):
            if not rep.agree:
                replay = spherical_replay(rep.counterexample)
                return False, f"family {rep.family} disagrees at n={n}; replay: {replay}"
    for n in range(0, lemma_n_max + 1):
        for u in range(1 << n):
            if subset_sum_lemma(u, n) != (1 if u == 0 else 0):
                return False, f"subset-sum lemma fails at n={n}, U={u:b}"
    return True, f"grids n = 1..{n_max}, lemma n <= {lemma_n_max}"


DESK_FROBENIUS_PAIRS = ((1, 1), (1, 0), (2, 2), (2, 1))
# every triple at n = 3 too (500 at (3, 2), 1,000 at (3, 3)); past the full
# sweeps (4,913 triples at (4, 4), 39,304 at (5, 5)) eight seeded ones, in a
# 10 s budget: the 32 take about 2 s, 1 s of it two all-spin triples (2 CPUs)
DEEP_FROBENIUS_PAIRS = DESK_FROBENIUS_PAIRS + ((3, 2), (3, 3), (4, 4), (4, 3), (5, 5), (5, 4))


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


@_check("C7", "intertwiner isometry: dimensions, round trip, inner products")
def check_frobenius(pairs=DESK_FROBENIUS_PAIRS, seed=0):
    """Every irrep triple at each (n, m) in `pairs` with n <= 3, and the
    seeded sampled_triples at each (n, m) past that."""
    rng = random.Random(seed)
    for n, m in pairs:
        every = product(irreps(n), irreps(n), irreps(m))
        for r1, r2, th in every if n <= 3 else sampled_triples(n, m, rng):
            err = frobenius_mismatch(n, m, r1, r2, th)
            if err:
                return False, f"{err} at (n,m)=({n},{m}), triple ({r1}, {r2}, {th})"
    return True, f"(n,m) in {tuple(pairs)}: all irrep triples to n = 3, 8 past (seed {seed})"


DESK_METHOD_PAIRS = ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3))
DEEP_METHOD_PAIRS = DESK_METHOD_PAIRS + ((4, 3), (4, 4), (5, 4), (5, 5), (6, 5), (6, 6))


@_check("C8", "character and convolution Gelfand verdicts agree")
def check_method_agreement(pairs=DESK_METHOD_PAIRS):
    for n, m in pairs:
        a = gelfand_check_characters(n, m).gelfand
        b = gelfand_check_biinvariant(n, m)
        if a != b:
            return False, f"methods disagree at (n,m)=({n},{m}): {a} vs {b}"
    return True, f"(n,m) in {tuple(pairs)}"


@_check("C9", "matrix-model traces match characters; coefficient identities hold")
def check_oracles(trace_n_max=MAX_RHO_MODEL_DEGREE, coeff_n_max=MAX_ETA_DEGREE):
    """The trace of every image table against char_re_im at every element,
    one array comparison per irrep, then the coefficient identities."""
    for n in range(0, trace_n_max + 1):
        sign, mask = index_sign_mask(np.arange(2 << n), n)
        for lab in irreps(n):
            re, im = trace(build_matrix_rep(lab))
            want_re, want_im = char_re_im(lab, sign, mask)
            bad = np.flatnonzero((re != want_re) | (im != want_im))
            if len(bad):
                g = CliffordElement(n, int(sign[bad[0]]), int(mask[bad[0]]))
                return False, f"trace mismatch for {format_label(lab)} at {format_element(g)}"
    for n in range(0, coeff_n_max + 1):
        report = matrix_coefficient_checks(n)
        if not report.ok:
            return False, f"coefficient identity failures at n={n}: {report.failures[:3]}"
    return True, f"traces n <= {trace_n_max} at every element, coefficients n <= {coeff_n_max}"


@_check("D1", "sampled orbit labels match the generator closure, n=8..16")
def check_deep_extras(seed=0):
    """C5's rule past its range: 500 seeded pair keys per n = 8..16 and m in
    (n, n - 1), masks cycling through six shapes over X_m (both free; equal;
    complementary; y's central; x's central; both central), so flip vectors
    that are 0, equal and distinct are all hit; every member of each key's
    _pair_orbit must carry the orbit's least key as its predicted_labels."""
    rng = random.Random(seed)
    for n in range(MAX_PAIR_ORBIT_DEGREE + 1, MAX_DEGREE + 1):
        for m in (n, n - 1):
            z = (1 << m) - 1
            c = z * (m % 2)  # the central mask of CL(m) other than 0 for odd m
            for k in range(500):
                (sx, a), (sy, b) = ((rng.randrange(2), rng.randrange(1 << n)) for _ in range(2))
                a, b = ((a, b), (a, a), (a, a ^ z), (a, 0), (c, b), (c, 0))[k % 6]
                orbit = np.array(_pair_orbit((sx << n | a) << (n + 1) | sy << n | b, n, m))
                bad = orbit[predicted_labels(orbit, n, m) != orbit[0]]
                if len(bad):
                    x, y = (_element_at(i, n) for i in divmod(int(bad[0]), 2 << n))
                    return False, f"label mismatch at n={n}, m={m}, pair ({x}, {y})"
    ns = f"n={MAX_PAIR_ORBIT_DEGREE + 1}..{MAX_DEGREE}"
    return True, f"500 pairs per {ns}, m = n and n - 1 (seed {seed})"


@_check("D2", "sampled spherical closed forms equal direct summation")
def check_sampled_spherical(degrees=range(5, MAX_DEGREE + 1), seed=0):
    """spherical_closed_form against spherical_value at 32 seeded points per
    degree, cycling over the eight chi/spin orderings of the slots.

    In the second block of eight the first and last spin slots get equal
    masks, in the fourth complementary ones, and in both the chi-chi-chi
    labels cancel (C = A ^ B), so each nonzero branch of the closed form is
    hit in every ordering.
    """
    rng = random.Random(seed)
    orderings = list(product(("chi", "rho"), repeat=3))
    for n in degrees:
        spins = spin_labels(n)
        for k in range(32):
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
                t = at[i].mask ^ ((1 << n) - 1 if k >= 16 else 0)
                at[j] = CliffordElement(n, at[j].sign, t)
            q = SphericalQuery(TripleIrrepLabel(*labels), TripleElement(*at, n))
            closed, direct = spherical_closed_form(q).value, spherical_value(q)
            if closed != direct:
                return False, (
                    f"{'-'.join(kinds)} at n={n}: closed {closed} != direct {direct}; "
                    f"replay: {spherical_replay(q)}"
                )
    return True, f"32 points per degree, all 8 orderings, n in {tuple(degrees)} (seed {seed})"


LEVELS = ("smoke", "desk", "deep")


def run_suite(level="desk", seed=0):
    """Run the reproduction checks for the given effort level."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}; expected one of {LEVELS}")
    if level == "smoke":
        checks = [
            check_gelfand_equal(n_max=2),
            check_gelfand_drop(n_max=2),
            check_tensor_tables(ns=(2, 3)),
            check_restriction_rules(n_max=3),
            check_orbits(n_max=2),
            check_spherical_grids(n_max=2, lemma_n_max=6),
            check_frobenius(pairs=((1, 1), (1, 0))),
            check_method_agreement(pairs=((1, 1), (2, 1))),
            check_oracles(trace_n_max=2, coeff_n_max=1),
        ]
    else:
        deep = level == "deep"
        frobenius_pairs = DEEP_FROBENIUS_PAIRS if deep else DESK_FROBENIUS_PAIRS
        checks = [  # the character claims reach MAX_DEGREE = 16 at the deep level
            check_gelfand_equal(n_max=16 if deep else 6),
            check_gelfand_drop(n_max=16 if deep else 6),
            check_tensor_tables(ns=range(2, 17) if deep else range(2, 8)),
            check_restriction_rules(n_max=8, sampled_ns=range(9, 17), seed=seed)
            if deep else check_restriction_rules(),
        ]
        checks += [
            # C5 to n = 8 takes 0.1 s with a 49 MB peak RSS, to n = 9 0.6 s
            # and 105 MB, and to n = 10 2.7 s and 328 MB (2-CPU VM)
            check_orbits(n_max=9) if deep else check_orbits(),
            check_spherical_grids(),
            check_frobenius(pairs=frobenius_pairs, seed=seed),
            check_method_agreement(pairs=DEEP_METHOD_PAIRS if deep else DESK_METHOD_PAIRS),
            check_oracles(),
        ]
        if deep:
            checks.append(check_deep_extras(seed=seed))
            checks.append(check_sampled_spherical(seed=seed))
    return checks
