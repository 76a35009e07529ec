"""The benchmark workloads: their inputs and one exact check per op.

Inputs are plain tuples, made without importing the library, and every
degree range is written out here rather than taken from `verify` defaults
or the library's guards.  An op builds its library objects, calls both
routes and returns None when they agree exactly, or a one-line description
of the mismatch.  No check uses `assert`, so all of them survive `python -O`.

`lib` is a namespace holding the library modules (`elements`, `characters`,
`gelfand`, `linalg`, `matrix_models`, `orbits`); `tr` is a tracer.
"""

from __future__ import annotations

import random


def labels(n):
    """Irrep labels of CL(n) as (kind, mask), in the library's order."""
    out = [("chi", mask) for mask in range(1 << n)]
    out += [("rho", 0)] if n % 2 == 0 else [("rho+", 0), ("rho-", 0)]
    return out


def _label(lib, n, kind_mask):
    kind, mask = kind_mask
    return lib.characters.IrrepLabel(n, kind, mask)


# -- intertwiner: the C7 isometry, one irrep triple per op -------------------

# Every triple at (1,1) and (1,0); at (2,1) every triple with rho1 = chi_0,
# and at (2,2) every triple with rho1 = rho2 = chi_0.  The full n = 2 sweep
# takes ~47 s cold, beyond what a time-boxed run can repeat.
INTERTWINER_SLICES = (
    (1, 1, None, None),
    (1, 0, None, None),
    (2, 1, ("chi", 0), None),
    (2, 2, ("chi", 0), ("chi", 0)),
)


def intertwiner_inputs(seed):
    del seed  # pinned inputs
    specs = []
    for n, m, fix1, fix2 in INTERTWINER_SLICES:
        for r1 in [fix1] if fix1 else labels(n):
            for r2 in [fix2] if fix2 else labels(n):
                for th in labels(m):
                    specs.append(("triple", n, m, r1, r2, th))
    return specs


def _op_triple(spec, lib, tr):
    _, n, m, k1, k2, kt = spec
    r1, r2, th = _label(lib, n, k1), _label(lib, n, k2), _label(lib, m, kt)
    mm, la = lib.matrix_models, lib.linalg
    with tr.span("matrix_models.frobenius_context"):
        ctx = mm.FrobeniusContext(n, m, r1, r2, th)
    with tr.span("gelfand.diagonal_invariant_dim"):
        d = lib.gelfand.diagonal_invariant_dim(r1, r2, th)
    with tr.span("matrix_models.hom_triple_eta"):
        he = ctx.hom_triple_eta()
    with tr.span("matrix_models.hom_res_theta_prime"):
        hs = ctx.hom_res_theta_prime()
    with tr.span("matrix_models.invariant_tensors"):
        inv = ctx.invariant_tensors()
    if not he.dimension == hs.dimension == len(inv) == d:
        return f"dimension mismatch: {he.dimension}, {hs.dimension}, {len(inv)}, {d}"
    with tr.span("matrix_models.coordinate_maps"):
        tildes = [ctx.tilde(t) for t in he.basis]
        for t, tt in zip(he.basis, tildes):
            if ctx.hat(tt) != la.ScaledMatrix(0, t):
                return "hat(tilde) != id"
        for s in hs.basis:
            if ctx.tilde(ctx.hat(s)) != la.ScaledMatrix(0, s):
                return "tilde(hat) != id"
    with tr.span("linalg.hs_inner"):
        for i, ti in enumerate(he.basis):
            for j, tj in enumerate(he.basis):
                if la.scaled_hs_inner(tildes[i], tildes[j]) != la.hs_inner(ti, tj):
                    return f"isometry fails at basis pair ({i}, {j})"
    return None


# -- exhaustive: claims checked by enumerating whole groups ------------------

SCAN_NS = range(1, 8)  # (n, n) and (n, n-1)
BIINVARIANT_PAIRS = ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3))
TENSOR_EVEN_NS = (2, 4, 6)
TENSOR_ODD_NS = (3, 5)
RESTRICTION_NS = range(2, 6)
PAIR_ORBIT_NS = range(1, 6)
GRID_NS = range(1, 5)
LEMMA_NS = range(0, 11)
SIGNS = ("+", "-")


def exhaustive_inputs(seed):
    del seed  # pinned inputs
    specs = []
    for n in SCAN_NS:
        specs += [("scan", n, n), ("scan", n, n - 1)]
    specs += [("biinvariant", n, m) for n, m in BIINVARIANT_PAIRS]
    specs += [("tensor_even", n) for n in TENSOR_EVEN_NS]
    specs += [("tensor_odd", n, s1, s2) for n in TENSOR_ODD_NS for s1 in SIGNS for s2 in SIGNS]
    for n in RESTRICTION_NS:
        specs += [("res_chi_chi", n, a) for a in range(1 << n)]
        specs += [("res_chi_rho", n, a) for a in range(1 << n)]
        if n % 2 == 0:
            specs += [("res_rho_rho", n, "", "")]
        else:
            specs += [("res_rho_rho", n, s1, s2) for s1 in SIGNS for s2 in SIGNS]
    specs += [("pair_orbits", n) for n in PAIR_ORBIT_NS]
    specs += [("grids", n) for n in GRID_NS]
    specs += [("lemma", n) for n in LEMMA_NS]
    return specs


def _scan(lib, tr, n, m):
    with tr.span("gelfand.gelfand_check_characters", degree=n, peak=True):
        return lib.gelfand.gelfand_check_characters(n, m)


def _op_scan(spec, lib, tr):
    _, n, m = spec
    r = _scan(lib, tr, n, m)
    if m == n:
        if not r.gelfand:
            return f"(n,n) not Gelfand, max multiplicity {r.max_multiplicity}"
        return None
    if r.gelfand != (n % 2 == 1):
        return f"wrong verdict {r.gelfand}"
    if n % 2 == 0:
        if r.witness_multiplicity != 2:
            return f"witness multiplicity {r.witness_multiplicity}"
        w = r.witness
        if (w.rho1.kind, w.rho2.kind, w.theta.mask) != ("rho", "rho", 0):
            return f"unexpected witness {w}"
    return None


def _op_biinvariant(spec, lib, tr):
    _, n, m = spec
    verdict = _scan(lib, tr, n, m).gelfand
    with tr.span("gelfand.gelfand_check_biinvariant"):
        other = lib.gelfand.gelfand_check_biinvariant(n, m)
    return None if verdict == other else f"methods disagree: {verdict} vs {other}"


def _decomposed_square(lib, tr, a, b):
    ch = lib.characters
    with tr.span("characters.tensor_character"):
        f = ch.tensor_character(a, b)
    with tr.span("characters.decompose"):
        return ch.decompose(f)


def _op_tensor_even(spec, lib, tr):
    _, n = spec
    ch = lib.characters
    dec = _decomposed_square(lib, tr, ch.rho(n), ch.rho(n))
    expect = [(ch.IrrepLabel(n, "chi", mask), 1) for mask in range(1 << n)]
    return None if list(dec.terms) == expect else "rho x rho is not the sum of all chi"


def _op_tensor_odd(spec, lib, tr):
    _, n, s1, s2 = spec
    ch = lib.characters
    dec = _decomposed_square(lib, tr, ch.rho(n, s1), ch.rho(n, s2))
    if any(mult != 1 for _, mult in dec.terms):
        return "multiplicity above 1"
    # chi_A with |A| parity set by m = (n-1)/2 and the sign product
    want_even = (((n - 1) // 2) % 2 == 0) == (s1 == s2)
    expect = {
        ch.IrrepLabel(n, "chi", mask)
        for mask in range(1 << n)
        if (mask.bit_count() % 2 == 0) == want_even
    }
    return None if {lab for lab, _ in dec.terms} == expect else "wrong parity class"


def _restricted(lib, tr, a, b, m):
    ch = lib.characters
    with tr.span("characters.tensor_character"):
        f = ch.tensor_character(a, b)
    with tr.span("characters.restrict_character"):
        return ch.restrict_character(f, m)


def _irrep_character(lib, tr, label):
    with tr.span("characters.irrep_character"):
        return lib.characters.irrep_character(label)


def _op_res_chi_chi(spec, lib, tr):
    """Res chi_A x chi_B = chi_{(A ^ B) minus the top index}, for every B."""
    _, n, a = spec
    ch, m = lib.characters, n - 1
    top = 1 << (n - 1)
    for b in range(1 << n):
        f = _restricted(lib, tr, ch.chi(n, a), ch.chi(n, b), m)
        expect = _irrep_character(lib, tr, ch.chi(m, (a ^ b) & ~top))
        if not (f.degree == expect.degree and f.values == expect.values):
            return f"chi x chi restriction at B={b}"
    return None


def _op_res_chi_rho(spec, lib, tr):
    """Res chi_A x rho is rho+ + rho- (n even) or rho (n odd, either sign)."""
    _, n, a = spec
    ch, m = lib.characters, n - 1
    if n % 2 == 0:
        f = _restricted(lib, tr, ch.chi(n, a), ch.rho(n), m)
        plus = _irrep_character(lib, tr, ch.rho(m, "+")).values
        minus = _irrep_character(lib, tr, ch.rho(m, "-")).values
        if f.values != {k: v + minus[k] for k, v in plus.items()}:
            return "chi x rho restriction"
        return None
    expect = _irrep_character(lib, tr, ch.rho(m))
    for s in SIGNS:
        f = _restricted(lib, tr, ch.chi(n, a), ch.rho(n, s), m)
        if not (f.degree == expect.degree and f.values == expect.values):
            return f"chi x rho{s} restriction"
    return None


def _op_res_rho_rho(spec, lib, tr):
    _, n, s1, s2 = spec
    ch, m = lib.characters, n - 1
    with tr.span("characters.restricted_kronecker"):
        dec = ch.restricted_kronecker(ch.rho(n, s1), ch.rho(n, s2), m)
    mult = 2 if n % 2 == 0 else 1
    expect = [(ch.IrrepLabel(m, "chi", mask), mult) for mask in range(1 << m)]
    return None if list(dec.terms) == expect else "rho x rho restriction"


def _op_pair_orbits(spec, lib, tr):
    _, n = spec
    orb = lib.orbits
    with tr.span("orbits.enumerate_pair_orbits", degree=n):
        orbits = orb.enumerate_pair_orbits(n)
    if sum(o.size for o in orbits) != 1 << (2 * n + 2):
        return "orbit sizes do not cover all pairs"
    with tr.span("orbits.predicted_orbit"):
        for o in orbits:
            if o.size not in (1, 2, 4):
                return f"orbit size {o.size}"
            for p in o.members:
                if orb.predicted_orbit(p, n) != o:
                    return f"prediction mismatch at pair {p}"
    return None


def _op_grids(spec, lib, tr):
    _, n = spec
    with tr.span("orbits.closed_vs_direct_grids", degree=n, peak=True):
        reports = lib.orbits.closed_vs_direct_grids(n)
    bad = [rep.family for rep in reports if not rep.agree]
    return f"families disagree: {bad}" if bad else None


def _op_lemma(spec, lib, tr):
    _, n = spec
    with tr.span("orbits.subset_sum_lemma"):
        for u in range(1 << n):
            if lib.orbits.subset_sum_lemma(u, n) != (1 if u == 0 else 0):
                return f"lemma fails at U={u:b}"
    return None


# -- sampled-queries: seeded point queries past enumeration ------------------

SAMPLED_NS = range(8, 13)
QUERIES_PER_KIND = 32  # per degree and per kind
SPHERICAL_FAMILIES = (
    ("chi", "chi", "chi"),
    ("chi", "rho", "rho"),
    ("rho", "rho", "rho"),
    ("chi", "chi", "rho"),
)


def _sign(rng):
    return rng.choice((1, -1))


def _random_label(rng, n, kind):
    if kind == "chi":
        return ("chi", rng.randrange(1 << n))
    return ("rho", 0) if n % 2 == 0 else (rng.choice(("rho+", "rho-")), 0)


def _orbit_query(rng, n, i):
    """Cycle through the case analysis: generic, A = B, central A, complement."""
    full = (1 << n) - 1
    a, b = rng.randrange(1 << n), rng.randrange(1 << n)
    case = i % 4
    if case == 1:
        b = a
    elif case == 2:
        a = rng.choice((0, full)) if n % 2 else 0
    elif case == 3:
        b = full ^ a
    return ("orbit", n, _sign(rng), a, _sign(rng), b)


def _spherical_query(rng, n, i):
    """Family cycles with i; every other round puts T3 = T2 or its complement,
    and chi-chi-chi labels get C = A ^ B, so that every nonzero branch is hit."""
    family = SPHERICAL_FAMILIES[i % len(SPHERICAL_FAMILIES)]
    special = (i // len(SPHERICAL_FAMILIES)) % 2 == 1
    labs = [_random_label(rng, n, kind) for kind in family]
    if family == ("chi", "chi", "chi") and special:
        labs[2] = ("chi", labs[0][1] ^ labs[1][1])
    full = (1 << n) - 1
    t = [rng.randrange(1 << n) for _ in range(3)]
    if special:
        t[2] = t[1] if rng.random() < 0.5 else full ^ t[1]
    point = tuple((_sign(rng), mask) for mask in t)
    return ("spherical", n, tuple(labs), point)


def _conjugation_query(rng, n, i):
    kind = "chi" if i % 2 == 0 else "rho"
    g = (_sign(rng), rng.randrange(1 << n))
    c = (_sign(rng), rng.randrange(1 << n))
    return ("conjugation", n, g, c, _random_label(rng, n, kind))


def sampled_inputs(seed):
    rng = random.Random(seed)
    specs = []
    for n in SAMPLED_NS:
        for i in range(QUERIES_PER_KIND):
            specs.append(_orbit_query(rng, n, i))
            specs.append(_spherical_query(rng, n, i))
            specs.append(_conjugation_query(rng, n, i))
    return specs


def _op_orbit(spec, lib, tr):
    _, n, sa, a, sb, b = spec
    el, orb = lib.elements, lib.orbits
    pair = (el.CliffordElement(n, sa, a), el.CliffordElement(n, sb, b))
    with tr.span("orbits.predicted_orbit"):
        predicted = orb.predicted_orbit(pair, n)
    with tr.span("orbits.orbit_of"):
        direct = orb.orbit_of(pair, n)
    return None if predicted == direct else "predicted orbit differs from brute force"


def _op_spherical(spec, lib, tr):
    _, n, labs, point = spec
    el, orb = lib.elements, lib.orbits
    sigma = lib.gelfand.TripleIrrepLabel(*(_label(lib, n, k) for k in labs))
    g1, g2, h = (el.CliffordElement(n, s, mask) for s, mask in point)
    q = orb.SphericalQuery(sigma, el.TripleElement(g1, g2, h, n))
    with tr.span("orbits.spherical_closed_form"):
        closed = orb.spherical_closed_form(q)
    with tr.span("orbits.spherical_value"):
        direct = orb.spherical_value(q)
    if not closed.analyzed:
        return f"closed form fell back to summation for {closed.family}"
    return None if closed.value == direct else f"{closed.family}: {closed.value} != {direct}"


def _op_conjugation(spec, lib, tr):
    _, n, (sg, g), (sc, c), lab = spec
    el = lib.elements
    x, cx = el.CliffordElement(n, sg, g), el.CliffordElement(n, sc, c)
    with tr.span("elements.point_ops"):
        direct = el.conjugate(x, cx)
        closed = el.CliffordElement(n, sg * el.conjugation_sign(g, c), g)
    if direct != closed:
        return "conjugation_sign differs from conjugate"
    label, value = _label(lib, n, lab), lib.characters.character_value
    with tr.span("characters.character_value"):
        same = value(label, x) == value(label, direct)
    return None if same else "character is not a class function"


OPS = {
    "triple": _op_triple,
    "scan": _op_scan,
    "biinvariant": _op_biinvariant,
    "tensor_even": _op_tensor_even,
    "tensor_odd": _op_tensor_odd,
    "res_chi_chi": _op_res_chi_chi,
    "res_chi_rho": _op_res_chi_rho,
    "res_rho_rho": _op_res_rho_rho,
    "pair_orbits": _op_pair_orbits,
    "grids": _op_grids,
    "lemma": _op_lemma,
    "orbit": _op_orbit,
    "spherical": _op_spherical,
    "conjugation": _op_conjugation,
}

WORKLOADS = {
    "intertwiner": intertwiner_inputs,
    "exhaustive": exhaustive_inputs,
    "sampled-queries": sampled_inputs,
}


def run_op(spec, lib, tr):
    """Run one op; None if both routes agree exactly, else what differed."""
    return OPS[spec[0]](spec, lib, tr)
