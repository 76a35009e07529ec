import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from cliffharm.exact import gr
from cliffharm.elements import (
    MAX_DEGREE,
    CliffordElement,
    DegreeMismatchError,
    GuardError,
    TripleElement,
    conjugate,
    element,
    element_index,
    embed_index,
    identity,
    index_product,
    index_sign_mask,
    predicted_labels,
)
from cliffharm.characters import char_re_im, chi, irreps, rho, spin_labels
from cliffharm.gelfand import TripleIrrepLabel, spherical_character
from cliffharm import gelfand, orbits, verify
from cliffharm.orbits import (
    PairOrbit,
    SphericalQuery,
    closed_vs_direct_grids,
    enumerate_pair_orbits,
    orbit_of,
    predicted_orbit,
    spherical_closed_form,
    spherical_value,
    subset_sum_lemma,
)

from oracles import enumerate_group, generic_spherical_character, summed_slabs


def test_orbit_structure_exhaustive_small():
    for n in (1, 2, 3, 4):
        orbits = enumerate_pair_orbits(n)
        # orbits partition all (sign, mask) pairs
        assert sum(o.size for o in orbits) == 1 << (2 * n + 2)
        members = set()
        for o in orbits:
            assert o.representative == o.members[0]
            members.update(o.members)
            assert o.size in (1, 2, 4)
        assert len(members) == 1 << (2 * n + 2)


def test_prediction_matches_brute_force():
    for n in (1, 2, 3):
        for o in enumerate_pair_orbits(n):
            for p in o.members:
                assert predicted_orbit(p, n) == o
                assert orbit_of(p, n) == o
                assert hash(orbit_of(p, n)) == hash(predicted_orbit(p, n))


def test_predicted_orbit_is_the_sign_flips_sharing_its_label():
    # the PairOrbit view against the labels that C5 checks: the members of
    # predicted_orbit are the sign flips of the pair with its predicted label
    for n in range(0, 6):
        group = enumerate_group(n)
        keys = np.arange(1 << (2 * n + 2), dtype=np.int64)
        labels = predicted_labels(keys, n, n).tolist()
        for key in keys.tolist():
            flips = [key ^ f << (2 * n + 1) ^ g << n for f in (0, 1) for g in (0, 1)]
            i, j = divmod(key, 2 << n)
            members = predicted_orbit((group[i], group[j]), n).members
            got = [element_index(x) << (n + 1) | element_index(y) for x, y in members]
            assert got == sorted(k for k in flips if labels[k] == labels[key])


def test_pair_orbits_match_scalar_conjugation():
    # the index-array brute force against orbits built one conjugator at a
    # time with elements.conjugate, list order included
    for n in range(0, 5):
        group = enumerate_group(n)
        want, seen = [], set()
        for x, y in product(group, group):
            if (x, y) not in seen:
                members = {(conjugate(x, c), conjugate(y, c)) for c in group}
                seen |= members
                keys = sorted(element_index(x) << (n + 1) | element_index(y) for x, y in members)
                want.append(PairOrbit(n, tuple(keys)))
        assert enumerate_pair_orbits(n) == want


def test_orbit_of_input_errors():
    p = (element(2, 1, (1,)), element(2, -1, (2,)))
    for bad in (3, 0):
        with pytest.raises(DegreeMismatchError):
            orbit_of(p, bad)
    with pytest.raises(DegreeMismatchError):
        orbit_of((p[0], element(3, 1, (1,))), 2)
    for n in (-1, MAX_DEGREE + 1):
        with pytest.raises(GuardError):
            orbit_of(p, n)


def test_singleton_orbits_are_central_pairs():
    # size-1 orbits <=> both components commute with everything
    n = 3
    for o in enumerate_pair_orbits(n):
        central = all(e.mask in (0, 0b111) for e in o.representative)
        assert (o.size == 1) == central
    # explicit instance: the disjoint-cover pair locks the two signs together
    p = (element(n, 1, (1,)), element(n, 1, (2, 3)))
    orb = predicted_orbit(p, n)
    assert orb.size == 2
    assert set(orb.members) == {
        p, (element(n, -1, (1,)), element(n, -1, (2, 3)))
    }
    # even degree: no disjoint cover locking, signs flip independently
    q = (element(2, 1, (1,)), element(2, 1, (2,)))
    assert predicted_orbit(q, 2).size == 4


def test_orbit_guard():
    for n in (-1, 8):
        with pytest.raises(GuardError):
            enumerate_pair_orbits(n)


def test_subset_sum_lemma():
    for n in range(0, 9):
        for u in range(1 << n):
            assert subset_sum_lemma(u, n) == (1 if u == 0 else 0)
    with pytest.raises(ValueError):
        subset_sum_lemma(4, 2)
    assert subset_sum_lemma(0, 16) == 1 and subset_sum_lemma(1 << 15, 16) == 0
    with pytest.raises(GuardError):
        subset_sum_lemma(0, 17)


def _query(n, sigma, g1, g2, h):
    return SphericalQuery(sigma, TripleElement(g1, g2, h, n))


def _sample_pair(rng, n, m, kinds, tie=False):
    """(sigma, at) at a seeded point of the pair with subgroup CL(m), its
    label slots of the given chi/spin kinds.  tie gives every spin slot's
    point one mask below 2^m, so that h g can be central in each; with no
    spin slot, it makes the chi labels cancel."""
    degrees = (n, n, m)
    labels = [
        chi(k, rng.randrange(1 << k)) if kind == "chi" else rng.choice(spin_labels(k))
        for kind, k in zip(kinds, degrees)
    ]
    masks = [rng.randrange(1 << k) for k in degrees]
    if tie and "rho" not in kinds:
        labels[2] = chi(m, (labels[0].mask ^ labels[1].mask) & ((1 << m) - 1))
    elif tie:
        t = rng.randrange(1 << m)
        masks = [t if kind == "rho" else mask for kind, mask in zip(kinds, masks)]
    at = [CliffordElement(n, rng.choice((1, -1)), mask) for mask in masks]
    return TripleIrrepLabel(*labels), TripleElement(*at, m)


def test_direct_value_matches_generic_spherical():
    # the exact-integer summation agrees with the generic definition, for the
    # subgroup H = CL(m) with m = n (through spherical_value) and m < n: at
    # hand-picked labels, then at all eight chi/spin orderings, half the
    # points tied, where every ordering with an even number of spin slots
    # meets a nonzero value
    rng = random.Random(2)
    cases = {
        (2, 2): [
            TripleIrrepLabel(chi(2, (1,)), rho(2), rho(2)),
            TripleIrrepLabel(chi(2, (1, 2)), chi(2), chi(2, (1, 2))),
            TripleIrrepLabel(rho(2), rho(2), chi(2, (2,))),
        ],
        (2, 1): [
            TripleIrrepLabel(rho(2), rho(2), rho(1, "+")),
            TripleIrrepLabel(chi(2, (1,)), rho(2), rho(1, "-")),
            TripleIrrepLabel(chi(2, (2,)), chi(2, (1, 2)), chi(1, (1,))),
        ],
        (3, 2): [
            TripleIrrepLabel(rho(3, "+"), rho(3, "-"), rho(2)),
            TripleIrrepLabel(chi(3, (1, 3)), rho(3, "+"), rho(2)),
            TripleIrrepLabel(rho(3, "-"), rho(3, "-"), chi(2, (1,))),
        ],
    }
    samples = []
    for (n, m), sigmas in cases.items():
        for sigma in sigmas:
            for _ in range(15):
                g1, g2 = (
                    CliffordElement(n, rng.choice((1, -1)), rng.randrange(1 << n))
                    for _ in range(2)
                )
                h = CliffordElement(n, rng.choice((1, -1)), rng.randrange(1 << m))
                samples.append((sigma, TripleElement(g1, g2, h, m)))
    pairs = ((3, 3), (3, 2), (4, 3), (5, 4))
    samples += [
        _sample_pair(rng, n, m, kinds, tie=k % 2)
        for n, m in pairs
        for kinds in ORDERINGS
        for k in range(12)
    ]
    nonzero = set()
    for sigma, at in samples:
        if at.subgroup_degree == at.degree:
            direct = spherical_value(SphericalQuery(sigma, at))
        else:
            direct = spherical_character(sigma, at)
        assert direct == generic_spherical_character(sigma, at)
        if direct != gr(0):
            labels = (sigma.rho1, sigma.rho2, sigma.theta)
            kinds = tuple("chi" if lab.kind == "chi" else "rho" for lab in labels)
            nonzero.add((at.degree, at.subgroup_degree, kinds))
    even = [kinds for kinds in ORDERINGS if kinds.count("rho") % 2 == 0]
    assert {(n, m, kinds) for n, m in pairs for kinds in even} <= nonzero


def test_spherical_invariant_under_simultaneous_conjugation():
    # psi(c g1 c^-1, c g2 c^-1, c h c^-1) = psi(g1, g2, h)
    from cliffharm.elements import conjugate

    rng = random.Random(6)
    n = 2
    sigma = TripleIrrepLabel(chi(n, (1,)), rho(n), rho(n))
    for _ in range(20):
        g = [
            CliffordElement(n, rng.choice((1, -1)), rng.randrange(1 << n))
            for _ in range(3)
        ]
        base = spherical_value(_query(n, sigma, *g))
        for cmask in range(1 << n):
            c = CliffordElement(n, 1, cmask)
            moved = [conjugate(x, c) for x in g]
            assert spherical_value(_query(n, sigma, *moved)) == base


def test_closed_forms_by_family():
    n = 3
    # vanishing families
    q = _query(n, TripleIrrepLabel(rho(n, "+"), rho(n, "-"), rho(n, "+")),
               identity(n), identity(n), identity(n))
    r = spherical_closed_form(q)
    assert r.analyzed and r.family == "rho-rho-rho" and r.value == gr(0)
    q = _query(n, TripleIrrepLabel(chi(n, (1,)), chi(n, (2,)), rho(n, "+")),
               identity(n), identity(n), identity(n))
    r = spherical_closed_form(q)
    assert r.analyzed and r.family == "chi-chi-rho" and r.value == gr(0)
    # product of linears: nonzero only when the masks cancel
    sigma = TripleIrrepLabel(chi(n, (1,)), chi(n, (2,)), chi(n, (1, 2)))
    q = _query(n, sigma, element(n, 1, (1,)), identity(n), identity(n))
    r = spherical_closed_form(q)
    assert r.family == "chi-chi-chi" and r.value == gr(-1)
    # any other ordering is read, slots permuted, off the chi-first formula
    # for its spin count, and reports its own ordering
    g1, g2, h = element(n, 1, ()), element(n, 1, (1,)), element(n, 1, (1, 2, 3))
    r = spherical_closed_form(
        _query(n, TripleIrrepLabel(rho(n, "+"), chi(n, (1,)), rho(n, "+")), g1, g2, h)
    )
    chi_first = _query(n, TripleIrrepLabel(chi(n, (1,)), rho(n, "+"), rho(n, "+")), g2, g1, h)
    assert r.analyzed and r.family == "rho-chi-rho"
    assert r.value == spherical_closed_form(chi_first).value == gr(0, -1)
    assert r.value == spherical_value(chi_first)
    q = _query(n, TripleIrrepLabel(rho(n, "-"), chi(n, (1,)), chi(n, (2,))), g1, g2, h)
    assert spherical_closed_form(q).family == "rho-chi-chi"
    assert spherical_closed_form(q).value == spherical_value(q) == gr(0)


def test_closed_equals_direct_sampled():
    rng = random.Random(9)
    for n in (2, 3):
        sigmas = [
            TripleIrrepLabel(chi(n, (1,)), rho(n, "+") if n % 2 else rho(n),
                             rho(n, "-") if n % 2 else rho(n)),
            TripleIrrepLabel(chi(n), chi(n, (1, 2)), chi(n, (1, 2))),
        ]
        for sigma in sigmas:
            for _ in range(25):
                g = [
                    CliffordElement(n, rng.choice((1, -1)), rng.randrange(1 << n))
                    for _ in range(3)
                ]
                q = _query(n, sigma, *g)
                res = spherical_closed_form(q)
                assert res.analyzed
                assert res.value == spherical_value(q)


def test_full_grid_comparison_small():
    for n in (1, 2):
        reports = closed_vs_direct_grids(n)
        families = {r.family for r in reports}
        assert families == {
            "chi-chi-chi", "rho-rho-rho", "chi-rho-rho", "chi-chi-rho"
        }
        assert all(r.agree for r in reports)


def _chi_grid(n):
    """The three chi x chi x chi summand tables at degree n."""
    summands, _ = orbits._slot(n, spin=False)
    return [summands] * 3


def test_sign_bit_slabs_are_the_matmul_slabs(monkeypatch):
    # chi x chi x chi takes the sign-bit count; with packing refused it takes
    # complex_matmul; both agree slab by slab with an einsum over h.  The
    # route follows the values: the spin values of CL(1) are +-1 as well
    for n in (1, 2, 3):
        slots = _chi_grid(n)
        assert all(orbits._sign_bits(*summands) is not None for summands in slots)
        spin, _ = orbits._slot(n, spin=True)
        assert (orbits._sign_bits(*spin) is None) == (n > 1)
        counted = list(orbits._direct_grid(slots))
        with monkeypatch.context() as m:
            m.setattr(orbits, "_sign_bits", lambda re, im: None)
            multiplied = list(orbits._direct_grid(slots))
        want = summed_slabs(slots)
        assert len(counted) == len(multiplied) == len(want) == 4 ** n
        for (c_re, c_im), (m_re, m_im), (w_re, w_im) in zip(counted, multiplied, want):
            assert np.array_equal(c_re, w_re) and np.array_equal(m_re, w_re)
            assert not np.any(c_im) and np.array_equal(m_im, w_im)


def test_sign_bit_packing_refuses_bit_63():
    rows = np.ones((63, 2), dtype=np.int64)
    assert orbits._sign_bits(rows[:62], 0 * rows[:62]).tolist() == [0, 0]
    with pytest.raises(ValueError):
        orbits._sign_bits(rows, 0 * rows)


def _chi_verdicts(n):
    return {r.family: r.agree for r in closed_vs_direct_grids(n)}["chi-chi-chi"]


def _one_row_slip(label, m, rows, sign, mask):
    re, im = gelfand.conj_summands(label, m, rows, sign, mask)
    if label.kind == "chi":
        re = re.copy()
        re[1] = -re[1]
    return re, im


def _doubled(label, m, rows, sign, mask):
    re, im = gelfand.conj_summands(label, m, rows, sign, mask)
    return (2 * re, 2 * im) if label.kind == "chi" else (re, im)


real_closed_scaled = orbits._closed_scaled


def _closed_negated_at_no_spin(n, spins, *slots):
    re, im = real_closed_scaled(n, spins, *slots)
    return (-re, -im) if spins == 0 else (re, im)


def _closed_without_slot_3_sign(n, spins, x1, x2, x3):
    p3, t3, e3 = x3
    return real_closed_scaled(n, spins, x1, x2, (p3, 0 * t3, e3) if spins == 0 else x3)


@pytest.mark.parametrize(
    "attr, mutant",
    [
        ("conj_summands", _one_row_slip),
        ("conj_summands", _doubled),
        ("_closed_scaled", _closed_negated_at_no_spin),
        ("_closed_scaled", _closed_without_slot_3_sign),
    ],
)
def test_grid_mutations_flip_chi_chi_chi(monkeypatch, attr, mutant):
    # a sign slip in one row h of the chi summands, doubled chi summands
    # (no longer +-1, so they take the matmul route), a negated chi x chi x
    # chi closed form and one that drops the last slot's factor of its sign
    # (T3 read as empty) each make chi x chi x chi disagree at n = 1..3
    assert all(_chi_verdicts(n) for n in (1, 2, 3))
    monkeypatch.setattr(orbits, attr, mutant)
    if mutant is _doubled:
        summands, _ = orbits._slot(1, spin=False)
        assert orbits._sign_bits(*summands) is None
    assert not any(_chi_verdicts(n) for n in (1, 2, 3))


def _family_slots(n, family):
    """The (summands, points) of the three slots of a chi-first family."""
    slot_of = {kind: orbits._slot(n, spin=kind == "rho") for kind in ("chi", "rho")}
    return [slot_of[kind] for kind in family.split("-")]


def test_nonzero_row_slabs_are_the_dense_sums():
    # every family takes the route its summand values pick; a spin column
    # is nonzero only on the rows h with h g central (CL(1) is abelian; the
    # centre is +-1 at even n and +-1, +-gamma_X at odd n > 1), and each
    # slab of the last slot equals the einsum over every h
    for n, centre in ((1, 4), (2, 2), (3, 4)):
        spin, _ = orbits._slot(n, spin=True)
        live = [len(orbits._nonzero_rows(re, im)) for re, im in zip(spin[0].T, spin[1].T)]
        assert max(live) == centre
        for family in orbits.FAMILIES:
            slots = [summands for summands, _ in _family_slots(n, family)]
            got = list(orbits._direct_grid(slots))
            want = summed_slabs(slots)
            assert len(got) == len(want) == slots[2][0].shape[1]
            for (g_re, g_im), (w_re, w_im) in zip(got, want):
                assert np.array_equal(g_re, w_re)
                assert np.array_equal(np.broadcast_to(g_im, w_im.shape), w_im)


def test_rows_picked_by_the_real_part_alone_break_chi_rho_rho(monkeypatch):
    # at n = 3 the rho+- summands are purely imaginary at X_n, so picking
    # the rows h by their real part alone drops terms: chi x rho x rho
    # disagrees on the grid.  The point sum picks its rows off the centre;
    # read as {0} alone, the centre drops the same X_n rows at odd n, so a
    # point sum loses half its value and D2 fails at n = 5
    n = 3
    g = element(n, 1, (1,))
    q = _query(n, TripleIrrepLabel(chi(n), rho(n, "+"), rho(n, "-")), identity(n), g, g)
    assert spherical_value(q) == gr(1)
    assert all(r.agree for r in closed_vs_direct_grids(n))
    with monkeypatch.context() as patch:
        patch.setattr(gelfand, "is_central", lambda mask, k: mask == 0)
        assert spherical_value(q) == gr(Fraction(1, 2))
        result = verify.run_check("D2", (5,))
        assert not result.ok and "n=5" in result.detail and "; replay: " in result.detail
    assert spherical_value(q) == gr(1)
    monkeypatch.setattr(orbits, "_nonzero_rows", lambda re, im: np.flatnonzero(re))
    agree = {r.family: r.agree for r in closed_vs_direct_grids(n)}
    assert not agree["chi-rho-rho"]


def _degree_pairs(n_max):
    """(n, m, k) for n <= n_max, m in (n, n - 1) with m >= 0, and k in (n, m):
    the degrees of a rho slot's or theta's label."""
    return [(n, m, k) for n in range(n_max + 1) for m in {n, n - 1} - {-1} for k in {n, m}]


def _signs_and_masks(k):
    """Every point sign gamma_mask of CL(k) as two int64 columns."""
    return (a.ravel() for a in np.meshgrid(np.array((1, -1)), np.arange(1 << k)))


def test_central_rows_are_the_nonzero_rows():
    # the point sum's spin rows, read off the centre, are the rows where the
    # full 2^(m+1)-row summand table is nonzero: every spin label of degree
    # n or m, both signs, every mask, for n <= 6 and m in (n, n - 1)
    cases = 0
    for n, m, k in _degree_pairs(6):
        rows = np.arange(2 << m, dtype=np.int64)
        sign, mask = _signs_and_masks(k)
        for label in spin_labels(k):
            re, im = gelfand.conj_summands(label, m, rows, sign, mask)
            for col, t in enumerate(mask.tolist()):
                want = orbits._nonzero_rows(re[:, col], im[:, col]).tolist()
                assert gelfand._central_rows(k, t, m).tolist() == want, (n, m, label, col)
                cases += 1
    assert cases == 884


def test_chi_summands_by_mask_are_the_full_product(monkeypatch):
    # a chi label reads the mask of h g alone, which on every row equals
    # char_re_im at the full index_product h g: every chi label of degree n
    # or m, both signs, every mask, for n <= 5 and m in (n, n - 1).  Read
    # at the mask of h alone, the point dropped, the summands fail C6
    for n, m, k in _degree_pairs(5):
        rows = np.arange(2 << m, dtype=np.int64)
        sign, mask = _signs_and_masks(k)
        hg = index_product(embed_index(rows[:, None], m, k), (sign < 0) << k | mask, k)
        for a in range(1 << k):
            re, im = gelfand.conj_summands(chi(k, a), m, rows, sign, mask)
            want_re, want_im = char_re_im(chi(k, a), *index_sign_mask(hg, k))
            assert np.array_equal(re, want_re) and np.array_equal(im, -want_im)
    real = gelfand.conj_summands

    def h_alone(label, m, rows, sign, mask):
        return real(label, m, rows, sign, 0 * mask if label.kind == "chi" else mask)

    assert verify.run_check("C6", range(1, 4), range(1)).ok
    monkeypatch.setattr(orbits, "conj_summands", h_alone)
    result = verify.run_check("C6", range(1, 4), range(1))
    assert result.ident == "C6" and not result.ok and "; replay: " in result.detail


def _closed_slabs(n, family, dtype):
    """_closed_scaled over the grid of a family, one slab of the last slot
    at a time, on grid points cast to dtype."""
    x1, x2, x3 = (points.astype(dtype) for _, points in _family_slots(n, family))
    cols, rows = [x[:, None] for x in x1], [x[None, :] for x in x2]
    return (orbits._closed_scaled(n, family.count("rho"), cols, rows, p) for p in zip(*x3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_int16_closed_slabs_are_the_int64_slabs(n):
    # the grid evaluates the closed forms on int16 points; nothing wraps
    for family in orbits.FAMILIES:
        assert all(points.dtype == np.int16 for _, points in _family_slots(n, family))
        narrow, wide = _closed_slabs(n, family, np.int16), _closed_slabs(n, family, np.int64)
        for (n_re, n_im), (w_re, w_im) in zip(narrow, wide, strict=True):
            for got in (n_re, n_im):
                assert not isinstance(got, np.ndarray) or got.dtype == np.int16
            assert np.array_equal(n_re, w_re) and np.array_equal(n_im, w_im)


def test_grid_reports_the_first_disagreeing_point(monkeypatch):
    # a two-spin closed form off by one only where T1 = {1,2}, g2 = +gamma_{2}
    # and T3 = {2}: the report names the first such point in slab order (the
    # last slot, then the first, then the second), where the point routes
    # disagree as well
    real = orbits._closed_scaled

    def off_by_one(n, spins, x1, x2, x3):
        re, im = real(n, spins, x1, x2, x3)
        hit = (x1[1] == 3) & (x2[1] == 2) & (x2[2] == 1) & (x3[1] == 2)
        return (re + hit, im) if spins == 2 else (re, im)

    n = 2
    assert all(r.counterexample is None for r in closed_vs_direct_grids(n))
    monkeypatch.setattr(orbits, "_closed_scaled", off_by_one)
    (bad,) = [r for r in closed_vs_direct_grids(n) if not r.agree]
    g2 = element(n, 1, (2,))
    sigma = TripleIrrepLabel(chi(n), rho(n), rho(n))
    assert (bad.family, bad.counterexample) == (
        "chi-rho-rho", _query(n, sigma, element(n, 1, (1, 2)), g2, g2)
    )
    assert spherical_closed_form(bad.counterexample).value != spherical_value(bad.counterexample)


def test_spherical_query_requires_equal_degrees():
    with pytest.raises(ValueError):
        SphericalQuery(
            TripleIrrepLabel(rho(2), rho(2), chi(1)),
            TripleElement(identity(2), identity(2), identity(2), 1),
        )


def test_point_and_grid_share_one_closed_form(monkeypatch):
    # a slip in _closed_scaled must show up both at a point and on the grid
    real = orbits._closed_scaled

    def negated(n, spins, *slots):
        re, im = real(n, spins, *slots)
        return (-re, -im) if spins == 2 else (re, im)

    monkeypatch.setattr(orbits, "_closed_scaled", negated)
    n = 2
    sigma = TripleIrrepLabel(chi(n, (1,)), rho(n), rho(n))
    g1, g2 = element(n, 1, (1,)), element(n, 1, (1, 2))
    q = _query(n, sigma, g1, g2, g2)  # T2 = T3
    assert spherical_value(q) != gr(0)
    assert spherical_closed_form(q).value != spherical_value(q)
    q = _query(n, TripleIrrepLabel(rho(n), rho(n), chi(n, (1,))), g2, g2, g1)
    assert spherical_closed_form(q).value != spherical_value(q)
    agree = {r.family: r.agree for r in closed_vs_direct_grids(n)}
    assert agree == {
        "chi-chi-chi": True, "rho-rho-rho": True,
        "chi-rho-rho": False, "chi-chi-rho": True,
    }


def test_point_and_grid_share_one_direct_sum(monkeypatch):
    # a slip in gelfand.conj_summands must show up both at a point and on
    # the grid: spin summands times i turn a two-spin sum into its negative
    real = gelfand.conj_summands

    def times_i(label, m, rows, sign, mask):
        re, im = real(label, m, rows, sign, mask)
        return (re, im) if label.kind == "chi" else (-im, re)

    n = 2
    sigma = TripleIrrepLabel(chi(n, (1,)), rho(n), rho(n))
    g2 = element(n, 1, (1, 2))
    q = _query(n, sigma, element(n, 1, (1,)), g2, g2)  # T2 = T3
    closed = spherical_closed_form(q).value
    assert spherical_value(q) == closed != gr(0)
    monkeypatch.setattr(gelfand, "conj_summands", times_i)
    monkeypatch.setattr(orbits, "conj_summands", times_i)
    assert spherical_value(q) == -closed
    agree = {r.family: r.agree for r in closed_vs_direct_grids(n)}
    assert agree == {
        "chi-chi-chi": True, "rho-rho-rho": True,
        "chi-rho-rho": False, "chi-chi-rho": True,
    }


ORDERINGS = list(product(("chi", "rho"), repeat=3))


def _sample(rng, n, kinds, tie=0):
    """A seeded query whose slots have the given chi/spin kinds.  tie = 1
    gives the first and last spin slots equal masks and tie = 2
    complementary ones; with no spin slot, any tie makes the chi labels
    cancel."""
    spins = [lab for lab in irreps(n) if lab.kind != "chi"]
    labels = [chi(n, rng.randrange(1 << n)) if k == "chi" else rng.choice(spins) for k in kinds]
    at = [CliffordElement(n, rng.choice((1, -1)), rng.randrange(1 << n)) for _ in kinds]
    spin_at = [i for i, k in enumerate(kinds) if k == "rho"]
    if tie and not spin_at:
        labels[2] = chi(n, labels[0].mask ^ labels[1].mask)
    elif tie and len(spin_at) > 1:
        i, j = spin_at[0], spin_at[-1]
        t = at[i].mask ^ ((1 << n) - 1 if tie == 2 else 0)
        at[j] = CliffordElement(n, at[j].sign, t)
    return SphericalQuery(TripleIrrepLabel(*labels), TripleElement(*at, n))


def _closed_form_mismatches():
    """The queries at which spherical_closed_form and spherical_value
    differ, out of every label triple at every point for n = 1 and 24
    seeded points per ordering for n = 2..4, half of them tied; also
    asserts that every ordering with an even number of spin slots meets a
    nonzero value at every n."""
    group = enumerate_group(1)
    queries = [
        SphericalQuery(TripleIrrepLabel(*sigma), TripleElement(*at, 1))
        for sigma in product(irreps(1), repeat=3)
        for at in product(group, repeat=3)
    ]
    rng = random.Random(13)
    queries += [
        _sample(rng, n, kinds, tie=(0, 1, 0, 2)[k % 4])
        for n in (2, 3, 4)
        for kinds in ORDERINGS
        for k in range(24)
    ]
    direct = [spherical_value(q) for q in queries]
    nonzero = {
        (q.at.degree, spherical_closed_form(q).family)
        for q, value in zip(queries, direct)
        if value != gr(0)
    }
    even = {"-".join(kinds) for kinds in ORDERINGS if kinds.count("rho") % 2 == 0}
    assert nonzero == {(n, family) for n in (1, 2, 3, 4) for family in even}
    return [q for q, value in zip(queries, direct) if spherical_closed_form(q).value != value]


def test_every_ordering_has_a_closed_form():
    assert _closed_form_mismatches() == []


def test_closed_form_never_sums(monkeypatch):
    # all eight orderings at n = 16 with both direct sums disabled
    rng = random.Random(16)
    queries = [_sample(rng, 16, kinds, tie=1) for kinds in ORDERINGS]
    want = [spherical_value(q) for q in queries]

    def summing(*args):
        raise AssertionError("the closed form summed over the group")

    monkeypatch.setattr(gelfand, "conj_summands", summing)
    monkeypatch.setattr(orbits, "conj_summands", summing)
    monkeypatch.setattr(orbits, "spherical_value", summing)
    results = [spherical_closed_form(q) for q in queries]
    assert [r.value for r in results] == want
    assert [r.family for r in results] == ["-".join(kinds) for kinds in ORDERINGS]
    assert all(r.analyzed for r in results)
    assert sum(value != gr(0) for value in want) == 4  # the even spin counts


@pytest.mark.parametrize("m", [16, 15])
def test_spin_slots_leave_the_chi_slots_at_most_four_rows(monkeypatch, m):
    # modelled on test_closed_form_never_sums: every slot of a query with a
    # spin slot, spin or chi, is tabulated on at most 4 rows h, while chi x
    # chi x chi, with no spin slot, reads all 2^(m+1)
    real, calls = gelfand.conj_summands, []

    def counting(label, m, rows, sign, mask):
        calls.append((label.kind, len(rows)))
        return real(label, m, rows, sign, mask)

    monkeypatch.setattr(gelfand, "conj_summands", counting)
    rng = random.Random(m)
    for kinds in ORDERINGS:
        calls.clear()
        spherical_character(*_sample_pair(rng, 16, m, kinds, tie=True))
        chi_rows = [rows for kind, rows in calls if kind == "chi"]
        assert len(calls) == 3
        if "rho" in kinds:
            assert max(chi_rows, default=0) <= 4
            assert max(rows for kind, rows in calls if kind != "chi") <= 4
        else:
            assert chi_rows == [2 << m] * 3


def test_a_sort_that_leaves_the_points_behind_is_caught(monkeypatch):
    # mutation: the chi labels move to the front but their points stay put;
    # orbits' module-level `sorted` is shadowed, which only
    # spherical_closed_form reaches here
    def labels_only(slots, key=None):
        slots = list(slots)
        moved = sorted(slots, key=key)
        return [(lab, g) for (lab, _), (_, g) in zip(moved, slots)]

    monkeypatch.setattr(orbits, "sorted", labels_only, raising=False)
    assert _closed_form_mismatches()
    assert not verify.run_check("D2", (5, 6)).ok
