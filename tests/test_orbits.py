import random
from itertools import product

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
    enumerate_group,
    identity,
)
from cliffharm.characters import chi, rho
from cliffharm.gelfand import TripleIrrepLabel, spherical_character
from cliffharm import gelfand, orbits
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

from oracles import generic_spherical_character


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
                members = sorted(members, key=lambda p: tuple(map(element_index, p)))
                want.append(PairOrbit(members[0], tuple(members)))
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


def test_direct_value_matches_generic_spherical():
    # the exact-integer summation agrees with the generic definition, for the
    # subgroup H = CL(m) with m = n (through spherical_value) and m = n - 1
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
    for (n, m), sigmas in cases.items():
        for sigma in sigmas:
            for _ in range(15):
                g1, g2 = (
                    CliffordElement(n, rng.choice((1, -1)), rng.randrange(1 << n))
                    for _ in range(2)
                )
                h = CliffordElement(n, rng.choice((1, -1)), rng.randrange(1 << m))
                at = TripleElement(g1, g2, h, m)
                if m == n:
                    direct = spherical_value(SphericalQuery(sigma, at))
                else:
                    direct = spherical_character(sigma, at)
                assert direct == generic_spherical_character(sigma, at)


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
    # unanalyzed orderings fall back to direct summation but stay correct
    sigma = TripleIrrepLabel(rho(n, "+"), chi(n, (1,)), rho(n, "-"))
    q = _query(n, sigma, identity(n), identity(n), identity(n))
    r = spherical_closed_form(q)
    assert not r.analyzed and r.value == spherical_value(q)


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


def test_spherical_query_requires_equal_degrees():
    with pytest.raises(ValueError):
        SphericalQuery(
            TripleIrrepLabel(rho(2), rho(2), chi(1)),
            TripleElement(identity(2), identity(2), identity(2), 1),
        )


def test_point_and_grid_share_one_closed_form(monkeypatch):
    # a slip in _closed_scaled must show up both at a point and on the grid
    real = orbits._closed_scaled

    def negated(n, family, *slots):
        re, im = real(n, family, *slots)
        return (-re, -im) if family == "chi-rho-rho" else (re, im)

    monkeypatch.setattr(orbits, "_closed_scaled", negated)
    n = 2
    sigma = TripleIrrepLabel(chi(n, (1,)), rho(n), rho(n))
    g2 = element(n, 1, (1, 2))
    q = _query(n, sigma, element(n, 1, (1,)), g2, g2)  # T2 = T3
    assert spherical_value(q) != gr(0)
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

    def times_i(label, m, sign, mask):
        re, im = real(label, m, sign, mask)
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
