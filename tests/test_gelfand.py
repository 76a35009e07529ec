import dataclasses
import random

import pytest

from cliffharm.exact import gr
from cliffharm.elements import (
    GuardError,
    TripleElement,
    element,
    embed,
    enumerate_group,
    identity,
    triple,
    triple_multiply,
)
from cliffharm.characters import (
    chi,
    conjugate_label,
    irreps,
    restricted_kronecker,
    rho,
)
from cliffharm.gelfand import (
    TripleIrrepLabel,
    diagonal_invariant_dim,
    gelfand_check_biinvariant,
    gelfand_check_characters,
    spherical_character,
)
from oracles import permutation_character_eta


def test_invariant_dim_equals_restricted_multiplicity():
    # dim of diagonal invariants = multiplicity of theta' in Res(rho1 x rho2)
    for n, m in ((2, 2), (2, 1), (3, 2)):
        for r1 in irreps(n):
            for r2 in irreps(n):
                dec = restricted_kronecker(r1, r2, m)
                for th in irreps(m):
                    d = diagonal_invariant_dim(r1, r2, th)
                    assert d == dec.multiplicity(conjugate_label(th))


def test_invariant_dims_sum_to_group_order_squared():
    # summing mult * dim over all triples recovers dim C[G x G] = |G|^2
    for n, m in ((2, 2), (3, 2)):
        total = sum(
            diagonal_invariant_dim(r1, r2, th) * r1.dim * r2.dim * th.dim
            for r1 in irreps(n)
            for r2 in irreps(n)
            for th in irreps(m)
        )
        assert total == (1 << (n + 1)) ** 2


def test_equal_degree_pairs_are_gelfand():
    for n in range(1, 5):
        rep = gelfand_check_characters(n, n)
        assert rep.gelfand
        assert rep.max_multiplicity == 1
        assert rep.witness is None


def test_dropped_degree_parity():
    for n in range(2, 6):
        rep = gelfand_check_characters(n, n - 1)
        assert rep.gelfand == (n % 2 == 1)


def test_even_degree_witness():
    rep = gelfand_check_characters(4, 3)
    assert not rep.gelfand
    w = rep.witness
    assert rep.witness_multiplicity == 2
    assert w.rho1 == rho(4) and w.rho2 == rho(4) and w.theta == chi(3)
    # and the restricted Kronecker product really does repeat theta'
    dec = restricted_kronecker(w.rho1, w.rho2, 3)
    assert dec.multiplicity(conjugate_label(w.theta)) == 2
    assert not dec.multiplicity_free


def test_report_table_and_json():
    rep = gelfand_check_characters(2, 1)
    table = rep.table()
    assert max(table.values()) == rep.max_multiplicity == 2
    payload = rep.to_json()
    assert payload["gelfand"] is False
    assert payload["witness"]["multiplicity"] == 2
    assert payload["witness"]["rho1"] == "rho"
    # self-conjugate theta: no separate theta' entry
    assert "theta_prime" not in payload["witness"]
    payload = gelfand_check_characters(3, 3).to_json()
    assert payload["gelfand"] is True and "witness" not in payload


def test_cached_report_is_immutable():
    # the report is cached: a caller that could mutate it would change the
    # verdict every later caller sees
    rep = gelfand_check_characters(2, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.gelfand = False
    with pytest.raises(ValueError):
        rep.mult_array[0, 0, 0] = 7
    again = gelfand_check_characters(2, 2)
    assert again.gelfand and again.max_multiplicity == 1
    assert int(again.mult_array.max()) == 1


def test_convolution_agrees_with_characters():
    for n, m in ((1, 1), (2, 1), (2, 2), (3, 2)):
        assert gelfand_check_biinvariant(n, m) == gelfand_check_characters(n, m).gelfand


def test_guards():
    with pytest.raises(GuardError):
        gelfand_check_biinvariant(4, 4)
    # one past MAX_CHARACTER_METHOD_DEGREE = 8 would build a 514^3 table
    with pytest.raises(GuardError):
        gelfand_check_characters(9, 9)
    with pytest.raises(GuardError):
        gelfand_check_characters(9, 8)
    with pytest.raises(ValueError):
        gelfand_check_characters(3, 1)


def test_eta_multiplicities_match_invariant_dims():
    for n, m in ((2, 2), (2, 1)):
        eta = permutation_character_eta(n, m)
        # value at the identity triple is the module dimension |G|^2
        e = TripleElement(identity(n), identity(n), identity(n), m)
        assert eta.values[eta.reps.index(e)] == (1 << (n + 1)) ** 2
        for r1 in irreps(n):
            for r2 in irreps(n):
                for th in irreps(m):
                    sigma = TripleIrrepLabel(r1, r2, th)
                    assert eta.multiplicity(sigma) == diagonal_invariant_dim(r1, r2, th)


def test_spherical_at_identity():
    # psi(e) is the invariant dimension of the conjugate triple
    n = m = 2
    e = TripleElement(identity(n), identity(n), identity(n), m)
    for r1 in irreps(n):
        for r2 in irreps(n):
            for th in irreps(m):
                sigma = TripleIrrepLabel(r1, r2, th)
                expect = diagonal_invariant_dim(
                    conjugate_label(r1), conjugate_label(r2), conjugate_label(th)
                )
                assert spherical_character(sigma, e) == gr(expect)


def test_spherical_bi_invariance():
    # psi(k1 t k2) = psi(t) for k1, k2 in the diagonal subgroup
    rng = random.Random(4)
    for n, m in ((2, 2), (2, 1)):
        gs = list(enumerate_group(n))
        hs = list(enumerate_group(m))
        sigmas = [
            TripleIrrepLabel(rho(n), rho(n), irreps(m)[0]),
            TripleIrrepLabel(chi(n, (1,)), rho(n), irreps(m)[-1]),
        ]
        for sigma in sigmas:
            for _ in range(10):
                t = triple(rng.choice(gs), rng.choice(gs), rng.choice(hs), m)
                k1h, k2h = rng.choice(hs), rng.choice(hs)
                k1 = triple(embed(k1h, n), embed(k1h, n), k1h, m)
                k2 = triple(embed(k2h, n), embed(k2h, n), k2h, m)
                moved = triple_multiply(triple_multiply(k1, t), k2)
                assert spherical_character(sigma, moved) == spherical_character(sigma, t)
