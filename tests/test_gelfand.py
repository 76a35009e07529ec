import dataclasses
import random
from itertools import product

import numpy as np
import pytest

from cliffharm.exact import gr
from cliffharm.elements import (
    CliffordElement,
    GuardError,
    TripleElement,
    identity,
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
from oracles import (
    class_sum_invariant_dim,
    dense_multiplicity_cube,
    enumerate_group,
    pairwise_convolution_commutes,
    permutation_character_eta,
    triple_product,
)


def report_cube(rep):
    """The dense multiplicity array a report describes: the chi-chi-chi
    indicator [(A ^ B) & (2^m - 1) == C], the stored two-spin blocks, and 0
    elsewhere."""
    big, small = 1 << rep.n, 1 << rep.m
    cube = np.zeros((len(irreps(rep.n)),) * 2 + (len(irreps(rep.m)),), dtype=np.int64)
    a = np.arange(big)[:, None, None]
    b = np.arange(big)[None, :, None]
    cube[:big, :big, :small] = ((a ^ b) & (small - 1)) == np.arange(small)
    for (p, i, j), mult in rep.two_spin.items():
        index = [i, j]
        index.insert(p, slice(len(mult)))
        cube[tuple(index)] = mult
    return cube


def assert_matches_dense_scan(rep, cube):
    """Every multiplicity, the verdict, the maximum and the witness (the
    first triple in label order with multiplicity >= 2) agree with the
    dense cube."""
    assert np.array_equal(report_cube(rep), cube)
    assert rep.max_multiplicity == cube.max()
    assert rep.gelfand == (cube.max() <= 1)
    first = np.argwhere(cube >= 2)[:1]
    if len(first):
        i, j, k = first[0]
        g, h = irreps(rep.n), irreps(rep.m)
        assert rep.witness == TripleIrrepLabel(g[i], g[j], h[k])
        assert rep.witness_multiplicity == cube[i, j, k]
    else:
        assert rep.witness is None and rep.witness_multiplicity == 0


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


def test_scan_builds_no_label_table():
    # the scan reads its spin labels from spin_labels and builds its witness
    # from the witness's positions, so no 2^16-label irreps(16) is made
    irreps.cache_clear()
    gelfand_check_characters.cache_clear()
    rep = gelfand_check_characters(16, 15)
    assert irreps.cache_info().currsize == 0
    assert (rep.witness.rho1, rep.witness.rho2, rep.witness.theta) == (rho(16), rho(16), chi(15))
    assert rep.witness_multiplicity == 2


def test_report_table_and_json():
    rep = gelfand_check_characters(2, 1)
    triples = [TripleIrrepLabel(*t) for t in product(irreps(2), irreps(2), irreps(1))]
    assert max(map(rep.multiplicity, triples)) == rep.max_multiplicity == 2
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
    with pytest.raises(TypeError):
        rep.two_spin[next(iter(rep.two_spin))] = np.zeros(4, dtype=np.int64)
    with pytest.raises(ValueError):
        next(iter(rep.two_spin.values()))[0] = 7
    again = gelfand_check_characters(2, 2)
    assert again.gelfand and again.max_multiplicity == 1
    assert max(int(mult.max()) for mult in again.two_spin.values()) == 1


def test_convolution_agrees_with_characters():
    pairs = ((0, 0), (1, 1), (1, 0), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4))
    for n, m in pairs + ((5, 4), (5, 5), (6, 5)):
        assert gelfand_check_biinvariant(n, m) == gelfand_check_characters(n, m).gelfand


def test_structure_constants_match_pairwise_convolutions():
    # the verdict at one representative per double coset against every
    # pair of double cosets compared as full count vectors over K
    for n, m in ((0, 0), (1, 1), (1, 0), (2, 2), (2, 1), (3, 2)):
        assert gelfand_check_biinvariant(n, m) == pairwise_convolution_commutes(n, m)


def test_guards():
    with pytest.raises(GuardError, match=r"degree 7 outside supported range \[0, 6\]"):
        gelfand_check_biinvariant(7, 7)
    # one past MAX_DEGREE = 16
    with pytest.raises(GuardError, match=r"degree 17 outside supported range \[0, 16\]"):
        gelfand_check_characters(17, 17)
    with pytest.raises(GuardError, match=r"degree 17 outside supported range \[0, 16\]"):
        gelfand_check_characters(17, 16)
    with pytest.raises(ValueError):
        gelfand_check_characters(3, 1)


SUBGROUP_DEGREE_CHECKS = {
    "TripleElement": lambda n, m: TripleElement(identity(n), identity(n), identity(n), m),
    "TripleIrrepLabel": lambda n, m: TripleIrrepLabel(chi(n), chi(n), chi(m)),
    "gelfand_check_characters": gelfand_check_characters,
    "gelfand_check_biinvariant": gelfand_check_biinvariant,
}


def test_degrees_outside_the_range_are_rejected():
    # past degree 16 only 16 bits of a mask were folded: the invariant
    # dimension of (rho+, rho+, chi_A) came out 1 for A = X_17 and A = {17}
    # and 0 for A = X_19, where the parity rule of C3 gives 0, 0 and 1
    for label in (
        lambda: rho(17, "+"),
        lambda: chi(17, range(1, 18)),
        lambda: chi(17, (17,)),
        lambda: chi(19, range(1, 20)),
        lambda: chi(-1),
    ):
        with pytest.raises(GuardError, match="outside supported range"):
            label()
    # m = -1 passes "n or n-1" at n = 0 but is no degree
    for make in (
        lambda: TripleElement(identity(0), identity(0), identity(0), -1),
        lambda: gelfand_check_biinvariant(0, -1),
        lambda: gelfand_check_characters(0, -1),
    ):
        with pytest.raises(ValueError, match="must be n or n-1 and at least 0"):
            make()


@pytest.mark.parametrize("make", SUBGROUP_DEGREE_CHECKS.values(), ids=SUBGROUP_DEGREE_CHECKS)
def test_one_subgroup_degree_rule(make):
    for m in (3, 0):  # n + 1 and n - 2 at n = 2
        with pytest.raises(ValueError, match="must be n or n-1"):
            make(2, m)
    make(0, 0)


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
        hs = [(x.sign, x.mask) for x in enumerate_group(m)]  # CL(m) in CL(n)
        sigmas = [
            TripleIrrepLabel(rho(n), rho(n), irreps(m)[0]),
            TripleIrrepLabel(chi(n, (1,)), rho(n), irreps(m)[-1]),
        ]
        for sigma in sigmas:
            for _ in range(10):
                g1, g2, h = rng.choice(gs), rng.choice(gs), rng.choice(hs)
                t = TripleElement(g1, g2, CliffordElement(n, *h), m)
                k1, k2 = (CliffordElement(n, *rng.choice(hs)) for _ in range(2))
                k1, k2 = (TripleElement(k, k, k, m) for k in (k1, k2))
                moved = triple_product(triple_product(k1, t), k2)
                assert spherical_character(sigma, moved) == spherical_character(sigma, t)


def test_scan_matches_dense_oracle():
    for n in range(0, 8):
        for m in {n, max(n - 1, 0)}:
            rep = gelfand_check_characters(n, m)
            cube = dense_multiplicity_cube(n, m)
            assert_matches_dense_scan(rep, cube)
            if n <= 5:  # every triple through multiplicity()
                g, h = list(enumerate(irreps(n))), list(enumerate(irreps(m)))
                for (i, a), (j, b), (k, c) in product(g, g, h):
                    assert rep.multiplicity(TripleIrrepLabel(a, b, c)) == cube[i, j, k]


def test_oracle_comparison_catches_a_flipped_two_spin_multiplicity(monkeypatch):
    import cliffharm.gelfand as gelfand

    real = gelfand._spin_pair_multiplicity
    calls = []

    def flipped(a, b, x, m):
        mult = real(a, b, x, m)
        if not calls:  # the scan's first two-spin sum: 1 -> 2 at its first chi
            mult = mult.copy()
            mult[0] = 3 - mult[0]
        calls.append(x)
        return mult

    monkeypatch.setattr(gelfand, "_spin_pair_multiplicity", flipped)
    rep = gelfand.gelfand_check_characters.__wrapped__(4, 4)
    assert calls and not rep.gelfand
    with pytest.raises(AssertionError):
        assert_matches_dense_scan(rep, dense_multiplicity_cube(4, 4))


def test_invariant_dim_matches_class_sum_oracle():
    for n in range(0, 5):
        for m in {n, max(n - 1, 0)}:
            for r1, r2, th in product(irreps(n), irreps(n), irreps(m)):
                assert diagonal_invariant_dim(r1, r2, th) == class_sum_invariant_dim(r1, r2, th)
