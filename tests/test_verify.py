import dataclasses
import random
import shlex
from itertools import product

from cliffharm import cli, elements, orbits, verify
from cliffharm.elements import _flip_vector, predicted_labels
from cliffharm.characters import irreps
from cliffharm.orbits import spherical_closed_form


def test_sampled_spherical_check_passes():
    result = verify.check_sampled_spherical(degrees=(5, 6))
    assert result.ident == "D2"
    assert result.ok, result.detail


def test_sampled_spherical_check_reports_a_wrong_closed_form(monkeypatch):
    def wrong(q):
        res = spherical_closed_form(q)
        return dataclasses.replace(res, value=res.value + 1)

    monkeypatch.setattr(verify, "spherical_closed_form", wrong)
    result = verify.check_sampled_spherical(degrees=(5, 6))
    assert not result.ok
    assert "n=5" in result.detail and "closed" in result.detail


def test_spherical_grid_failure_prints_a_replay_line(monkeypatch, capsys):
    # C6 names its first disagreeing point as a cliffharm command line, and
    # that line fails through the CLI exactly while the closed form is wrong
    real = orbits._closed_scaled

    def negated(n, spins, *slots):
        re, im = real(n, spins, *slots)
        return (-re, -im) if spins == 2 else (re, im)

    monkeypatch.setattr(orbits, "_closed_scaled", negated)
    result = verify.check_spherical_grids(n_max=2, lemma_n_max=2)
    assert result.ident == "C6" and not result.ok
    line = result.detail.split("replay: ")[1]
    command, *argv = shlex.split(line)
    assert command == "cliffharm" and argv[0] == "spherical"
    assert cli.main(argv) == 1
    assert "!= direct summation" in capsys.readouterr().err
    monkeypatch.setattr(orbits, "_closed_scaled", real)
    assert cli.main(argv) == 0


def test_sampled_spherical_failure_prints_a_replay_line(monkeypatch, capsys):
    # D2 ends its detail with the cliffharm command line of its first
    # disagreeing point, which fails through the CLI while the closed form is
    # wrong; with chi x rho x rho negated that is chi-rho-rho at n = 5
    real = orbits._closed_scaled

    def negated(n, spins, *slots):
        re, im = real(n, spins, *slots)
        return (-re, -im) if spins == 2 else (re, im)

    monkeypatch.setattr(orbits, "_closed_scaled", negated)
    result = verify.check_sampled_spherical(degrees=(5, 6))
    assert result.ident == "D2" and not result.ok
    assert result.detail.startswith("chi-rho-rho at n=5: closed ")
    command, *argv = shlex.split(result.detail.split("; replay: ")[1])
    assert command == "cliffharm" and argv[:2] == ["spherical", "5"]
    assert cli.main(argv) == 1
    assert "!= direct summation" in capsys.readouterr().err
    monkeypatch.setattr(orbits, "_closed_scaled", real)
    assert cli.main(argv) == 0


def test_one_sign_flip_mutant_fails_c5_and_predicted_orbit(monkeypatch):
    # predicted_labels and predicted_orbit read one rule: the same mutant of
    # _sign_flips, x's sign flipped alone wherever v_x != 0, also where v_y =
    # v_x locks the two signs together, fails C5 at m = n = 2, first on
    # (-g{1}, +g{1}), and splits predicted_orbit from the brute force on the
    # locked pair (+g{1}, +g{1})
    real = elements._sign_flips
    assert orbits._sign_flips is real

    def x_alone_unlocked(keys, n, m):
        _, y, both = real(keys, n, m)
        v_x = _flip_vector(keys >> (n + 1) & ((1 << n) - 1), m)
        return (1 << (2 * n + 1)) * (v_x != 0), y, both

    for module in (elements, orbits):
        monkeypatch.setattr(module, "_sign_flips", x_alone_unlocked)
    result = verify.check_orbits(n_max=3)
    assert not result.ok
    assert "n=2, m=2" in result.detail
    pair = (elements.element(2, 1, (1,)),) * 2
    assert (orbits.predicted_orbit(pair, 2).size, orbits.orbit_of(pair, 2).size) == (3, 2)


def test_flip_vectors_over_x_n_for_the_subgroup_fail_c5(monkeypatch):
    # X_n in place of X_m: m enters predicted_labels only through the flip
    # vectors, so predicting with m = n is this mutant.  It first fails at
    # (n, m) = (2, 1) on (+g{}, -g{1}): gamma_1 commutes with CL(1), whose
    # flip vector is X_1 & ~{1} = 0, but over X_2 it is {2}
    monkeypatch.setattr(verify, "predicted_labels", lambda keys, n, m: predicted_labels(keys, n, n))
    result = verify.check_orbits(n_max=3)
    assert not result.ok
    assert "n=2, m=1" in result.detail


def _independent_signs(keys, n, m):
    """predicted_labels with y's sign bit zeroed wherever v_y != 0, which
    frees the pairs with v_y = v_x, whose signs are locked together."""
    v_y = _flip_vector(keys & ((1 << n) - 1), m)
    return predicted_labels(keys, n, m) & ~((v_y != 0) << n)


def test_locked_signs_read_as_independent_fail_c5(monkeypatch):
    # C5 sees it first at m = n = 2, on (+g{1}, -g{1})
    monkeypatch.setattr(verify, "predicted_labels", _independent_signs)
    result = verify.check_orbits(n_max=3)
    assert not result.ok
    assert "n=2, m=2" in result.detail


def test_flip_vectors_over_x_n_for_the_subgroup_fail_d1(monkeypatch):
    # the C5 mutant above, past C5's range: D1 meets it at n = 8, m = 7
    monkeypatch.setattr(verify, "predicted_labels", lambda keys, n, m: predicted_labels(keys, n, n))
    result = verify.check_deep_extras()
    assert result.ident == "D1" and not result.ok
    assert "n=8, m=7" in result.detail


def test_locked_signs_read_as_independent_fail_d1(monkeypatch):
    # D1's equal-mask shape meets the locked pairs at n = m = 8
    monkeypatch.setattr(verify, "predicted_labels", _independent_signs)
    result = verify.check_deep_extras()
    assert not result.ok
    assert "n=8, m=8" in result.detail


def test_sampled_triples_cover_every_ordering_and_spin_label():
    # at each sampled (n, m), one triple per chi/spin ordering, and every
    # slot meets every spin label of its degree
    rng = random.Random(0)
    sampled = [(n, m) for n, m in verify.DEEP_FROBENIUS_PAIRS if n > 3]
    assert sorted(sampled) == [(4, 3), (4, 4), (5, 4), (5, 5)]
    for n, m in sampled:
        triples = list(verify.sampled_triples(n, m, rng))
        kinds = [tuple(lab.kind != "chi" for lab in t) for t in triples]
        assert kinds == list(product((False, True), repeat=3))
        for j, d in enumerate((n, n, m)):
            spins = {lab for lab in irreps(d) if lab.kind != "chi"}
            assert {t[j] for t in triples if t[j].kind != "chi"} == spins
        assert all((t[0].degree, t[2].degree) == (n, m) for t in triples)


def test_spin_square_multiplicity_one_fails_c4(monkeypatch):
    # every spin x spin term of Res_{CL(n-1)} is 2 - n % 2: a C4 that always
    # expects 1 meets rho x rho at n = 2, whose terms are twice chi_{} and chi_{1}
    real = verify._chi_terms
    monkeypatch.setattr(verify, "_chi_terms", lambda n, mult, parity=None: real(n, 1, parity))
    result = verify.check_restriction_rules(n_max=3)
    assert not result.ok
    assert result.detail == "rho x rho restriction at n=2"


def test_tensor_square_without_the_parity_filter_fails_c3(monkeypatch):
    # at odd n a spin tensor square holds only half the chi_A: a C3 that
    # expects every A passes n = 2 and fails at n = 3
    real = verify._chi_terms
    monkeypatch.setattr(verify, "_chi_terms", lambda n, mult, parity=None: real(n, mult))
    result = verify.check_tensor_tables(ns=(2, 3))
    assert not result.ok
    assert result.detail == "rho+ x rho+ at n=3"
