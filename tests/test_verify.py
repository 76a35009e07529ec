import dataclasses
import shlex

from cliffharm import cli, orbits, verify
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
