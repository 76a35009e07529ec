import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cliffharm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def test_irreps(capsys):
    payload = run_json(capsys, "irreps", "3")
    assert payload["degree"] == 3
    assert len(payload["irreps"]) == 10
    assert {"irrep": "rho+", "dim": 2} in payload["irreps"]
    code, out, _ = run(capsys, "irreps", "2")
    assert code == 0
    assert "chi:{1,2}" in out and "rho" in out


def test_irreps_degree_guard_exits_1(capsys):
    for n in ("-1", "17"):
        code, out, err = run(capsys, "irreps", n)
        assert code == 1 and out == ""
        assert err == f"error: degree {n} outside supported range [0, 16]\n"


def test_guards_exit_1_without_traceback(capsys):
    cases = {
        ("gelfand", "17"): "[0, 16]",
        ("tensor", "17", "rho+", "rho+"): "[0, 16]",
        ("orbits", "-1"): "[0, 7]",
    }
    for argv, bounds in cases.items():
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        degree = argv[1]
        assert err == f"error: degree {degree} outside supported range {bounds}\n"


def test_multiply(capsys):
    payload = run_json(capsys, "multiply", "3", "+g{1}", "+g{2}")
    assert payload["product"] == "+g{1,2}"
    payload = run_json(capsys, "multiply", "3", "+g{2}", "+g{1}")
    assert payload["product"] == "-g{1,2}"


def test_classes(capsys):
    payload = run_json(capsys, "classes", "2")
    assert len(payload["classes"]) == 5
    assert sum(c["size"] for c in payload["classes"]) == 8


def test_tensor(capsys):
    payload = run_json(capsys, "tensor", "2", "rho", "rho")
    assert payload["multiplicity_free"] is True
    assert [t["irrep"] for t in payload["terms"]] == [
        "chi:{}", "chi:{1}", "chi:{2}", "chi:{1,2}"
    ]
    payload = run_json(capsys, "tensor", "4", "rho", "rho", "--subgroup", "3")
    assert all(t["mult"] == 2 for t in payload["terms"])


def test_restrict(capsys):
    payload = run_json(capsys, "restrict", "4", "rho")
    assert [t["irrep"] for t in payload["terms"]] == ["rho+", "rho-"]
    payload = run_json(capsys, "restrict", "3", "chi:{1,3}", "--subgroup", "2")
    assert payload["terms"] == [{"irrep": "chi:{1}", "mult": 1}]


def test_gelfand(capsys):
    payload = run_json(capsys, "gelfand", "3")
    assert payload["gelfand"] is True
    payload = run_json(capsys, "gelfand", "4", "--subgroup", "3")
    assert payload["gelfand"] is False
    assert payload["witness"] == {
        "rho1": "rho", "rho2": "rho", "theta": "chi:{}", "multiplicity": 2
    }
    code, out, _ = run(capsys, "gelfand", "2", "--subgroup", "1", "--method", "both")
    assert code == 0
    assert "NOT a Gelfand pair" in out
    code, out, _ = run(capsys, "gelfand", "1", "--method", "both")
    assert code == 0
    assert "Gelfand pair" in out
    # the README example: both methods at (4, 3)
    code, out, _ = run(capsys, "gelfand", "4", "--subgroup", "3", "--method", "both")
    assert code == 0
    assert "NOT a Gelfand pair" in out


def test_orbits(capsys):
    payload = run_json(capsys, "orbits", "2")
    assert payload["orbit_count"] == len(payload["orbits"])
    assert sum(o["size"] for o in payload["orbits"]) == 64
    payload = run_json(capsys, "orbits", "3", "--pair", "+g{1},+g{2,3}")
    assert payload["size"] == 2
    assert ["+g{1}", "+g{2,3}"] in payload["members"]
    assert ["-g{1}", "-g{2,3}"] in payload["members"]


def test_spherical(capsys):
    payload = run_json(
        capsys, "spherical", "2",
        "--triple", "chi:{},chi:{},chi:{}",
        "--at", "+g{},+g{},+g{}",
    )
    assert payload["value_str"] == "1"
    assert payload["family"] == "chi-chi-chi"
    payload = run_json(
        capsys, "spherical", "3",
        "--triple", "chi:{1},rho+,rho-",
        "--at", "+g{1,2},+g{1},-g{2,3}",
    )
    assert payload["family"] == "chi-rho-rho"


def test_spherical_reads_any_ordering_in_closed_form(capsys):
    code, out, _ = run(
        capsys, "spherical", "16",
        "--triple", "rho,chi:{1},rho",
        "--at", "+g{1,2},-g{1},+g{1,2}",
    )
    assert code == 0
    assert out.splitlines() == ["value  1", "family  rho-chi-rho"]


def test_spherical_mismatch_exits_1(capsys, monkeypatch):
    import cliffharm.cli as cli
    from cliffharm.orbits import spherical_closed_form

    def wrong(q):
        res = spherical_closed_form(q)
        return dataclasses.replace(res, value=res.value + 1)

    monkeypatch.setattr(cli, "spherical_closed_form", wrong)
    code, out, err = run(
        capsys, "spherical", "3",
        "--triple", "chi:{1},rho+,rho-",
        "--at", "+g{1,2},+g{1},-g{2,3}",
    )
    assert code == 1
    assert out == ""
    assert "error:" in err and "closed form" in err and "chi-rho-rho" in err


def test_verify_smoke(capsys):
    code, out, _ = run(capsys, "verify", "--level", "smoke")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 9
    assert all(l.startswith("[PASS]") for l in lines)
    assert "all checks passed" in out
    payload = run_json(capsys, "verify", "--level", "smoke")
    assert payload["ok"] is True
    assert [c["id"] for c in payload["checks"]] == [
        "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9"
    ]


def test_verify_desk_survives_optimize():
    # python -O strips assert statements; every cross-check must still run,
    # C3 and C4 at their full desk ranges
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "cliffharm.cli", "verify", "--level", "desk"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all checks passed" in proc.stdout


def test_error_exits(capsys):
    code, _, err = run(capsys, "multiply", "2", "+g{3}", "+g{1}")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "gelfand", "3", "--subgroup", "1")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "orbits", "9")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "orbits", "3", "--pair", "")
    assert code == 1 and "--pair expects two elements" in err
    code, _, err = run(capsys, "spherical", "2", "--triple", "rho,rho",
                       "--at", "+g{},+g{},+g{}")
    assert code == 1 and "error:" in err
    with pytest.raises(SystemExit) as exc:
        main(["tensor", "2"])  # missing positional labels -> usage error
    assert exc.value.code == 2
    capsys.readouterr()


def test_element_arguments_may_start_with_a_minus(capsys):
    # each pair: a negative element as a bare argument, and the '--' or
    # '--opt=' form argparse needs without the parser's '-g{' rule
    for bare, escaped in (
        (("multiply", "3", "-g{1}", "+g{2}"), ("multiply", "3", "--", "-g{1}", "+g{2}")),
        (("orbits", "3", "--pair", "-g{1},+g{2,3}"), ("orbits", "3", "--pair=-g{1},+g{2,3}")),
        (
            ("spherical", "3", "--triple", "chi:{1},rho+,rho-", "--at", "-g{1,2},+g{1},-g{2,3}"),
            ("spherical", "3", "--triple", "chi:{1},rho+,rho-", "--at=-g{1,2},+g{1},-g{2,3}"),
        ),
    ):
        got, want = run(capsys, *bare), run(capsys, *escaped)
        assert got == want and got[0] == 0 and got[1], bare
    assert run(capsys, "multiply", "3", "-g{1}", "-g{2}")[1] == "+g{1,2}\n"
    # an unknown option is still a usage error
    with pytest.raises(SystemExit) as exc:
        main(["multiply", "3", "+g{1}", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_malformed_index_lists_exit_1(capsys):
    for argv, message in (
        (("multiply", "3", "+g{1,2,}", "+g{}"), "malformed index list in '+g{1,2,}'"),
        (("multiply", "3", "+g{,1}", "+g{}"), "malformed index list in '+g{,1}'"),
        (("multiply", "3", "+g{}", "+g{1,1}"), "indices in '+g{1,1}' must be strictly ascending"),
        (("tensor", "3", "chi:{2,1}", "rho+"), "indices in 'chi:{2,1}' must be strictly ascending"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and "Traceback" not in err


def test_closed_pipe_exits_1_without_traceback():
    # the JSON (about 130 kB) outgrows the pipe buffer, so the writer is
    # still printing when the reader goes away after five lines, as `| head -5`
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    argv = ["tensor", "12", "rho", "rho", "--subgroup", "11", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "cliffharm.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = [proc.stdout.readline() for _ in range(5)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head[0] == b"{\n" and err == b""
