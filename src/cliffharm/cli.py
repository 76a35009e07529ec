"""Command-line front end.

Subcommands mirror the library: irreps, multiply, classes, tensor,
restrict, gelfand, orbits, spherical, verify.  Output is a plain table by
default or JSON with --format json.  Exit codes: 0 success, 1 domain error
(bad degree, malformed element, guard violation, failed verification) or
an output pipe closed early, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .exact import format_gaussian, gaussian_to_json
from .elements import (
    TripleElement,
    conjugacy_classes,
    format_element,
    multiply,
    parse_element,
)
from .characters import (
    NotACharacterError,
    decompose,
    format_label,
    irrep_character,
    irreps,
    parse_label,
    restrict_character,
    tensor_character,
)
from .gelfand import (
    TripleIrrepLabel,
    gelfand_check_biinvariant,
    gelfand_check_characters,
)
from .orbits import (
    SphericalQuery,
    predicted_orbit,
    enumerate_pair_orbits,
    spherical_closed_form,
    spherical_value,
)
from . import verify as verify_mod


def _emit(args, rows, header, payload):
    """rows/header for table output, payload for JSON."""
    if args.format == "json":
        print(json.dumps(payload, indent=2))
        return
    if header:
        print("  ".join(header))
    for row in rows:
        print("  ".join(str(c) for c in row))


def cmd_irreps(args):
    labels = irreps(args.n)
    rows = [(format_label(lab), lab.dim) for lab in labels]
    _emit(
        args,
        rows,
        ("irrep", "dim"),
        {"degree": args.n, "irreps": [{"irrep": a, "dim": d} for a, d in rows]},
    )
    return 0


def cmd_multiply(args):
    x = parse_element(args.x, args.n)
    y = parse_element(args.y, args.n)
    z = format_element(multiply(x, y))
    _emit(args, [(z,)], None, {"product": z})
    return 0


def cmd_classes(args):
    classes = conjugacy_classes(args.n)
    rows = [
        (format_element(c.representative), c.size) for c in classes
    ]
    _emit(
        args,
        rows,
        ("representative", "size"),
        {
            "degree": args.n,
            "classes": [{"representative": r, "size": s} for r, s in rows],
        },
    )
    return 0


def _emit_decomposition(args, dec):
    payload = dec.to_json()
    rows = [(t["irrep"], t["mult"]) for t in payload["terms"]]
    rows.append(("multiplicity_free", payload["multiplicity_free"]))
    _emit(args, rows, ("irrep", "mult"), payload)


def cmd_tensor(args):
    a = parse_label(args.label1, args.n)
    b = parse_label(args.label2, args.n)
    f = tensor_character(a, b)
    if args.subgroup is not None:
        f = restrict_character(f, args.subgroup)
    _emit_decomposition(args, decompose(f))
    return 0


def cmd_restrict(args):
    m = args.subgroup if args.subgroup is not None else args.n - 1
    lab = parse_label(args.label, args.n)
    _emit_decomposition(args, decompose(restrict_character(irrep_character(lab), m)))
    return 0


def cmd_gelfand(args):
    m = args.subgroup if args.subgroup is not None else args.n
    report = gelfand_check_characters(args.n, m)
    if args.method in ("convolution", "both"):
        conv = gelfand_check_biinvariant(args.n, m)
        if conv != report.gelfand:
            print("error: character and convolution methods disagree", file=sys.stderr)
            return 1
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
        return 0
    if report.gelfand:
        print(f"{report.pair_name}: Gelfand pair (max multiplicity 1)")
    else:
        w = report.witness
        print(
            f"{report.pair_name}: NOT a Gelfand pair; witness "
            f"({format_label(w.rho1)}, {format_label(w.rho2)}, {format_label(w.theta)}) "
            f"multiplicity {report.witness_multiplicity}"
        )
    return 0


def cmd_orbits(args):
    n = args.n
    if args.pair:
        parts = _split_elements(args.pair)
        if len(parts) != 2:
            raise ValueError("--pair expects two elements, e.g. '+g{1},+g{2}'")
        pair = (parse_element(parts[0], n), parse_element(parts[1], n))
        orb = predicted_orbit(pair, n)
        rows = [
            (format_element(p[0]), format_element(p[1])) for p in orb.members
        ]
        _emit(
            args,
            rows + [("size", orb.size)],
            ("first", "second"),
            {
                "pair": args.pair,
                "size": orb.size,
                "members": [[a, b] for a, b in rows],
            },
        )
        return 0
    orbits = enumerate_pair_orbits(n)
    rows = [
        (
            format_element(o.representative[0]),
            format_element(o.representative[1]),
            o.size,
        )
        for o in orbits
    ]
    _emit(
        args,
        rows,
        ("first", "second", "size"),
        {
            "degree": n,
            "orbit_count": len(orbits),
            "orbits": [{"representative": [a, b], "size": s} for a, b, s in rows],
        },
    )
    return 0


def cmd_spherical(args):
    n = args.n
    lab_parts = _split_elements(args.triple)
    if len(lab_parts) != 3:
        raise ValueError("--triple expects three labels, e.g. 'chi:{1},rho+,rho-'")
    sigma = TripleIrrepLabel(*(parse_label(p, n) for p in lab_parts))
    # element syntax contains commas inside the braces
    elems = _split_elements(args.at)
    if len(elems) != 3:
        raise ValueError("--at expects three elements, e.g. '+g{1},+g{1},+g{1}'")
    g1, g2, h = (parse_element(e, n) for e in elems)
    q = SphericalQuery(sigma, TripleElement(g1, g2, h, n))
    direct = spherical_value(q)
    closed = spherical_closed_form(q)
    if closed.value != direct:
        print(
            f"error: closed form {format_gaussian(closed.value)} (family {closed.family}) "
            f"!= direct summation {format_gaussian(direct)}",
            file=sys.stderr,
        )
        return 1
    _emit(
        args,
        [
            ("value", format_gaussian(direct)),
            ("family", closed.family),
        ],
        None,
        {
            "value": gaussian_to_json(direct),
            "value_str": format_gaussian(direct),
            "family": closed.family,
        },
    )
    return 0


def _split_elements(text):
    """Split '+g{1,2},-g{},+g{1}' on the commas between elements."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur).strip())
    return out


def cmd_verify(args):
    results = verify_mod.run_suite(level=args.level, seed=args.seed)
    ok = all(r.ok for r in results)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "level": args.level,
                    "seed": args.seed,
                    "ok": ok,
                    "checks": [
                        {
                            "id": r.ident,
                            "description": r.description,
                            "ok": r.ok,
                            "detail": r.detail,
                            "seconds": round(r.seconds, 2),
                        }
                        for r in results
                    ],
                },
                indent=2,
            )
        )
    else:
        print(f"verification level: {args.level} (seed {args.seed})")
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            print(
                f"[{status}] {r.ident} {r.description} -- {r.detail} "
                f"({r.seconds:.1f}s)"
            )
        print("all checks passed" if ok else "FAILURES present")
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="cliffharm",
        description="Exact harmonic analysis on the Clifford groups CL(n).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(fn=fn)
        sp.add_argument(
            "--format", choices=("table", "json"), default="table"
        )
        return sp

    sp = add("irreps", cmd_irreps, "list the irreducible representations of CL(n)")
    sp.add_argument("n", type=int)

    sp = add("multiply", cmd_multiply, "multiply two group elements")
    sp.add_argument("n", type=int)
    sp.add_argument("x")
    sp.add_argument("y")

    sp = add("classes", cmd_classes, "list conjugacy classes of CL(n)")
    sp.add_argument("n", type=int)

    sp = add("tensor", cmd_tensor, "decompose a tensor product of irreps")
    sp.add_argument("n", type=int)
    sp.add_argument("label1")
    sp.add_argument("label2")
    sp.add_argument("--subgroup", type=int, default=None,
                    help="restrict the product to CL(m) before decomposing")

    sp = add("restrict", cmd_restrict, "decompose the restriction of an irrep")
    sp.add_argument("n", type=int)
    sp.add_argument("label")
    sp.add_argument("--subgroup", type=int, default=None, help="default n-1")

    sp = add("gelfand", cmd_gelfand, "test the triple-product Gelfand pair")
    sp.add_argument("n", type=int)
    sp.add_argument("--subgroup", type=int, default=None, help="default n")
    sp.add_argument(
        "--method",
        choices=("characters", "convolution", "both"),
        default="characters",
    )

    sp = add("orbits", cmd_orbits, "conjugation orbits on CL(n) x CL(n)")
    sp.add_argument("n", type=int)
    sp.add_argument("--pair", default=None, help="e.g. '+g{1},+g{2}'")

    sp = add("spherical", cmd_spherical, "evaluate a spherical character")
    sp.add_argument("n", type=int)
    sp.add_argument("--triple", required=True, help="e.g. 'chi:{1},rho+,rho-'")
    sp.add_argument("--at", required=True, help="e.g. '+g{1},+g{1},+g{1}'")

    sp = add("verify", cmd_verify, "run the reproduction suite")
    sp.add_argument("--level", choices=verify_mod.LEVELS, default="desk")
    sp.add_argument("--seed", type=int, default=0)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader left early; devnull keeps the shutdown flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, NotACharacterError) as exc:
        # GuardError / DegreeMismatchError subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
