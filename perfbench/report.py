"""Print or compare benchmark records written by `run.py --out FILE`.

    python3 perfbench/report.py show FILE
    python3 perfbench/report.py compare BASE FILE

`show` prints each record's environment and every metric by name and unit.
`compare` groups the records of each file by workload and prints, for each
metric, the median and quartiles of BASE and of FILE and the ratio of the
medians (FILE / BASE).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summary(values):
    """(median, first quartile, third quartile) as statistics gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def show(records, out=sys.stdout):
    for rec in records:
        env = rec["env"]
        print(
            f"{env['workload']} seed={env['seed']} trace={env['trace']} "
            f"sha={env['git_sha']} python={env['python']} numpy={env['numpy']} "
            f"nproc={env['nproc']} passes={env['passes']} "
            f"correct={rec['correct']} attempted={rec['attempted']} failed={rec['failed']}",
            file=out,
        )
        for name, m in rec["metrics"].items():
            print(f"  {name:48s} {m['value']:.6g} {m['unit']}", file=out)


def _by_workload(records):
    """workload -> metric -> (unit, [values])"""
    out = defaultdict(dict)
    for rec in records:
        for name, m in rec["metrics"].items():
            unit_values = out[rec["env"]["workload"]].setdefault(name, (m["unit"], []))
            unit_values[1].append(m["value"])
    return out


def _cell(s):
    return "-" if s is None else f"{s[0]:.6g} [{s[1]:.6g}, {s[2]:.6g}]"


def compare(base, new, out=sys.stdout):
    a, b = _by_workload(base), _by_workload(new)
    for workload in sorted(set(a) | set(b)):
        print(f"{workload}: median [q1, q3] of base -> new, ratio new/base", file=out)
        ma, mb = a.get(workload, {}), b.get(workload, {})
        for name in list(ma) + [n for n in mb if n not in ma]:
            unit = (ma.get(name) or mb.get(name))[0]
            sa = summary(ma[name][1]) if name in ma else None
            sb = summary(mb[name][1]) if name in mb else None
            ratio = f"{sb[0] / sa[0]:.3f}" if sa and sb and sa[0] else "-"
            print(f"  {name:48s} {unit:6s} {_cell(sa)} -> {_cell(sb)}  x{ratio}", file=out)


def main(argv=None):
    p = argparse.ArgumentParser(description="show or compare benchmark records")
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("show")
    s.add_argument("file")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("file")
    args = p.parse_args(argv)
    if args.cmd == "show":
        show(load(args.file))
    else:
        compare(load(args.base), load(args.file))
    return 0


if __name__ == "__main__":
    sys.exit(main())
