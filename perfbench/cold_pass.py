"""One cold pass of one workload, in the process that runs this file.

    python3 perfbench/cold_pass.py --root CHECKOUT --workload NAME --seed N --trace 0|1

Imports the library from CHECKOUT/src, so every lru_cache starts empty, runs
every op of the workload once and prints one JSON line: the pass wall time,
each op's latency, ops attempted and failed, peak RSS, and with --trace 1
the per-layer stats.  `run.py` starts one such process per pass.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import CACHED  # noqa: E402
from tracing import NULL_TRACER, Tracer, cache_stats, instrumented  # noqa: E402
from workloads import WORKLOADS, run_op  # noqa: E402

LAYERS = ("elements", "characters", "gelfand", "linalg", "matrix_models", "orbits")
MAX_FAILURES_KEPT = 5


class LibraryNotFound(RuntimeError):
    pass


def load_library(root):
    """The library modules of the checkout at `root`, not an installed copy."""
    src = (Path(root) / "src").resolve()
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"cliffharm.{name}") for name in LAYERS}
    pkg = sys.modules["cliffharm"]
    if Path(pkg.__file__).resolve().parent != src / "cliffharm":
        raise LibraryNotFound(f"cliffharm imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(**mods)


def run_pass(specs, lib, tr=NULL_TRACER):
    """Run every op, timing each; a mismatch or an exception is one failure."""
    latencies = []
    failures = []
    t_start = perf_counter()
    for spec in specs:
        t0 = perf_counter()
        try:
            err = run_op(spec, lib, tr)
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            err = traceback.format_exc(limit=3).strip().splitlines()[-1]
        latencies.append((perf_counter() - t0) * 1e3)
        if err is not None:
            failures.append(f"{spec!r}: {err}")
    wall_s = perf_counter() - t_start
    return {
        "wall_s": wall_s,
        "latencies_ms": latencies,
        "attempted": len(specs),
        "failed": len(failures),
        "failures": failures[:MAX_FAILURES_KEPT],
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        lib = load_library(args.root)
    except (ImportError, LibraryNotFound) as exc:
        print(f"cold_pass: cannot load the library: {exc}", file=sys.stderr)
        return 2
    import numpy

    specs = WORKLOADS[args.workload](args.seed)
    if args.trace:
        tr = Tracer()
        with instrumented(tr, lib):
            out = run_pass(specs, lib, tr)
        stats = dict(tr.stats)
        stats.update(cache_stats(lib, CACHED))
        stats["trace.span_coverage"] = tr.covered_s / out["wall_s"]
        out["stats"] = stats
    else:
        out = run_pass(specs, lib)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["python"] = sys.version.split()[0]
    out["numpy"] = numpy.__version__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
