"""cliffharm benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

The checkout is the parent directory of perfbench/.  Workloads:
intertwiner, exhaustive, sampled-queries (see workloads.py).  Every pass is a
fresh interpreter with empty caches, as a `cliffharm verify` user pays on
every invocation; within a pass one caller and one thread run the ops in a
closed loop, each op starting when the previous one ends.

The run first times SETUP_SAMPLES fresh interpreters importing `cliffharm`
and `cliffharm.cli` (setup_s is their median), then runs cold passes until S
seconds have passed, one stream of passes per CPU (at most STREAMS).  The
speed of each CPU drifts independently on shared machines, so pooling the
streams narrows the spread of the run's medians.  With --trace 0 the run
reports the end-to-end metrics: median pass wall time, median peak RSS, and
the median and p95 of the op latencies pooled over the passes.  With
--trace 1 each stream alternates untraced and traced passes, and the run
reports the per-layer metrics (medians over the traced passes) plus the
tracing overhead.

Every op checks its answer exactly; mismatches and exceptions are counted as
failed and the run goes on.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; --out FILE also appends the
whole record, environment included, as one JSON line that report.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
STREAMS = 2  # concurrent passes, one per CPU; each pass is single-threaded
SETUP_TIMEOUT_S = 60
PASS_TIMEOUT_S = 150
FAILURES_KEPT = 5


class BenchError(RuntimeError):
    pass


def git_sha(root):
    """HEAD's commit from the .git directory, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _run(cmd, env, root, timeout):
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:3]} exceeded {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def setup_seconds(env, root):
    """Wall time of fresh interpreters importing the package and its CLI."""
    cmd = [sys.executable, "-c", "import cliffharm, cliffharm.cli"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        _run(cmd, env, root, SETUP_TIMEOUT_S)
        samples.append(perf_counter() - t0)
    return samples


def cold_pass(env, root, workload, seed, traced):
    cmd = [
        sys.executable, str(HERE / "cold_pass.py"), "--root", str(root),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
    ]
    out = _run(cmd, env, root, PASS_TIMEOUT_S)
    return json.loads(out.strip().splitlines()[-1])


def quantile(values, q):
    """The q-th percentile (1..99) as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(untraced, setup):
    latencies = [x for p in untraced for x in p["latencies_ms"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "op_p50_ms": quantile(latencies, 50),
        "op_p95_ms": quantile(latencies, 95),
    }


def per_layer(untraced, traced):
    out = {
        name: statistics.median(p["stats"].get(name, 0.0) for p in traced)
        for name in PER_LAYER
        if name != "trace.overhead_s"
    }
    out["trace.overhead_s"] = statistics.median(
        p["wall_s"] for p in traced
    ) - statistics.median(p["wall_s"] for p in untraced)
    return out


def run(workload, seed, seconds, trace, root):
    if not (root / "src" / "cliffharm" / "__init__.py").is_file():
        raise BenchError(f"no library source at {root / 'src' / 'cliffharm'}")
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    _run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], env, root, 120)
    expected_ops = len(WORKLOADS[workload](seed))

    n_cpus = len(os.sched_getaffinity(0))
    n_streams = min(STREAMS, n_cpus)
    # every stream runs a pass of each kind it alternates between, and a run
    # pools at least two untraced passes of op latencies
    min_passes = 2 if trace or n_streams == 1 else 1

    def stream(k):
        """Passes until time is up; with tracing, every other pass is traced."""
        out = []  # (traced, pass result)
        while len(out) < min_passes or perf_counter() < t_end:
            traced = bool(trace) and (len(out) + k) % 2 == 1
            out.append((traced, cold_pass(env, root, workload, seed, traced)))
        return out

    setup = setup_seconds(env, root)
    t_end = perf_counter() + seconds
    with ThreadPoolExecutor(n_streams) as pool:
        futures = [pool.submit(stream, k) for k in range(n_streams)]
        passes = [p for f in futures for p in f.result()]
    untraced = [p for t, p in passes if not t]
    traced = [p for t, p in passes if t]

    attempted = sum(p["attempted"] for _, p in passes)
    failed = sum(p["failed"] for _, p in passes)
    metrics = per_layer(untraced, traced) if trace else end_to_end(untraced, setup)
    units = PER_LAYER if trace else END_TO_END
    env_record = {
        "git_sha": git_sha(root),
        "python": untraced[0]["python"],
        "numpy": untraced[0]["numpy"],
        "nproc": n_cpus,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(passes),
        "streams": n_streams,
        "ops_per_pass": expected_ops,
    }
    return {
        "correct": failed == 0
        and all(p["attempted"] == expected_ops for _, p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "env": env_record,
        "failures": [f for _, p in passes for f in p["failures"]][:FAILURES_KEPT],
        "setup_samples_s": setup,
        "pass_wall_s": [[t, p["wall_s"]] for t, p in passes],
    }


def main(argv=None):
    p = argparse.ArgumentParser(description="cliffharm benchmark runner")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full record to this JSON-lines file")
    args = p.parse_args(argv)

    try:
        record = run(args.workload, args.seed, args.seconds, args.trace, HERE.parent)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"env": record["env"]}))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for name, m in record["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
