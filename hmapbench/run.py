"""Benchmark of ``hmap``, stdlib only.

    python3 hmapbench/run.py --workload {sweep,fuzz,large,construct} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each workload runs in fresh,
single-threaded worker processes (``worker.py``).  Times are reported in
reference seconds, which cancel the drift of the host's CPU speed (see
``worker.Clock``); the wall-clock figures are printed before the result.  With ``--trace 0`` the
set-up is made ``SETUP_RUNS`` times, each in its own process, and the last
of those processes also runs the timed phase; the last line of standard
output is a JSON object with the end-to-end metrics.  With ``--trace 1`` one
worker runs the workload's fixed trace rounds under the tracer and the
JSON object holds the per-layer metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
DEADLINE_S = 170


def _worker(mode: str, args, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--out-dir", str(HERE / "out")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"error: {mode} worker for {args.workload} timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {mode} worker for {args.workload} exited "
                 f"{proc.returncode}")
    return json.loads(lines[-1])


def _tail(latencies: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    for p in (99.9, 99.0, 90.0, 75.0):
        if n >= 40 and n * (1 - p / 100) >= 10:
            v = sorted(latencies)[math.ceil(p / 100 * n) - 1]
            return f"p{p:g}={v * 1000:.3f}ms (n={n})"
    return f"no tail (n={n} < 40)"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep", "fuzz", "large", "construct"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    if not (ROOT / "src" / "hmap" / "__init__.py").is_file():
        print(f"error: no hmap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # compile bytecode first, so that set-up times measure imports, not compiles
    for d in (ROOT / "src", HERE):
        if not compileall.compile_dir(d, quiet=1):
            print(f"error: cannot compile {d}", file=sys.stderr)
            return 2
    (HERE / "out").mkdir(exist_ok=True)

    if args.trace:
        res = _worker("trace", args, deadline)
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in sorted(res["layers"].items())}
        print(f"{args.workload}: traced {len(res['latencies'])} ops, "
              f"{res['spans']} spans in {res['trace_file']}")
    else:
        setups = [_worker("setup", args, deadline) for _ in range(SETUP_RUNS - 1)]
        res = _worker("time", args, deadline)
        setups.append(res)
        lat, ref_lat = res["latencies"], res["ref_latencies"]
        if not lat:
            sys.exit(f"error: no {args.workload} op completed: {res['failures']}")
        metrics = {
            "setup_s": {"value": statistics.median(s["ref_setup_s"] for s in setups),
                        "unit": "s"},
            "ops_per_s": {"value": len(lat) / res["ref_elapsed"], "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(ref_lat) * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"{args.workload}: {len(lat)} ops in {res['rounds']} rounds, "
              f"{res['elapsed']:.2f}s; tail {_tail(ref_lat)}")
        print(f"{args.workload}: wall clock: setup_s="
              f"{statistics.median(s['setup_s'] for s in setups):.4f} "
              f"ops_per_s={len(lat) / res['elapsed']:.3f} "
              f"op_p50_ms={statistics.median(lat) * 1000:.3f}; reference seconds "
              f"per wall second {res['ref_elapsed'] / res['elapsed']:.3f}")
    failed = sum(res["failures"].values())
    for what, n in sorted(res["failures"].items()):
        print(f"{args.workload}: failed {n}x {what}")
    for err in res["errors"]:
        print(f"{args.workload}: CHECK FAILED {err}")
    print(json.dumps({"correct": res["n_errors"] == 0,
                      "attempted": res["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
