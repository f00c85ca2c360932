"""Run one workload in this process and print its figures as one JSON line.

Modes:
  setup  make the inputs and report the set-up time only;
  time   set up, run whole rounds until ``--seconds`` have passed, check;
  trace  set up, run the workload's fixed trace rounds once untraced and
         once under the tracer, check, and report per-layer metrics.

Times are kept both in wall seconds and in reference seconds (see
``Clock``).  ``run.py`` starts this script; it is not meant to be run by
hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import refcount  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# rounds run by a traced run; fixed so that its per-op counts repeat exactly
TRACE_ROUNDS = {"sweep": 2, "fuzz": 20, "construct": 20, "large": 1}


class Clock:
    """Converts wall seconds into reference seconds.

    The CPU speed of a shared host drifts by tens of percent over minutes,
    which would swamp any change to ``hmap``.  So after each timed piece of
    work the clock runs a fixed pure-Python task that shares no code with
    ``hmap`` (the reference counter on a fixed 300-dart map) for a tenth
    as long, and measures the current rate in task units per second.  A
    reference second is the time ``REF_RATE`` units take; a piece of work
    takes its wall time times the rate measured right after it, over
    ``REF_RATE``, in reference seconds.
    """

    REF_RATE = 2000.0
    SHARE = 0.1
    N = 300
    STEPS = ([("i", d) for d in range(1, N + 1)]
             + [("l", 0, x, x + 1) for x in range(1, N) if x % 4]
             + [("l", 1, x, x + 7) for x in range(1, N - 6) if x % 3])

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0

    def factor(self, wall: float) -> float:
        """Calibrate for ``SHARE`` of ``wall`` seconds (one unit at least)
        and return the reference seconds per wall second just measured."""
        t0 = time.perf_counter()
        n = 0
        while True:
            refcount.count(self.STEPS)
            n += 1
            spent = time.perf_counter() - t0
            if spent >= self.SHARE * wall:
                break
        self.units += n
        self.seconds += spent
        return n / spent / self.REF_RATE

    def mean_factor(self) -> float:
        return self.units / self.seconds / self.REF_RATE


def run_rounds(wl, *, seconds: float | None = None, rounds: int | None = None):
    """Run whole rounds until ``seconds`` of op time have passed or
    ``rounds`` are done.  Calibration time is not counted as op time."""
    clock = Clock()
    latencies: list[float] = []
    ref_latencies: list[float] = []
    failures: Counter = Counter()
    attempted = 0
    busy = ref_busy = 0.0
    r = 0
    t0 = time.perf_counter()
    while True:
        for label, op in wl.round(r):
            attempted += 1
            t = time.perf_counter()
            try:
                out = op()
                ok = True
            except Exception as exc:  # a failed op is counted, not fatal
                failures[f"{label.split(':')[0]}: {type(exc).__name__}"] += 1
                ok = False
            dt = time.perf_counter() - t
            ref_dt = dt * clock.factor(dt)
            busy += dt
            ref_busy += ref_dt
            if ok:
                latencies.append(dt)
                ref_latencies.append(ref_dt)
                wl.record(r, label, out)
        r += 1
        if rounds is not None and r >= rounds:
            break
        if seconds is not None and time.perf_counter() - t0 - clock.seconds >= seconds:
            break
    elapsed = time.perf_counter() - t0 - clock.seconds
    return {"latencies": latencies, "ref_latencies": ref_latencies,
            "attempted": attempted, "busy": busy, "ref_busy": ref_busy,
            "failures": dict(failures), "elapsed": elapsed,
            "ref_elapsed": elapsed * clock.mean_factor(), "rounds": r}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--mode", required=True, choices=("setup", "time", "trace"))
    p.add_argument("--out-dir", required=True)
    args = p.parse_args()

    wl = WORKLOADS[args.workload]()
    out_dir = Path(args.out_dir)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        t0 = time.perf_counter()
        wl.setup(args.seed, Path(workdir))
        setup_s = time.perf_counter() - t0
        result: dict = {"setup_s": setup_s,
                        "ref_setup_s": setup_s * Clock().factor(max(setup_s, 0.5))}
        if args.mode == "time":
            run = run_rounds(wl, seconds=args.seconds)
            result["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        elif args.mode == "trace":
            n = TRACE_ROUNDS[args.workload]
            plain = run_rounds(wl, rounds=n)
            tracer = Tracer()
            tracer.install()
            try:
                run = run_rounds(wl, rounds=n)
            finally:
                tracer.uninstall()
            layers = tracer.metrics(run["attempted"], run["busy"],
                                    run["ref_busy"] / run["busy"])
            layers["trace.overhead_pct"] = (
                (run["ref_busy"] / plain["ref_busy"] - 1) * 100, "%")
            measure = getattr(wl, "index_bytes_per_dart", None)
            layers["index.bytes_per_dart"] = (measure() if measure else 0.0, "B")
            trace_path = out_dir / f"trace-{args.workload}-{args.seed}.tsv.gz"
            tracer.write(trace_path)
            result["layers"] = layers
            result["trace_file"] = str(trace_path)
            result["spans"] = len(tracer.start)
        if args.mode != "setup":
            errors = wl.check()
            result.update(run, errors=errors[:20], n_errors=len(errors))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
