"""Alternating benchmark pairs of two checkouts, recorded as one JSON file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json

PARENT_DIR and CHANGE_DIR are two source checkouts, each with its own
``hmapbench/`` and ``src/``; make them fresh (``git clone``, or
``git archive`` unpacked) so that neither holds stray build output.  For
each workload of ``BENCHMARK.json``, pair ``i`` (of ``PAIRS``) runs
``hmapbench/run.py --trace 0`` once in each checkout, with seed
``FIRST_SEED + i`` and the run length of ``BENCHMARK.json``; even pairs
run the parent first and odd pairs the change first, so a drift of the
host's speed falls on both sides alike.  Each workload then gets one
traced run per side (``--trace 1 --seed 1 --seconds 2``), whose
per-layer counts repeat exactly for a given seed.

The output has the shape of the ``BENCH_*.json`` files at the root of
the repository: ``runs`` holds every run with the last JSON line it
printed as ``result``, and ``trace_<workload>`` one traced run per side.
The file is rewritten after every run, so an interrupted session keeps
the pairs it finished.  A table of medians, quartiles, pairs won and a
verdict on each metric's ``bound`` goes to standard output at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10  # the fewest pairs on which a gain can be claimed
FIRST_SEED = 1601


def _bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result object of one ``run.py`` call in ``checkout``."""
    cmd = [sys.executable, "hmapbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                 f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def _revision(checkout: Path) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _verdict(parent: list[float], change: list[float], lower: bool, bound: float) -> str:
    """``worse than bound`` when the change's median is worse than the
    parent's by more than ``bound``, a fraction of the parent's median;
    else ``unresolved`` when the parent's interquartile spread exceeds
    that fraction and not every change run beats every parent run; else
    ``ok``."""
    (pq1, pm, pq3), cm = _quartiles(parent), statistics.median(change)
    if (cm - pm if lower else pm - cm) > bound * pm:
        return "worse than bound"
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if pq3 - pq1 > bound * pm and not beats_all:
        return "unresolved"
    return "ok"


def summary(record: dict, bench: dict) -> list[str]:
    """One line per workload and end-to-end metric: each side's median
    and quartiles, the change of the median, the pairs the change won and
    the verdict on the metric's bound; then per workload the failed ops
    and the incorrect runs of each side."""
    lines = []
    rules = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    for w in dict.fromkeys(r["workload"] for r in record["runs"]):
        pairs: dict[int, dict[str, dict]] = {}
        for r in record["runs"]:
            if r["workload"] == w:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        full = [p for p in pairs.values() if len(p) == 2]
        if not full:
            continue
        for name, (sign, bound) in rules.items():
            vals = {s: [p[s]["metrics"][name]["value"] for p in full] for s in SIDES}
            (pq1, pm, pq3), (cq1, cm, cq3) = (_quartiles(vals[s]) for s in SIDES)
            wins = sum((c < p) if sign == "lower" else (c > p)
                       for p, c in zip(vals["parent"], vals["change"]))
            lines.append(
                f"{w:9s} {name:11s} parent {pm:.4g} [{pq1:.4g}, {pq3:.4g}]  "
                f"change {cm:.4g} [{cq1:.4g}, {cq3:.4g}]  "
                f"{(cm - pm) / pm:+.1%}  won {wins}/{len(full)}  "
                f"{_verdict(vals['parent'], vals['change'], sign == 'lower', bound)}")
        failed = {s: sum(p[s]["failed"] for p in full) for s in SIDES}
        attempted = {s: sum(p[s]["attempted"] for p in full) for s in SIDES}
        lines.append(f"{w:9s} failed      parent {failed['parent']}/{attempted['parent']}  "
                     f"change {failed['change']}/{attempted['change']}")
        wrong = {s: sum(not p[s]["correct"] for p in full) for s in SIDES}
        lines.append(f"{w:9s} incorrect   parent {wrong['parent']}/{len(full)} runs  "
                     f"change {wrong['change']}/{len(full)} runs")
    return lines


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_dir", type=Path)
    p.add_argument("change_dir", type=Path)
    p.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    args = p.parse_args()

    dirs = dict(zip(SIDES, (args.parent_dir.resolve(), args.change_dir.resolve())))
    for side, d in dirs.items():
        if not (d / "hmapbench" / "run.py").is_file():
            p.error(f"{side} checkout {d} has no hmapbench/run.py")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    record = {
        "description": (
            f"Alternating pairs of {seconds} s benchmark runs (python3 hmapbench/run.py "
            f"--workload W --seed S --seconds {seconds} --trace 0) of the parent and of "
            f"the change, each from its own checkout; 'result' is the last JSON line a "
            f"run printed. Even pairs run the parent first, odd pairs the change; "
            f"{PAIRS} pairs per workload, pair i with seed {FIRST_SEED} + i. Each "
            f"'trace_<workload>' entry holds one traced run (--trace 1 --seed 1 "
            f"--seconds 2) of each side. Written by tools/bench_pairs.py."),
        "parent": _revision(dirs["parent"]),
        "change": _revision(dirs["change"]),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "runs": [],
    }

    def save() -> None:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for w in workloads:
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                t0 = time.monotonic()
                result = _bench(dirs[side], w, seed, seconds, 0)
                record["runs"].append({"workload": w, "pair": i, "seed": seed,
                                       "side": side, "result": result})
                save()
                ops = result["metrics"]["ops_per_s"]["value"]
                print(f"{w} pair {i} {side}: ops_per_s={ops:.4g} "
                      f"({time.monotonic() - t0:.0f} s)", flush=True)
    for w in workloads:
        record[f"trace_{w}"] = {side: {"workload": w, "seed": 1,
                                       "result": _bench(dirs[side], w, 1, 2, 1)}
                                for side in SIDES}
        save()
        print(f"{w} traced on both sides", flush=True)
    print("\n".join(summary(record, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
