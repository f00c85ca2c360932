"""The pairs table of ``tools/bench_pairs.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _summary():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.summary


def _run(pair, side, ops, correct):
    return {"workload": "sweep", "pair": pair, "side": side,
            "result": {"correct": correct, "attempted": 10, "failed": 1 - correct,
                       "metrics": {"ops_per_s": {"value": ops}}}}


def test_summary_reports_incorrect_runs_per_side():
    record = {"runs": [_run(0, "parent", 5.0, True), _run(0, "change", 6.0, False),
                       _run(1, "change", 6.5, True), _run(1, "parent", 5.5, True)]}
    bench = {"end_to_end": [{"name": "ops_per_s", "better": "higher"}]}
    lines = _summary()(record, bench)
    assert lines[0].startswith("sweep     ops_per_s") and lines[0].endswith("won 2/2")
    assert lines[1] == "sweep     failed      parent 0/20  change 1/20"
    assert lines[2] == "sweep     incorrect   parent 0/2 runs  change 1/2 runs"
