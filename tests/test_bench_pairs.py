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
    bench = {"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.15}]}
    lines = _summary()(record, bench)
    assert lines[0].startswith("sweep     ops_per_s") and lines[0].endswith("won 2/2  ok")
    assert lines[1] == "sweep     failed      parent 0/20  change 1/20"
    assert lines[2] == "sweep     incorrect   parent 0/2 runs  change 1/2 runs"


def _verdict(parent, change, better="lower", bound=0.1):
    runs = [_run(i, side, ops, True)
            for i, pair in enumerate(zip(parent, change))
            for side, ops in zip(("parent", "change"), pair)]
    bench = {"end_to_end": [{"name": "ops_per_s", "better": better, "bound": bound}]}
    return _summary()({"runs": runs}, bench)[0].rsplit("  ", 1)[1]


def test_verdict_ok_within_the_bound_and_a_tight_spread():
    # the change's median is 5% worse, inside the bound of 10%
    assert _verdict([10.0, 10.1, 9.9, 10.0], [10.5, 10.4, 10.6, 10.5]) == "ok"


def test_verdict_worse_than_bound():
    # lower is better, and the change's median is 20% above the parent's
    assert _verdict([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0]) == "worse than bound"
    assert _verdict([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "higher") == "worse than bound"


def test_verdict_unresolved_on_a_wide_parent_spread():
    # the parent's quartiles span far more than 10% of its median, and one
    # change run is no better than the best parent run
    parent = [8.0, 12.0, 9.0, 11.0]
    assert _verdict(parent, [9.5, 10.0, 10.5, 7.5]) == "unresolved"
    # a change that beats every parent run is resolved despite the spread
    assert _verdict(parent, [7.0, 7.5, 7.2, 7.1]) == "ok"
