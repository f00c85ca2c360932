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


PARENT = [20.0, 20.4, 19.6, 20.2, 19.8, 20.1, 19.9, 20.3, 19.7, 20.0]


def test_verdict_gain_on_nine_wins_in_ten_and_a_gap_beyond_the_spread():
    # higher is better; the change wins 9 pairs and loses the last, and
    # its median is 20% above the parent's, whose quartiles span 0.5
    change = [24.0, 24.5, 23.5, 24.2, 23.8, 24.1, 23.9, 24.3, 23.7, 19.0]
    assert _verdict(PARENT, change, "higher", 0.15) == "gain"
    # lower is better: the mirror image
    assert _verdict(PARENT, [2 * 20.0 - c for c in change], "lower", 0.15) == "gain"


def test_verdict_no_gain_on_eight_wins_in_ten():
    # a tie counts for neither side, so 8 wins, 1 tie and 1 loss is no gain
    change = [24.0, 24.5, 23.5, 24.2, 23.8, 24.1, 23.9, 24.3, 19.7, 19.0]
    assert _verdict(PARENT, change, "higher", 0.15) == "ok"


def test_verdict_no_gain_within_the_parent_spread():
    # every pair won, but by less than the parent's interquartile spread
    change = [c + 0.2 for c in PARENT]
    assert _verdict(PARENT, change, "higher", 0.15) == "ok"
    # a wide parent spread swallows a 10% gap too
    wide = [16.0, 24.0, 17.0, 23.0, 18.0, 22.0, 19.0, 21.0, 15.0, 25.0]
    assert _verdict(wide, [c * 1.1 for c in wide], "higher", 0.15) == "unresolved"


def test_verdict_no_gain_on_fewer_than_ten_pairs():
    change = [24.0, 24.5, 23.5, 24.2, 23.8, 24.1, 23.9, 24.3, 23.7]
    assert _verdict(PARENT[:9], change, "higher", 0.15) == "ok"
    assert _verdict(PARENT, change + [24.0], "higher", 0.15) == "gain"


def _traced(builds, checks, ms):
    return {"result": {"metrics": {"index.builds": {"value": builds, "unit": "count"},
                                   "rings.checks": {"value": checks, "unit": "count"},
                                   "index.self_ms": {"value": ms, "unit": "ms"}}}}


def test_summary_lists_the_trace_counts_that_differ():
    record = {"runs": [_run(0, "parent", 5.0, True), _run(0, "change", 6.0, True)],
              "trace_sweep": {"parent": _traced(5509.0, 5584.0, 51.1),
                              "change": _traced(1838.0, 5584.0, 20.3)}}
    bench = {"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.15}]}
    lines = _summary()(record, bench)
    # a count that moved is listed; an equal count and a time are not
    assert lines[3:] == ["sweep     trace       index.builds 5509 -> 1838"]
