"""The benchmark's tracer still wraps, counts and unwraps ``hmap``.

``hmapbench/tracer.py`` wraps ``hmap`` from outside by name: every public
function of the modules it lists (``hmap.unionfind`` among them), every
public method of ``HypermapIndex`` and ``IncrementalMap``, and a hook on
``HypermapIndex.__init__`` that reads the new index's ``darts``.  A
refactor of ``hmap`` can break ``run.py --trace 1`` without any other
test noticing; this runs the tracer on one small sweep.
"""

import importlib
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "hmapbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import hmap  # noqa: E402
from hmap.index import HypermapIndex  # noqa: E402
from hmap.stats import IncrementalMap  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402


def _bindings() -> dict[tuple[int, str], object]:
    owners = [hmap, HypermapIndex, IncrementalMap,
              *(importlib.import_module(f"hmap.{name}") for name in MODULES)]
    return {(id(owner), name): obj
            for owner in owners for name, obj in vars(owner).items()}


def test_tracer_counts_a_sweep_and_restores_hmap():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert hmap.exhaustive_jordan is not before[(id(hmap), "exhaustive_jordan")]
        t0 = time.perf_counter()
        report = hmap.exhaustive_jordan(3, 3)
        busy = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    after = _bindings()

    assert report.passed and report.maps_seen == 180
    metrics = tracer.metrics(1, busy, 1.0)
    # one index per 0-system and 1-closure, 1 + 1 + 3 * 2 + 13 * 6; the
    # planar ones are searched and their rings checked once
    spans = Counter(tracer.names[nid] for nid in tracer.span_name)
    assert metrics["index.builds"][0] == 86
    assert (spans["candidate_rings"], metrics["rings.checks"][0]) == (80, 88)
    assert "HypermapIndex.recut" not in spans
    # each map recounts every ring of its pair on its own term, and the
    # law check builds no broken term
    assert spans["count_components"] == report.rings_checked == 136
    assert metrics["rings.breaks"][0] == 0
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())


def test_tracer_sees_every_link_attempt_of_the_generator():
    # an attempt is one IncrementalMap.link_violation; a generator that
    # skipped it would read an accept ratio of 0 or 1
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        hmap.fuzz_jordan(5, 1, 20)
        busy = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1, busy, 1.0)
    assert metrics["stats.link_attempts"][0] > 0
    assert 0 < metrics["stats.link_accept_ratio"][0] < 1
    # fuzz_jordan builds its maps through the public generator, whose
    # span the tracer times
    assert metrics["jordan.generate_ms"][0] > 0
