"""Release checklist, one gate per test.

Every gate runs at full stated scale, appends one [PASS]/[FAIL] line to
RESULTS, and asserts.  conftest echoes RESULTS in the terminal summary
so the checklist is visible even under pytest's output capture.
"""

import random
import time

from hmap import (
    NIL,
    Dim,
    Link,
    OrbitKind,
    RingItem,
    bottom,
    break_disconnects,
    break_link,
    build_index,
    check_euler_formula,
    check_genus_theorem,
    check_ring,
    closed_face_successor,
    closed_predecessor,
    closed_successor,
    counts,
    counts_incremental,
    exhaustive_jordan,
    face_predecessor,
    face_successor,
    fuzz_jordan,
    has_dart,
    has_predecessor,
    has_successor,
    jordan_check,
    orbit,
    parse_map,
    planar_after_link,
    planar_from_break,
    predecessor,
    random_map,
    random_planar_map,
    same_component,
    same_face,
    serialize_map,
    successor,
    top,
)
from hmap.cli import run_cli

from conftest import (
    build_digon,
    build_fixture15,
    build_torus_quad,
    build_two_dart_edge,
)

RESULTS: list[str] = []

d0 = Dim.zero
d1 = Dim.one


def record(ok: bool, label: str) -> None:
    RESULTS.append(("[PASS] " if ok else "[FAIL] ") + label)
    assert ok, label


def test_01_golden_fixture_observations():
    t0 = time.perf_counter()
    m = build_fixture15()
    idx = build_index(m)
    s = idx.stats
    ok = (s.n_darts, s.n_edges, s.n_vertices, s.n_faces, s.n_components,
          s.euler_characteristic, s.genus, s.planar) == (15, 7, 6, 6, 3, 4, 1, False)

    ok &= set(orbit(m, OrbitKind.edge, 3).members) == {3, 5, 4}
    ok &= set(orbit(m, OrbitKind.vertex, 3).members) == {3, 4, 1, 2}
    ok &= set(orbit(m, OrbitKind.face, 8).members) == {8, 10}
    ok &= orbit(m, OrbitKind.face, 13).members == (13,)
    ok &= orbit(m, OrbitKind.face, 1).members == (1, 5, 2, 11, 12, 7, 6, 4, 9)

    ok &= successor(m, d0, 4) == 3
    ok &= successor(m, d0, 5) == NIL
    ok &= predecessor(m, d1, 2) == 1
    ok &= top(m, d1, 1) == 3
    ok &= bottom(m, d1, 1) == 4
    ok &= closed_successor(m, d1, 3) == 4
    ok &= closed_predecessor(m, d1, 4) == 3
    ok &= face_successor(m, 1) == NIL
    ok &= closed_face_successor(m, 1) == 5
    ok &= same_face(idx, 1, 5)
    ok &= not same_face(idx, 5, 3)
    ok &= same_component(idx, 1, 5)
    ok &= not same_component(idx, 1, 13)

    dt = time.perf_counter() - t0
    record(ok and dt < 1.0,
           f"golden 15-dart fixture: stats, orbits, pointwise values ({dt:.2f}s)")


def test_02_genus_bounds_random():
    t0 = time.perf_counter()
    master = random.Random(20260301)
    failures = 0
    for _ in range(10_000):
        n = master.randint(0, 64)
        attempts = master.randint(0, 2 * n) if n else 0
        m = random_map(master.getrandbits(32), n, attempts)
        if not check_genus_theorem(m).passed:
            failures += 1
    dt = time.perf_counter() - t0
    record(failures == 0 and dt < 60,
           f"genus bounds on 10000 random maps up to 64 darts: "
           f"{failures} failures ({dt:.1f}s)")


def test_03_euler_formula_random_planar():
    t0 = time.perf_counter()
    master = random.Random(20260302)
    failures = 0
    connected = 0
    for _ in range(5_000):
        n = master.randint(1, 32)
        links = master.randint(0, 2 * n)
        m = random_planar_map(master.getrandbits(32), n, links)
        report = check_genus_theorem(m)  # planarity is a prerequisite below
        rep = check_euler_formula(m)
        if not (report.passed and rep.passed):
            failures += 1
        if rep.stats.n_components == 1:
            connected += 1
    dt = time.perf_counter() - t0
    record(failures == 0 and connected > 0 and dt < 60,
           f"euler formula on 5000 generated planar maps "
           f"({connected} connected): {failures} failures ({dt:.1f}s)")


def test_04_criterion_equivalence_exhaustive():
    from hmap.index import count_components
    from hmap.jordan import enumerate_maps

    t0 = time.perf_counter()
    maps = link_pairs = break_points = disconnect_points = mismatches = 0
    for m in enumerate_maps(5):
        maps += 1
        idx = build_index(m)
        planar = idx.stats.planar
        nc = idx.stats.n_components
        succ0 = idx.chains[0].succ
        pred0 = set(succ0.values())  # the darts with an explicit 0-predecessor
        clos0 = idx.closure[0]
        for x in idx.darts:
            if x in succ0:
                continue
            for y in idx.darts:
                if y in pred0 or clos0[x] == y:
                    continue
                link_pairs += 1
                predicted = planar_after_link(idx, d0, x, y)
                actual = build_index(Link(m, d0, x, y)).stats.planar
                if predicted != actual:
                    mismatches += 1
        for x in succ0:
            break_points += 1
            if planar_from_break(idx, d0, x) != planar:
                mismatches += 1
        if planar:
            for x in succ0:
                disconnect_points += 1
                actually_splits = count_components(break_link(m, d0, x)) == nc + 1
                if break_disconnects(idx, x) != actually_splits:
                    mismatches += 1
    dt = time.perf_counter() - t0
    # all well-formed maps on <= 5 darts, one per link structure:
    # sum of squared path-system counts
    expected_maps = sum(c * c for c in (1, 1, 3, 13, 73, 501))
    record(mismatches == 0 and maps == expected_maps and dt < 600,
           f"link/break/disconnect criteria vs enumerated genus, "
           f"exhaustive on {maps} maps up to 5 darts "
           f"({link_pairs} link pairs, {break_points} breaks, "
           f"{disconnect_points} disconnect points): "
           f"{mismatches} mismatches ({dt:.1f}s)")


def test_05_ring_break_exhaustive():
    t0 = time.perf_counter()
    report = exhaustive_jordan(5, 3)
    dt = time.perf_counter() - t0
    expected_maps = sum(c * c for c in (1, 1, 3, 13, 73, 501))
    record(report.passed and report.maps_seen == expected_maps
           and report.rings_checked > 0
           and report.rings_by_length == {1: 247400, 2: 40704} and dt < 300,
           f"ring break adds one component, exhaustive on all planar maps "
           f"up to 5 darts, rings up to 3 items: {report.summary()} ({dt:.1f}s)")


def test_06_ring_break_fuzz():
    t0 = time.perf_counter()
    report = fuzz_jordan(1000, 7, 32)
    dt = time.perf_counter() - t0
    record(report.passed and report.rings_found >= 200 and dt < 300,
           f"ring break fuzz, 1000 trials up to 32 darts: "
           f"{report.rings_found} rings, {report.failures} failures ({dt:.1f}s)")


def test_07_backend_equivalence():
    t0 = time.perf_counter()
    master = random.Random(20260307)
    mismatches = 0
    for trial in range(1_000):
        n = master.randint(0, 24)
        attempts = master.randint(0, 2 * n) if n else 0
        m = random_map(master.getrandbits(32), n, attempts)
        idx = build_index(m)
        probes = list(idx.darts) + [max(idx.darts, default=0) + 1]
        for z in probes:
            if has_dart(m, z) != idx.has_dart(z):
                mismatches += 1
            for k in (d0, d1):
                pairs = [
                    (successor(m, k, z), idx.successor(k, z)),
                    (predecessor(m, k, z), idx.predecessor(k, z)),
                    (has_successor(m, k, z), idx.has_successor(k, z)),
                    (has_predecessor(m, k, z), idx.has_predecessor(k, z)),
                    (top(m, k, z), idx.top(k, z)),
                    (bottom(m, k, z), idx.bottom(k, z)),
                    (closed_successor(m, k, z), idx.closed_successor(k, z)),
                    (closed_predecessor(m, k, z), idx.closed_predecessor(k, z)),
                ]
                mismatches += sum(a != b for a, b in pairs)
            face_pairs = [
                (face_successor(m, z), idx.face_successor(z)),
                (closed_face_successor(m, z), idx.closed_face_successor(z)),
                (face_predecessor(m, z), idx.face_predecessor(z)),
            ]
            mismatches += sum(a != b for a, b in face_pairs)
        if counts(idx) != counts_incremental(m):
            mismatches += 1
    dt = time.perf_counter() - t0
    record(mismatches == 0,
           f"term observers vs index vs incremental counts on "
           f"1000 random maps up to 24 darts: {mismatches} mismatches ({dt:.1f}s)")


def _brute_stats(m, darts):
    """Orbit counting from scratch, using only the pointwise observers."""

    def cycles(step):
        seen = set()
        n = 0
        for dd in darts:
            if dd in seen:
                continue
            n += 1
            z = dd
            while z not in seen:
                seen.add(z)
                z = step(z)
        return n

    ne = cycles(lambda z: closed_successor(m, d0, z))
    nv = cycles(lambda z: closed_successor(m, d1, z))
    nf = cycles(lambda z: closed_face_successor(m, z))
    remaining = set(darts)
    nc = 0
    while remaining:
        nc += 1
        stack = [remaining.pop()]
        while stack:
            z = stack.pop()
            for k in (d0, d1):
                for w in (successor(m, k, z), predecessor(m, k, z)):
                    if w != NIL and w in remaining:
                        remaining.remove(w)
                        stack.append(w)
    nd = len(darts)
    ec = nv + ne + nf - nd
    assert ec % 2 == 0
    return (nd, ne, nv, nf, nc, ec, nc - ec // 2)


def test_08_micro_goldens_reverified():
    t0 = time.perf_counter()
    cases = [
        (build_two_dart_edge(), (2, 1, 2, 1, 1, 2, 0)),
        (build_digon(), (4, 2, 2, 2, 1, 2, 0)),
        (build_torus_quad(), (4, 2, 1, 1, 1, 0, 1)),
    ]
    ok = True
    for m, golden in cases:
        darts = [z for z in range(1, 10) if has_dart(m, z)]
        brute = _brute_stats(m, darts)
        s = counts(m)
        packaged = (s.n_darts, s.n_edges, s.n_vertices, s.n_faces,
                    s.n_components, s.euler_characteristic, s.genus)
        ok &= brute == golden == packaged

    digon = build_digon()
    ring = [RingItem(1, True), RingItem(3, False)]
    diag = check_ring(digon, ring)
    ok &= diag.valid and diag.edges_unique and diag.continuous
    ok &= diag.closed and diag.faces_distinct
    outcome = jordan_check(digon, ring)
    ok &= (outcome.n_components_before, outcome.n_components_after) == (1, 2)
    ok &= outcome.delta == 1
    dt = time.perf_counter() - t0
    record(ok, f"micro goldens re-verified by from-scratch orbit counting, "
               f"plus the worked two-item ring on the digon ({dt:.2f}s)")


def test_09_round_trip_and_cli_contract(tmp_path):
    t0 = time.perf_counter()
    master = random.Random(20260309)
    bad_round_trips = 0
    for trial in range(1_000):
        n = master.randint(0, 20)
        seed = master.getrandbits(32)
        if trial % 2:
            m = random_map(seed, n, master.randint(0, 2 * n) if n else 0)
        else:
            m = random_planar_map(seed, n, master.randint(0, 2 * n))
        if parse_map(serialize_map(m)) != m:
            bad_round_trips += 1

    fix_path = tmp_path / "fixture.map"
    fix_path.write_text(serialize_map(build_fixture15()), encoding="utf-8")
    planar_exit = run_cli(["planar", str(fix_path)])

    m2_path = tmp_path / "edge.map"
    m2_path.write_text(serialize_map(build_two_dart_edge()), encoding="utf-8")
    ring_path = tmp_path / "edge.ring"
    ring_path.write_text("1 t\n", encoding="utf-8")
    jordan_exit = run_cli(["jordan", str(m2_path), str(ring_path)])

    dt = time.perf_counter() - t0
    record(bad_round_trips == 0 and planar_exit == 1 and jordan_exit == 0,
           f"serialize/parse identity on 1000 maps, planar exit code on the "
           f"non-planar fixture ({planar_exit}), ring-break exit code on the "
           f"two-dart edge ({jordan_exit}) ({dt:.1f}s)")
