"""Ring-break law, its two lemmas, generators, search, fuzz, enumeration."""

import hashlib
import itertools
import random
from collections import Counter
from math import factorial
from types import SimpleNamespace

import pytest

from hmap import (
    ConstraintError,
    Dim,
    IncrementalMap,
    Link,
    MapError,
    RingItem,
    break_ring,
    build_index,
    candidate_rings,
    check_ring,
    counts,
    enumerate_maps,
    exhaustive_jordan,
    find_ring,
    first_break_keeps_connected,
    fuzz_jordan,
    is_planar,
    is_well_formed,
    jordan_check,
    load_witness,
    make_map,
    persist_witness,
    random_map,
    random_planar_map,
    serialize_map,
    tail_is_ring_after_first_break,
)
from hmap import jordan
from hmap.cli import run_cli
from hmap.index import HypermapIndex, _lazy_view, count_components

from conftest import build_digon, grid_map, vertex_chains

d0 = Dim.zero
d1 = Dim.one

DIGON_RING = [RingItem(1, True), RingItem(3, False)]


class TestJordanCheck:
    def test_two_dart_edge_singleton(self, two_dart_edge):
        out = jordan_check(two_dart_edge, [RingItem(1, True)])
        assert (out.n_components_before, out.n_components_after) == (1, 2)
        assert out.delta == 1
        assert out.passed
        assert out.summary() == "nc_before=1 nc_after=2 verdict=pass"

    def test_digon_ring(self, digon):
        out = jordan_check(digon, DIGON_RING)
        assert (out.n_components_before, out.n_components_after) == (1, 2)
        assert out.passed

    def test_rejects_nonplanar(self, fixture15):
        with pytest.raises(ConstraintError, match="not planar"):
            jordan_check(fixture15, [RingItem(1, True)])

    def test_rejects_invalid_ring(self, digon):
        with pytest.raises(ConstraintError, match="not a valid ring"):
            jordan_check(digon, [])
        with pytest.raises(ConstraintError, match="not a valid ring"):
            jordan_check(digon, [RingItem(1, True)])

    def test_outcome_carries_witness_data(self, digon):
        out = jordan_check(digon, DIGON_RING)
        assert out.map_term == digon
        assert out.ring == tuple(DIGON_RING)


class TestLemmas:
    def test_digon_first_break_keeps_connected(self, digon):
        assert first_break_keeps_connected(digon, DIGON_RING)

    def test_digon_tail_still_ring(self, digon):
        assert tail_is_ring_after_first_break(digon, DIGON_RING)

    def test_tail_lemma_still_checks_well_formedness(self):
        bad = Link(build_digon(), d0, 2, 1)
        with pytest.raises(MapError, match="not well formed"):
            tail_is_ring_after_first_break(bad, DIGON_RING)

    @pytest.mark.parametrize("first", [2, 9])
    def test_tail_lemma_raises_without_a_first_link(self, digon, first):
        # dart 2 has no 0-link in the digon, and dart 9 is not in it
        items = [RingItem(first, True), RingItem(3, False)]
        with pytest.raises(ConstraintError,
                           match=f"item 0: dart {first} has no 0-link left to break"):
            tail_is_ring_after_first_break(digon, items)

    def test_need_two_items(self, two_dart_edge):
        with pytest.raises(ConstraintError, match=">= 2"):
            first_break_keeps_connected(two_dart_edge, [RingItem(1, True)])
        with pytest.raises(ConstraintError, match=">= 2"):
            tail_is_ring_after_first_break(two_dart_edge, [RingItem(1, True)])


class TestRandomMap:
    def test_deterministic(self):
        assert random_map(11, 20, 40) == random_map(11, 20, 40)

    def test_well_formed(self):
        for seed in range(20):
            assert is_well_formed(random_map(seed, 16, 40))

    def test_empty(self):
        st = counts(random_map(0, 0, 10))
        assert st.n_darts == 0

    @pytest.mark.parametrize("args, blamed", [
        ((1, -3, 5), "dart count -3 is negative"),
        ((1, 3, -5), "link attempt count -5 is negative")])
    def test_refuses_negative_counts(self, args, blamed):
        with pytest.raises(ConstraintError, match=blamed):
            random_map(*args)


class TestRandomPlanarMap:
    def test_deterministic(self):
        assert random_planar_map(42, 20, 25) == random_planar_map(42, 20, 25)

    @pytest.mark.parametrize("seed", range(30))
    def test_always_planar(self, seed):
        m = random_planar_map(seed, 4 + seed, (2 * seed) % 40)
        assert is_well_formed(m)
        assert is_planar(m)

    def test_empty(self):
        assert counts(random_planar_map(3, 0, 0)).n_darts == 0

    def test_impossible_parameters(self):
        with pytest.raises(ConstraintError, match="impossible"):
            random_planar_map(1, 3, 7)

    def test_link_budget_respected(self):
        m = random_planar_map(5, 10, 20)
        idx = build_index(m)
        n_links = len(idx.chains[0].succ) + len(idx.chains[1].succ)
        assert n_links <= 20


def _fuzz_triples(seed: int, trials: int, size_bound: int):
    """The ``random_planar_map`` triples of ``fuzz_jordan(trials, seed,
    size_bound)``, derived as it derives them."""
    master = random.Random(seed)
    for _ in range(trials):
        trial_seed = master.getrandbits(48)
        n_darts = 2 + trial_seed % (size_bound - 1)
        n_links = random.Random(trial_seed).randint(n_darts // 2, 2 * n_darts)
        yield trial_seed, n_darts, n_links


class TestGeneratorPin:
    """The generators' output is a fixed function of their arguments:
    a seed names one term, so a witness replays from its triple.  The
    digest and the fuzz tallies were recorded before the generators'
    attempt loops were last rewritten, which had to keep every term."""

    DIGEST = "741cbdc40c3c4ab7a7d7d0943339d60751095550a51cff823c7e034ca30a26e0"
    FUZZ = {0: (25, 23, 0), 1: (25, 20, 0), 2: (25, 19, 0), 3: (25, 18, 0)}

    def test_digest_of_generated_terms(self):
        planar = [t for s in range(4) for t in _fuzz_triples(s, 25, 48)]
        planar += [(n, n, 2 * n) for n in (200, 1000, 2000, 3000)]
        planar += [(7, 0, 0), (7, 5, 0), (7, 1, 2), (7, 2, 4)]
        digest = hashlib.sha256()
        for triple in planar:
            digest.update(serialize_map(random_planar_map(*triple)).encode())
        for s in range(50):
            digest.update(serialize_map(random_map(s, s + 1, 2 * (s + 1))).encode())
        assert digest.hexdigest() == self.DIGEST

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzz_tallies(self, seed):
        rep = fuzz_jordan(25, seed, 48)
        assert (rep.trials, rep.rings_found, rep.failures) == self.FUZZ[seed]


@pytest.mark.parametrize("make, checks, links", [
    (lambda: fuzz_jordan(500, 7, 32), 78_497, 9_216),
    (lambda: random_planar_map(1, 1000, 2000), 17_697, 1_487),
    (lambda: random_map(1, 100, 400), 400, 142),
], ids=["fuzz_jordan", "random_planar_map", "random_map"])
def test_generator_link_checks_and_links(monkeypatch, make, checks, links):
    # every attempt that reaches the link check makes one link_violation
    # call, the one statement of the link rule, which the benchmark's
    # tracer counts as a link attempt; a pre-filter would lower the count
    calls = dict.fromkeys(("link_violation", "link"), 0)
    for name in calls:
        def counted(self, *args, _real=getattr(IncrementalMap, name), _name=name):
            calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(IncrementalMap, name, counted)
    make()
    assert (calls["link_violation"], calls["link"]) == (checks, links)


class TestFindRing:
    def test_singleton_on_two_dart_edge(self, two_dart_edge):
        ring = find_ring(two_dart_edge, 1, seed=0)
        assert ring is not None and len(ring) == 1
        assert check_ring(two_dart_edge, ring).valid

    def test_isolated_dart_has_none(self):
        assert find_ring(make_map([1]), 5, seed=0) is None

    def test_digon_two_ring(self, digon):
        ring = find_ring(digon, 2, seed=0)
        assert ring is not None and len(ring) == 2
        assert check_ring(digon, ring).valid

    def test_digon_needs_length_two(self, digon):
        # no double-link of the digon borders one face twice
        assert find_ring(digon, 1, seed=0) is None

    def test_none_exactly_when_no_candidate(self):
        # find_ring is the first hit of the search candidate_rings runs
        for i, m in enumerate(enumerate_maps(4)):
            idx = build_index(m)
            for max_len in (1, 2, 3):
                none_exists = next(candidate_rings(idx, max_len), None) is None
                ring = find_ring(m, max_len, i)
                assert (ring is None) == none_exists, (m, max_len)
                if ring is not None:
                    assert len(ring) <= max_len
                    assert check_ring(idx, ring).valid

    @pytest.mark.parametrize("seed", range(40))
    def test_found_rings_are_valid(self, seed):
        n = 4 + seed % 14
        m = random_planar_map(seed, n, min((3 * seed) % 24, 2 * n))
        ring = find_ring(m, 4, seed)
        if ring is not None:
            assert check_ring(m, ring).valid
            assert jordan_check(m, ring).passed


class TestRingSearchOracle:
    """The search against brute force: every item sequence of 1 to 3
    items over the 0-linked darts, with both flags, that ``check_ring``
    accepts.  Non-planar maps are searched too; a map of at most 4 darts
    holds no ring of 3 items, so the third length checks that none is
    made up."""

    def test_search_yields_exactly_the_valid_sequences_on_all_small_maps(self):
        rings = 0
        for m in enumerate_maps(4):
            idx = build_index(m)
            items = [RingItem(x, flag) for x in sorted(idx.chains[0].succ)
                     for flag in (True, False)]
            want = {ring for n in (1, 2, 3) for ring in itertools.product(items, repeat=n)
                    if check_ring(idx, ring).valid}
            got = list(candidate_rings(idx, 3))
            assert len(got) == len(set(got)) and set(got) == want, m
            rings += len(got)
        assert rings == 11_128


def _ring_text(ring) -> str:
    return " ".join(f"{x}{'+' if flag else '-'}" for x, flag in ring)


class TestRingSearchPin:
    """The ring search yields a fixed sequence of rings for each map, and
    ``find_ring`` a fixed first ring for each seed.  The digest was
    recorded before the search's recursive generators were replaced by a
    loop over an explicit stack, which had to keep every ring and its
    place.  The planar maps hold rings of 1 to 3 items; the 3n-attempt
    ``random_map`` terms, which need not be planar, add rings of 4."""

    DIGEST = "ddaa778cfd0f70f57a129541eff3e4e4c180ed3aa349c8a595f066e79e220942"

    def test_digest_of_searched_rings(self):
        digest = hashlib.sha256()
        for m in enumerate_maps(4):
            idx = build_index(m)
            if idx.stats.planar:
                digest.update("|".join(map(_ring_text, candidate_rings(idx, 4))).encode()
                              + b"\n")
        terms = [random_planar_map(s, n, n + s % (n + 1))
                 for s, n in ((s, 6 + s % 40) for s in range(300))]
        terms += [random_map(s, 8 + s % 30, 3 * (8 + s % 30)) for s in range(100)]
        for s, m in enumerate(terms):
            idx = build_index(m)
            digest.update("|".join(map(_ring_text, candidate_rings(idx, 4))).encode()
                          + b"\n")
            ring = find_ring(idx, 4, s)
            digest.update(("none" if ring is None else _ring_text(ring)).encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST

    def test_fuzz_rings_by_length(self):
        assert fuzz_jordan(1000, 7, 32).rings_by_length == {1: 795, 2: 10}


class TestFuzz:
    def test_zero_trials(self):
        rep = fuzz_jordan(0, 1, 8)
        assert rep.trials == 0 and rep.rings_found == 0 and rep.passed

    def test_small_run_clean(self):
        rep = fuzz_jordan(80, 3, 12)
        assert rep.passed, rep.summary()
        assert rep.rings_found >= 20
        assert rep.witness_paths == []

    def test_deterministic(self):
        a = fuzz_jordan(40, 9, 10)
        b = fuzz_jordan(40, 9, 10)
        assert (a.trials, a.rings_found, a.failures) == (b.trials, b.rings_found, b.failures)

    def test_summary_format(self):
        text = fuzz_jordan(5, 1, 6).summary()
        assert "trials=5" in text
        assert "verdict=" in text

    @pytest.mark.parametrize("seed", range(4))
    def test_rings_by_length_sums_to_rings_found(self, seed):
        rep = fuzz_jordan(60, seed, 16)
        assert sum(rep.rings_by_length.values()) == rep.rings_found > 0
        assert set(rep.rings_by_length) <= {1, 2, 3, 4}
        line = ",".join(f"{n}:{c}" for n, c in sorted(rep.rings_by_length.items()))
        assert f"\nrings_by_length={line}\n" in rep.summary()


class TestWitnessFiles:
    def test_round_trip_replays_same_verdict(self, tmp_path, digon):
        persist_witness(tmp_path, "case", digon, DIGON_RING)
        m, ring = load_witness(tmp_path, "case")
        assert m == digon
        assert ring == DIGON_RING
        again = jordan_check(m, ring)
        assert again.summary() == jordan_check(digon, DIGON_RING).summary()

    def test_unwritable_directory_is_a_map_error(self, tmp_path, digon):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        with pytest.raises(MapError, match=r"^cannot write witness case in .*file: "):
            persist_witness(blocker, "case", digon, DIGON_RING)

    def test_cli_fuzz_exits_2_on_an_unwritable_witness_directory(
            self, monkeypatch, tmp_path, capsys):
        # every law check fails, so the first ring found is persisted
        monkeypatch.setattr(jordan, "count_components", lambda m, broken=(): -1)
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        argv = ["fuzz", "--trials", "5", "--seed", "1", "--size", "8",
                "--witness-dir", str(blocker)]
        assert run_cli(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write witness fuzz_0") and err.count("\n") == 1
        assert err.endswith(f" in {blocker}: File exists\n")

    def test_env_var_names_directory(self, monkeypatch, tmp_path):
        from hmap.jordan import _witness_dir
        monkeypatch.setenv("HMAP_WITNESS_DIR", str(tmp_path))
        assert _witness_dir(None) == str(tmp_path)
        assert _witness_dir("explicit") == "explicit"
        # an empty value counts as unset, never as the current directory
        assert _witness_dir("") == str(tmp_path)
        monkeypatch.setenv("HMAP_WITNESS_DIR", "")
        assert _witness_dir(None) is None and _witness_dir("") is None
        monkeypatch.delenv("HMAP_WITNESS_DIR")
        assert _witness_dir(None) is None


class TestEnumeration:
    def test_counts_small(self):
        # one empty map; one single-dart map; 3*3 two-dart maps
        assert sum(1 for _ in enumerate_maps(0)) == 1
        assert sum(1 for _ in enumerate_maps(1)) == 2
        assert sum(1 for _ in enumerate_maps(2)) == 11

    def test_all_well_formed_and_distinct(self):
        # 4 darts is the size the benchmark's sweep runs
        for n, total in ((3, 11 + 13 * 13), (4, 11 + 13 * 13 + 73 * 73)):
            seen = set()
            for m in enumerate_maps(n):
                assert is_well_formed(m)
                assert m not in seen
                seen.add(m)
            assert len(seen) == total

    def test_closure_pairs_complete(self):
        # On n darts the (closure[0], closure[1]) pairs must be all n!^2
        # pairs of permutations, and the connected planar ones must number
        # (n-1)! W(n), where W(n) = 3 2^(n-1) (2n)! / (n! (n+2)!) counts
        # rooted planar hypermaps (Walsh, JCT B 18, 1975; OEIS A000257).
        from math import factorial
        connected_planar: dict[int, dict[tuple, bool]] = {n: {} for n in range(1, 5)}
        for m in enumerate_maps(4):
            idx = build_index(m)
            if idx.darts:
                pair = tuple(tuple(idx.closure[k][d] for d in idx.darts) for k in (0, 1))
                connected_planar[len(idx.darts)][pair] = (
                    idx.stats.planar and idx.stats.n_components == 1)
        for n, seen in connected_planar.items():
            walsh = (3 * 2 ** (n - 1) * factorial(2 * n)
                     // (factorial(n) * factorial(n + 2)))
            assert len(seen) == factorial(n) ** 2
            assert sum(seen.values()) == factorial(n - 1) * walsh
        assert [sum(s.values()) for s in connected_planar.values()] == [1, 3, 24, 336]

    @pytest.mark.parametrize("max_darts, by_length", [
        (0, {}), (3, {1: 136}), (4, {1: 5200, 2: 384})])
    def test_exhaustive_jordan_rings_by_length(self, max_darts, by_length):
        rep = exhaustive_jordan(max_darts, 3)
        assert rep.rings_by_length == by_length
        assert sum(rep.rings_by_length.values()) == rep.rings_checked

    @pytest.mark.parametrize("args, blamed", [
        ((-1, 3), "dart count -1"), ((3, 0), "ring length 0"), ((3, -4), "ring length -4")])
    def test_exhaustive_jordan_refuses_vacuous_arguments(self, args, blamed):
        with pytest.raises(ConstraintError, match=blamed):
            exhaustive_jordan(*args)

    def test_exhaustive_jordan_tiny(self):
        rep = exhaustive_jordan(3, 3)
        assert rep.passed, rep.summary()
        assert rep.maps_seen == 11 + 169
        assert rep.rings_checked > 0
        assert rep.ring_soundness_failures == 0

    def test_exhaustive_jordan_benchmark_sweep(self):
        # the benchmark's sweep op; its own check covers maps and planar
        # maps only, so the ring count is pinned here
        assert exhaustive_jordan(4, 3).summary() == (
            "maps=5509 planar=4171 rings=5584 delta_failures=0 "
            "soundness_failures=0 verdict=pass")

    def test_exhaustive_jordan_counts_injected_faults(self, monkeypatch):
        # each failure counter runs only when its check fails, so fail it
        rings = exhaustive_jordan(3, 3).rings_checked
        monkeypatch.setattr(jordan, "count_components", lambda m, broken=(): -1)
        rep = exhaustive_jordan(3, 3)
        assert (rep.delta_failures, rep.ring_soundness_failures) == (rings, 0)
        assert not rep.passed and "verdict=FAIL" in rep.summary()
        monkeypatch.setattr(jordan, "check_ring",
                            lambda idx, ring: SimpleNamespace(valid=False))
        rep = exhaustive_jordan(3, 3)
        assert (rep.delta_failures, rep.ring_soundness_failures) == (0, rings)
        assert not rep.passed


class TestSweepIndexes:
    """The sweep's indexes adopt the 0-tracker and the 1-tracker of two
    one-dimension replays; each must equal the index of one replay of
    its whole term, on every slot and every view built on first read."""

    SLOTS = tuple(name for name in HypermapIndex.__slots__ if name != "__dict__") + tuple(
        name for name, attr in vars(HypermapIndex).items() if isinstance(attr, _lazy_view))

    def test_sweep_index_equals_build_index(self):
        assert {"stats", "edge_ids", "vertex_ids", "double_links"} <= set(self.SLOTS)
        terms = []
        for m, chains in jordan._maps(4):
            swept = HypermapIndex(m, chains=chains)
            built = build_index(m)
            assert swept.chains is chains
            for slot in self.SLOTS:
                assert getattr(swept, slot) == getattr(built, slot), (m, slot)
            assert swept.dart_set == built.dart_set
            for cs, cb in zip(swept.chains, built.chains):
                assert ((cs.k, cs.succ, cs.closed_succ, cs.closed_pred)
                        == (cb.k, cb.succ, cb.closed_succ, cb.closed_pred)), m
            for k in (d0, d1):
                for z in built.darts:
                    assert swept.top(k, z) == built.top(k, z), (m, k, z)
                    assert swept.bottom(k, z) == built.bottom(k, z), (m, k, z)
            terms.append(m)
        assert terms == list(enumerate_maps(4)) and len(terms) == 5509

    def test_sweep_searches_indexes_equal_to_build_index(self, monkeypatch):
        # the sweep's own path: each index its ring search gets, built or
        # recut, must equal one replay's on every slot and every view
        calls = Counter()
        init, recut = HypermapIndex.__init__, HypermapIndex.recut

        def counted_init(idx, *args, **kwargs):
            calls["__init__"] += 1
            init(idx, *args, **kwargs)

        def counted_recut(idx, *args):
            calls["recut"] += 1
            return recut(idx, *args)

        def searched(idx, max_len):
            calls["searched"] += 1
            calls["shared"] += "double_links" in vars(idx)
            built = build_index(idx.term)
            for slot in self.SLOTS:
                assert getattr(idx, slot) == getattr(built, slot), (idx.term, slot)
            for ci, cb in zip(idx.chains, built.chains):
                assert (ci.succ, ci.closed_succ, ci.closed_pred) == (
                    cb.succ, cb.closed_succ, cb.closed_pred), idx.term
            return candidate_rings(idx, max_len)

        monkeypatch.setattr(HypermapIndex, "__init__", counted_init)
        monkeypatch.setattr(HypermapIndex, "recut", counted_recut)
        monkeypatch.setattr(jordan, "candidate_rings", searched)
        report = exhaustive_jordan(4, 3)
        assert report.summary() == (
            "maps=5509 planar=4171 rings=5584 delta_failures=0 "
            "soundness_failures=0 verdict=pass")
        # one index per map; each searched one's reference build adds one
        # more: sum of systems(n) * n! labellings, the rest recut
        assert calls["searched"] == report.planar_maps
        assert calls["__init__"] - calls["searched"] == 1 + 1 + 3 * 2 + 13 * 6 + 73 * 24 == 1838
        assert calls["recut"] == report.maps_seen - 1838 == 3671
        # a recut index of a planar map finds its double-links built
        assert 0 < calls["shared"] < calls["searched"]

    def test_closure_level_tables_depend_on_the_closures_only(self):
        # the premise of recut, by build_index alone: maps with one pair
        # of closures have one darts, faces, components and stats, and
        # those that also share their 0-links have one double_links table
        groups: dict[tuple, list[HypermapIndex]] = {}
        for m in enumerate_maps(4):
            idx = build_index(m)
            key = tuple(tuple(sorted(idx.closure[k].items())) for k in (0, 1))
            groups.setdefault(key, []).append(idx)
        assert len(groups) == sum(factorial(n) ** 2 for n in range(5)) == 618
        for group in groups.values():
            first = group[0]
            by_cut: dict[tuple, HypermapIndex] = {}
            for idx in group:
                for slot in ("darts", "stats", "face_perm", "face_ids", "component_ids"):
                    assert getattr(idx, slot) == getattr(first, slot), (idx.term, slot)
                same = by_cut.setdefault(tuple(sorted(idx.chains[0].succ.items())), idx)
                assert idx.double_links == same.double_links, idx.term


class TestSwapOracle:
    """Breaking along a ring must equal swapping the two closure images
    of each item, applied to the original closed 0-successor table.
    This reformulates multi-break as pure permutation surgery, which is
    only sound because ring edges are pairwise distinct."""

    @pytest.mark.parametrize("seed", range(40))
    def test_break_equals_transpositions(self, seed):
        m = random_planar_map(seed, 10, 15)
        idx = build_index(m)
        ring = find_ring(m, 4, seed)
        if ring is None:
            return
        ca0 = dict(idx.closure[0])
        for item in ring:
            y = idx.successor(d0, item.x)
            x0 = idx.bottom(d0, item.x)
            for z, w in list(ca0.items()):
                if w == y:
                    ca0[z] = x0
                elif w == x0:
                    ca0[z] = y
        broken_idx = build_index(break_ring(m, ring))
        assert ca0 == broken_idx.closure[0]


def _theta(cut1, cut2):
    """Two vertices joined by three edges: darts 1-6, 0-links 1->2, 3->4
    and 5->6, vertices (1 3 6) and (2 5 4), each cut open after its
    ``cut``-th dart."""
    v1, v2 = (1, 3, 6), (2, 5, 4)
    return make_map(range(1, 7), [(d0, 1, 2), (d0, 3, 4), (d0, 5, 6)]
                    + vertex_chains(v1[cut1:] + v1[:cut1], v2[cut2:] + v2[:cut2]))


class TestLongRings:
    """The law, both lemmas and the paper's induction on rings of 3 to 6
    items, which no map of at most 5 darts holds."""

    @staticmethod
    def _check_by_induction(m, ring):
        idx = build_index(m)
        assert check_ring(idx, ring).valid
        assert jordan_check(idx, ring).passed
        assert first_break_keeps_connected(idx, ring)
        assert tail_is_ring_after_first_break(idx, ring)
        # each break but the last keeps the map planar, its count and the
        # rest of the ring valid; the last adds one component
        nc = idx.stats.n_components
        for i in range(len(ring) - 1):
            m = break_ring(m, ring[i:i + 1])
            idx = build_index(m)
            assert idx.stats.planar and idx.stats.n_components == nc, (ring, i)
            assert check_ring(idx, ring[i + 1:]).valid, (ring, i)
        assert count_components(break_ring(m, ring[-1:])) == nc + 1, ring

    @pytest.mark.parametrize("cut1, cut2", [(a, b) for a in range(3) for b in range(3)])
    def test_theta_has_six_rings_of_three(self, cut1, cut2):
        m = _theta(cut1, cut2)
        assert is_planar(m)
        rings = list(candidate_rings(build_index(m), 6))
        assert len(rings) == 6 and {len(r) for r in rings} == {3}
        assert (RingItem(1, False), RingItem(5, True), RingItem(3, False)) in rings
        for ring in rings:
            self._check_by_induction(m, ring)

    @pytest.mark.parametrize("k, by_length", [
        (3, {2: 16, 3: 96, 4: 136, 5: 160}),
        (4, {2: 16, 3: 96, 4: 240, 5: 640, 6: 1440})])
    def test_grid_rings_up_to_six(self, k, by_length):
        m = grid_map(k)
        assert counts(m).n_darts == 4 * k * (k - 1) and is_planar(m)
        rings = list(candidate_rings(build_index(m), 6))
        assert Counter(len(r) for r in rings) == by_length
        for ring in rings:
            self._check_by_induction(m, ring)
