"""Double-link items, the four ring conditions, and multi-break."""

import itertools
import random

import pytest

from hmap import (
    ConstraintError,
    Dim,
    Insert,
    Link,
    RingDiagnostics,
    RingItem,
    adjacent_faces,
    bottom,
    break_link,
    break_ring,
    build_index,
    check_ring,
    face_anchor,
    has_dart,
    is_ring,
    make_map,
    ring_closed,
    ring_continuous,
    ring_edges_unique,
    ring_faces_distinct,
    same_face,
    successor,
)
from hmap import rings
from hmap.index import ensure_index
from hmap.jordan import candidate_rings, enumerate_maps, random_map, random_planar_map

d0 = Dim.zero
d1 = Dim.one

DIGON_RING = [RingItem(1, True), RingItem(3, False)]


class TestFaceAnchor:
    def test_flag_true_uses_link_target(self, digon):
        assert face_anchor(digon, RingItem(1, True)) == 2

    def test_flag_false_uses_chain_bottom(self, digon):
        assert face_anchor(digon, RingItem(3, False)) == 3

    def test_two_dart_edge(self, two_dart_edge):
        assert face_anchor(two_dart_edge, RingItem(1, False)) == 1

    def test_needs_zero_link(self, two_dart_edge):
        with pytest.raises(ConstraintError, match="no 0-successor"):
            face_anchor(two_dart_edge, RingItem(2, True))


class TestAdjacentFaces:
    def test_digon_pairs(self, digon):
        assert adjacent_faces(digon, RingItem(1, True), RingItem(3, False))
        assert adjacent_faces(digon, RingItem(3, False), RingItem(1, True))
        assert not adjacent_faces(digon, RingItem(1, True), RingItem(3, True))

    def test_needs_links(self, two_dart_edge):
        with pytest.raises(ConstraintError):
            adjacent_faces(two_dart_edge, RingItem(1, True), RingItem(2, True))

    @pytest.mark.parametrize("seed", range(12))
    def test_four_case_table(self, seed):
        # the uniform anchor formulation must match the explicit case split
        m = random_planar_map(seed, 8, 12)
        idx = build_index(m)
        linked = [z for z in idx.darts if idx.has_successor(d0, z)]
        for x, xp in itertools.product(linked, repeat=2):
            y = successor(m, d0, x)
            yp = successor(m, d0, xp)
            x0 = bottom(m, d0, x)
            x0p = bottom(m, d0, xp)
            for fa, fb in itertools.product((True, False), repeat=2):
                if fa and fb:
                    want = same_face(idx, x0, yp)
                elif fa and not fb:
                    want = same_face(idx, x0, x0p)
                elif not fa and fb:
                    want = same_face(idx, y, yp)
                else:
                    want = same_face(idx, y, x0p)
                got = adjacent_faces(idx, RingItem(x, fa), RingItem(xp, fb))
                assert got == want, (x, xp, fa, fb)

    @pytest.mark.parametrize("seed", range(8))
    def test_flip_symmetry(self, seed):
        # listing order does not matter once both items flip sides
        m = random_planar_map(seed, 8, 12)
        idx = build_index(m)
        linked = [z for z in idx.darts if idx.has_successor(d0, z)]
        for x, xp in itertools.product(linked, repeat=2):
            for fa, fb in itertools.product((True, False), repeat=2):
                a, b = RingItem(x, fa), RingItem(xp, fb)
                flipped = adjacent_faces(idx, RingItem(xp, not fb), RingItem(x, not fa))
                assert adjacent_faces(idx, a, b) == flipped


class TestRingConditions:
    def test_digon_ring_satisfies_all(self, digon):
        assert ring_edges_unique(digon, DIGON_RING)
        assert ring_continuous(digon, DIGON_RING)
        assert ring_closed(digon, DIGON_RING)
        assert ring_faces_distinct(digon, DIGON_RING)

    def test_edges_unique_needs_links(self, two_dart_edge):
        # dart 2 carries no 0-link
        assert not ring_edges_unique(two_dart_edge, [RingItem(1, True), RingItem(2, True)])

    def test_edges_unique_vacuous(self, digon):
        assert ring_edges_unique(digon, [])

    def test_edge_reuse_rejected(self, digon):
        items = [RingItem(1, True), RingItem(1, False)]
        assert not ring_edges_unique(digon, items)

    def test_singleton_closure(self, two_dart_edge):
        assert ring_closed(two_dart_edge, [RingItem(1, True)])
        assert ring_closed(two_dart_edge, [RingItem(1, False)])

    def test_singleton_closure_fails_on_digon(self, digon):
        # the two sides of either digon edge are different faces
        assert not ring_closed(digon, [RingItem(1, True)])

    def test_faces_distinct_rejects_same_face(self, digon):
        assert not ring_faces_distinct(digon, [RingItem(1, True), RingItem(3, True)])


class TestCheckRing:
    def test_digon_valid(self, digon):
        diag = check_ring(digon, DIGON_RING)
        assert diag.valid
        assert diag.failure is None
        assert is_ring(digon, DIGON_RING)
        assert diag.summary() == "valid ring"

    def test_empty_invalid(self, digon):
        diag = check_ring(digon, [])
        assert not diag.valid
        assert diag.failure == "empty ring"

    def test_singleton_valid_on_two_dart_edge(self, two_dart_edge):
        assert check_ring(two_dart_edge, [RingItem(1, True)]).valid

    def test_edge_reuse_reports_indices(self, digon):
        diag = check_ring(digon, [RingItem(1, True), RingItem(1, False)])
        assert not diag.valid
        assert not diag.edges_unique
        assert diag.failure_items == (0, 1)

    def test_missing_link_reports_item(self, digon_open):
        # dart 3 has no 0-link before the digon is closed
        diag = check_ring(digon_open, [RingItem(1, True), RingItem(3, False)])
        assert not diag.valid
        assert diag.failure_items == (1,)

    def test_continuity_failure_reports_pair(self, digon):
        diag = check_ring(digon, [RingItem(1, True), RingItem(3, True)])
        assert not diag.valid
        # first broken condition along the order wins the diagnosis
        assert not diag.continuous
        assert diag.failure_items == (0, 1)

    def test_flipped_reversed_digon_ring_also_valid(self, digon):
        diag = check_ring(digon, [RingItem(1, False), RingItem(3, True)])
        assert diag.valid

    def test_face_clash_diagnosis(self):
        # two bridges in series: both double-links border the single face
        # on both sides, so adjacency holds everywhere but the identified
        # faces clash (and indeed breaking both would add two components)
        m = make_map([1, 2, 3, 4], [(d0, 1, 2), (d0, 3, 4), (d1, 2, 3)])
        diag = check_ring(m, [RingItem(1, True), RingItem(3, True)])
        assert not diag.valid
        assert diag.edges_unique and diag.continuous and diag.closed
        assert not diag.faces_distinct
        assert diag.failure_items == (0, 1)
        assert "same face" in diag.summary()


class TestBreakRing:
    def test_single(self, two_dart_edge):
        assert break_ring(two_dart_edge, [RingItem(1, True)]) == make_map([1, 2])

    def test_digon_leaves_one_links(self, digon):
        broken = break_ring(digon, DIGON_RING)
        idx = build_index(broken)
        assert idx.chains[0].succ == {}
        assert idx.chains[1].succ == {2: 3, 4: 1}

    def test_empty_is_identity(self, digon):
        assert break_ring(digon, []) == digon

    def test_insert_after_the_ring_is_rebuilt(self, digon):
        broken = make_map([1, 2, 3, 4], [(d1, 2, 3), (d1, 4, 1)])
        assert break_ring(Insert(digon, 5), DIGON_RING) == Insert(broken, 5)

    def test_missing_link_names_item(self, digon):
        with pytest.raises(ConstraintError, match="item 1"):
            break_ring(digon, [RingItem(1, True), RingItem(1, False)])

    def test_preserves_dart_set(self, digon):
        broken = break_ring(digon, DIGON_RING)
        for z in range(1, 5):
            assert has_dart(broken, z)


class TestCandidateRings:
    @pytest.mark.parametrize("seed", range(6))
    def test_sound_and_complete(self, seed):
        m = random_planar_map(seed, 6, 9)
        idx = build_index(m)
        linked = [z for z in idx.darts if idx.has_successor(d0, z)]
        items = [RingItem(x, f) for x in linked for f in (True, False)]
        brute = set()
        for n in (1, 2, 3):
            for seq in itertools.product(items, repeat=n):
                if check_ring(idx, list(seq)).valid:
                    brute.add(tuple(seq))
        assert set(candidate_rings(idx, 3)) == brute

    def test_digon(self, digon):
        idx = build_index(digon)
        rings = set(candidate_rings(idx, 2))
        assert tuple(DIGON_RING) in rings
        for ring in rings:
            assert check_ring(idx, ring).valid


def _full_verdict(m, items):
    """``check_ring`` as it was before its valid-ring shortcut: every
    verdict is built and the first failure located, valid ring or not."""
    idx = ensure_index(m)
    succ0, edge_ids, face_ids = idx.chains[0].succ, idx.edge_ids, idx.face_ids
    sides = []
    first_edge, first_face = {}, {}
    edge_clash = gap = face_clash = None
    for i, item in enumerate(items):
        y = succ0.get(item.x, 0)
        if y == 0:
            sides.append(None)
            edge_clash = edge_clash or (i,)
        else:
            x0 = edge_ids[item.x]
            fy, f0 = face_ids[y], face_ids[x0]
            here = (fy, f0) if item.flag else (f0, fy)
            sides.append(here)
            j = first_edge.setdefault(x0, i)
            if j != i:
                edge_clash = edge_clash or (j, i)
            j = first_face.setdefault(here[0], i)
            if j != i:
                face_clash = face_clash or (j, i)
        if i > 0 and gap is None and not rings._adjacent(sides[i - 1], sides[i]):
            gap = (i - 1, i)
    n = len(items)
    if n == 0:
        closed = True
    elif n == 1:
        closed = sides[0] is not None and sides[0][0] == sides[0][1]
    else:
        closed = rings._adjacent(sides[-1], sides[0])
    verdicts = (
        (n > 0, "empty ring", ()),
        (edge_clash is None, "edge reused or item without 0-link", edge_clash),
        (gap is None, "consecutive items not adjacent", gap),
        (closed, "ring does not close", (n - 1, 0) if n > 1 else (0,)),
        (face_clash is None, "two items identify the same face", face_clash),
    )
    failure, failure_items = next(((what, at) for ok, what, at in verdicts if not ok),
                                  (None, ()))
    return RingDiagnostics(failure is None, *(ok for ok, _, _ in verdicts),
                           failure, failure_items)


def _variants(ring):
    """The ring and lists made from it that mostly fail some condition."""
    first = ring[0]
    yield ring
    yield ring[:-1]
    yield ring[::-1]
    yield ring + ring[:1]
    yield (RingItem(first.x, not first.flag),) + ring[1:]


class TestCheckRingShortcut:
    def test_every_candidate_ring_and_variant_on_small_maps(self):
        valid = invalid = 0
        for m in enumerate_maps(4):
            idx = build_index(m)
            for ring in candidate_rings(idx, 4):
                assert check_ring(idx, ring) is rings._VALID
                for items in _variants(ring):
                    want = _full_verdict(idx, items)
                    assert check_ring(idx, items) == want, (m, items)
                    valid += want.valid
                    invalid += not want.valid
        assert valid >= 11128 and invalid > 0

    @pytest.mark.parametrize("fixture, items", [
        ("digon", DIGON_RING),
        ("digon", []),
        ("digon", [RingItem(1, True), RingItem(1, False)]),
        ("digon", [RingItem(1, True), RingItem(3, True)]),
        ("digon", [RingItem(1, True)]),
        ("digon", [RingItem(1, False), RingItem(3, True)]),
        ("digon_open", [RingItem(1, True), RingItem(3, False)]),
        ("two_dart_edge", [RingItem(1, True)]),
        ("two_dart_edge", [RingItem(1, False)]),
        ("two_dart_edge", [RingItem(1, True), RingItem(2, True)]),
        ("bridges", [RingItem(1, True), RingItem(3, True)]),
    ])
    def test_invalid_ring_cases(self, request, fixture, items):
        m = (make_map([1, 2, 3, 4], [(d0, 1, 2), (d0, 3, 4), (d1, 2, 3)])
             if fixture == "bridges" else request.getfixturevalue(fixture))
        assert check_ring(m, items) == _full_verdict(m, items)


def _fold_break(m, items):
    """``break_ring`` as the left fold of ``break_link`` over its items:
    the broken term, or the message of the item that has no 0-link."""
    cur = m
    for i, item in enumerate(items):
        broken = break_link(cur, d0, item.x)
        if broken is cur:
            return f"item {i}: dart {item.x} has no 0-link left to break"
        cur = broken
    return cur


def _one_rebuild_break(m, items):
    try:
        return break_ring(m, items)
    except ConstraintError as exc:
        return str(exc)


class TestBreakRingFold:
    def test_every_ring_of_the_sweep(self):
        rings_seen = 0
        for m in enumerate_maps(4):
            idx = build_index(m)
            if not idx.stats.planar:
                continue
            for ring in candidate_rings(idx, 3):
                rings_seen += 1
                assert _one_rebuild_break(m, ring) == _fold_break(m, ring), (m, ring)
        assert rings_seen == 5584

    @pytest.mark.parametrize("seed", range(30))
    def test_random_items_with_repeats_and_unlinked_darts(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        m = random_map(seed, n, rng.randint(0, 3 * n))
        if seed % 3 == 0:
            # a raw term with two 0-links out of one dart: the j-th item
            # with that dart breaks its j-th most recent 0-link
            m = Link(Link(m, d0, 1, 1), d1, 1, 1)
            m = Link(m, d0, 1, n)
        errors = 0
        for _ in range(40):
            items = [RingItem(rng.randint(1, n + 1), rng.random() < 0.5)
                     for _ in range(rng.randint(0, 5))]
            got = _one_rebuild_break(m, items)
            assert got == _fold_break(m, items), (m, items)
            errors += isinstance(got, str)
        assert errors > 0
