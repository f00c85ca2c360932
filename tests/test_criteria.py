"""Link/break planarity criteria against the direct genus computation."""

import pytest

from hmap import (
    ConstraintError,
    Dim,
    Link,
    MapError,
    break_disconnects,
    break_link,
    build_index,
    counts,
    is_planar,
    make_map,
    planar_after_link,
    planar_from_break,
    same_component,
    successor,
)
from hmap.jordan import enumerate_maps, random_map

from conftest import swap

d0 = Dim.zero
d1 = Dim.one


class TestPlanarAfterLink:
    def test_isolated_pair(self):
        assert planar_after_link(make_map([1, 2]), d0, 1, 2)

    def test_digon_closing_link_splits_face(self, digon_open):
        assert planar_after_link(digon_open, d0, 3, 4) is True

    def test_torus_closing_link_breaks_planarity(self, torus_quad_open):
        assert planar_after_link(torus_quad_open, d0, 2, 4) is False

    def test_requires_link_preconditions(self, two_dart_edge):
        with pytest.raises(ConstraintError):
            planar_after_link(two_dart_edge, d0, 2, 1)

    def test_nonplanar_base_stays_nonplanar(self, torus_quad):
        from hmap import insert_dart
        m = insert_dart(torus_quad, 5)
        assert planar_after_link(m, d0, 4, 5) is False


class TestPlanarFromBreak:
    def test_values(self, two_dart_edge, digon, torus_quad):
        assert planar_from_break(two_dart_edge, d0, 1) is True
        assert planar_from_break(digon, d0, 1) is True
        assert planar_from_break(torus_quad, d0, 2) is False

    def test_requires_successor(self, two_dart_edge):
        with pytest.raises(ConstraintError, match="no 0-successor"):
            planar_from_break(two_dart_edge, d0, 2)

    def test_still_checks_well_formedness(self, digon):
        with pytest.raises(MapError, match="not well formed"):
            planar_from_break(Link(digon, d0, 2, 1), d0, 1)

    def test_dim_one_mirror(self, digon, torus_quad):
        assert planar_from_break(digon, d1, 2) is True
        assert planar_from_break(torus_quad, d1, 1) is False


class TestBreakDisconnects:
    def test_values(self, two_dart_edge, digon):
        assert break_disconnects(two_dart_edge, 1) is True
        assert break_disconnects(digon, 1) is False

    def test_requires_planar(self, torus_quad):
        with pytest.raises(ConstraintError, match="not planar"):
            break_disconnects(torus_quad, 1)

    def test_requires_successor(self, digon):
        with pytest.raises(ConstraintError, match="no 0-successor"):
            break_disconnects(digon, 2)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_actual_disconnection(self, seed):
        from hmap.jordan import random_planar_map
        n = 4 + seed % 12
        m = random_planar_map(seed, n, min(2 + seed % 17, 2 * n))
        idx = build_index(m)
        for x in idx.darts:
            y = idx.successor(d0, x)
            if y == 0:
                continue
            got = break_disconnects(idx, x)
            broken = break_link(m, d0, x)
            assert got == (not same_component(broken, x, y))


def _prec_link_pairs(idx, k):
    for x in idx.darts:
        if idx.has_successor(k, x):
            continue
        for y in idx.darts:
            if idx.has_predecessor(k, y) or idx.closed_successor(k, x) == y:
                continue
            yield x, y


class TestExhaustiveSmall:
    """Every map with up to 3 darts; the 5-dart sweep lives in acceptance."""

    def test_link_criterion_equals_genus_oracle(self):
        for m in enumerate_maps(3):
            idx = build_index(m)
            for k in (d0, d1):
                for x, y in _prec_link_pairs(idx, k):
                    want = build_index(Link(m, k, x, y)).stats.planar
                    assert planar_after_link(idx, k, x, y) == want

    def test_break_criterion_equals_planarity(self):
        for m in enumerate_maps(3):
            idx = build_index(m)
            for k in (d0, d1):
                for x in idx.darts:
                    if idx.has_successor(k, x):
                        assert planar_from_break(idx, k, x) == idx.stats.planar

    def test_disconnect_criterion_equals_connectivity_change(self):
        for m in enumerate_maps(3):
            idx = build_index(m)
            if not idx.stats.planar:
                continue
            for x in idx.darts:
                y = idx.successor(d0, x)
                if y == 0:
                    continue
                broken = break_link(m, d0, x)
                want = not same_component(broken, x, y)
                assert break_disconnects(idx, x) == want


class TestDimensionSwap:
    """Swapping the dimensions is an oracle for the dimension-one branches
    that is neither the genus nor their own formula."""

    def test_swap_trades_edges_and_vertices(self):
        n = 0
        for m in enumerate_maps(4):
            s, t = build_index(m).stats, build_index(swap(m)).stats
            assert (t.n_edges, t.n_vertices) == (s.n_vertices, s.n_edges), m
            assert (t.n_faces, t.n_components, t.genus) == (
                s.n_faces, s.n_components, s.genus), m
            assert swap(swap(m)) == m
            n += 1
        assert n == 5509

    def test_dimension_one_link_criterion_equals_swapped_zero(self):
        n = 0
        for m in enumerate_maps(4):
            idx, swapped = build_index(m), build_index(swap(m))
            for x, y in _prec_link_pairs(idx, d1):
                assert planar_after_link(idx, d1, x, y) == planar_after_link(
                    swapped, d0, x, y), (m, x, y)
                n += 1
        assert n == 11628


@pytest.mark.parametrize("seed", range(30))
def test_link_criterion_randomized(seed):
    m = random_map(seed, 5 + seed % 20, 2 * seed + 3)
    idx = build_index(m)
    import random
    rng = random.Random(seed)
    pairs0 = list(_prec_link_pairs(idx, d0))
    pairs1 = list(_prec_link_pairs(idx, d1))
    for k, pairs in ((d0, pairs0), (d1, pairs1)):
        for x, y in rng.sample(pairs, min(10, len(pairs))):
            want = is_planar(Link(m, k, x, y))
            assert planar_after_link(idx, k, x, y) == want


def test_linking_inside_face_adds_face_and_keeps_planarity(digon_open):
    # the two closing candidates of the digon sit in one face
    before = counts(digon_open)
    after = counts(Link(digon_open, d0, 3, 4))
    assert after.n_faces == before.n_faces + 1
    assert after.planar


def test_linking_across_faces_merges_and_breaks_planarity(torus_quad_open):
    before = counts(torus_quad_open)
    after = counts(Link(torus_quad_open, d0, 2, 4))
    assert after.n_faces == before.n_faces - 1
    assert not after.planar
