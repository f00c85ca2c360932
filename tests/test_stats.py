"""Counting: orbit enumeration backend, recurrence backend, theorem checks."""

import random
from functools import partial

import pytest
from hypothesis import given, strategies as st

from hmap import (
    ConstraintError,
    Dim,
    IncrementalMap,
    InternalInvariantError,
    Void,
    build_index,
    check_euler_formula,
    check_genus_theorem,
    counts,
    counts_incremental,
    euler_characteristic,
    genus,
    is_planar,
    make_map,
    planar_after_link,
    planar_from_break,
)
from hmap.fmap import INSERT_REFUSALS, ChainKernel, Insert, Link, history, well_formed_violation
from hmap.jordan import enumerate_maps, random_map, random_planar_map

d0 = Dim.zero
d1 = Dim.one


def unpack(st):
    return (st.n_darts, st.n_edges, st.n_vertices, st.n_faces, st.n_components)


def test_counts_void():
    st = counts(Void())
    assert unpack(st) == (0, 0, 0, 0, 0)
    assert st.euler_characteristic == 0
    assert st.genus == 0
    assert st.planar


def test_counts_fixture(fixture15):
    st = counts(fixture15)
    assert unpack(st) == (15, 7, 6, 6, 3)
    assert st.euler_characteristic == 4
    assert st.genus == 1
    assert not st.planar


def test_counts_two_dart_edge(two_dart_edge):
    st = counts(two_dart_edge)
    assert unpack(st) == (2, 1, 2, 1, 1)
    assert st.euler_characteristic == 2
    assert st.planar


def test_counts_digon(digon, digon_open):
    assert unpack(counts(digon)) == (4, 2, 2, 2, 1)
    assert unpack(counts(digon_open)) == (4, 3, 2, 1, 1)
    assert is_planar(digon) and is_planar(digon_open)


def test_counts_torus_quad(torus_quad, torus_quad_open):
    st = counts(torus_quad)
    assert unpack(st) == (4, 2, 1, 1, 1)
    assert st.euler_characteristic == 0
    assert genus(torus_quad) == 1
    assert not is_planar(torus_quad)
    # one link earlier the map is still planar with two faces
    st_open = counts(torus_quad_open)
    assert unpack(st_open) == (4, 3, 1, 2, 1)
    assert st_open.planar


def test_scalar_accessors(fixture15):
    assert euler_characteristic(fixture15) == 4
    assert genus(fixture15) == 1
    assert is_planar(fixture15) is False


def test_isolated_darts_are_planar():
    st = counts(make_map(range(1, 8)))
    assert st.genus == 0
    assert st.n_components == 7


class TestGenusTheorem:
    def test_fixture_passes(self, fixture15):
        rep = check_genus_theorem(fixture15)
        assert rep.passed
        assert rep.witness is None
        assert all(item.passed for item in rep.items)
        assert len(rep.items) == 3

    def test_void_passes(self):
        assert check_genus_theorem(Void()).passed

    def test_summary_mentions_verdict(self, fixture15):
        text = check_genus_theorem(fixture15).summary()
        assert "pass" in text
        assert "even" in text


class TestEulerFormula:
    def test_two_dart_edge(self, two_dart_edge):
        rep = check_euler_formula(two_dart_edge)
        assert rep.passed
        # connected and nonempty, so the specialized identity is checked too
        assert len(rep.items) == 2

    def test_requires_planarity(self, fixture15):
        with pytest.raises(ConstraintError, match="not planar"):
            check_euler_formula(fixture15)

    def test_disconnected_planar(self):
        rep = check_euler_formula(make_map([1, 2, 3]))
        assert rep.passed
        assert len(rep.items) == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_generated_planar_maps(self, seed):
        m = random_planar_map(seed, 6 + seed, seed % 11)
        rep = check_euler_formula(m)
        assert rep.passed, rep.summary()


def _replayed(m):
    """An IncrementalMap replaying ``m``, after each step of its history."""
    inc = IncrementalMap()
    for node in history(m):
        if isinstance(node, Insert):
            inc.insert(node.x)
        else:
            inc.link(node.k, node.x, node.y)
        yield inc


class TestIncrementalBackend:
    def test_fixture(self, fixture15):
        assert counts_incremental(fixture15) == counts(fixture15)

    def test_all_fixtures(self, two_dart_edge, digon, digon_open, torus_quad, torus_quad_open):
        for m in (two_dart_edge, digon, digon_open, torus_quad, torus_quad_open, Void()):
            assert counts_incremental(m) == counts(m)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_maps(self, seed):
        m = random_map(seed, 4 + seed % 30, 3 * seed + 2)
        assert counts_incremental(m) == counts(m)

    def test_stats_at_every_prefix(self, fixture15):
        # the recurrences must be right after every single step, not just at the end
        for inc in _replayed(fixture15):
            assert inc.stats() == counts(inc.term())


ABSENT = 0  # dart ids start at 1


def _assert_components_match_index(inc, others=None):
    """``inc.same_component`` answers ``(a, b)`` as the index of
    ``inc.term()`` does, for every dart or absent ``a`` and every ``b``
    in ``others`` (default: the darts and the absent dart), and
    ``n_components`` matches."""
    idx = build_index(inc.term())
    assert inc.n_components == idx.stats.n_components
    darts = (*idx.darts, ABSENT)
    others = darts if others is None else (*others, ABSENT)
    for a in darts:
        assert ([inc.same_component(a, b) for b in others]
                == [idx.same_component(a, b) for b in others]), (inc.term(), a)


class TestIncrementalComponents:
    def test_every_prefix_of_all_small_maps(self):
        prefixes = 0
        for m in enumerate_maps(4):
            for inc in _replayed(m):
                _assert_components_match_index(inc)
                prefixes += 1
        assert prefixes == 45098

    @pytest.mark.parametrize("seed", range(10))
    def test_large_planar_maps(self, seed):
        rng = random.Random(seed)
        n = rng.randint(200, 3000)
        *_, inc = _replayed(random_planar_map(seed, n, rng.randint(n // 2, 2 * n)))
        # same_component compares the darts' forest roots, an equivalence,
        # so a dart against one dart of every component answers every pair
        labels = set(build_index(inc.term()).component_ids.values())
        _assert_components_match_index(inc, sorted(labels))


def prefix_genera(m):
    """The genus after each construction step of ``m``."""
    return [inc.stats().genus for inc in _replayed(m)]


class TestGenusAlongPrefixes:
    """Genus never decreases along a term's prefixes, so a planar term
    has only planar prefixes."""

    def test_all_small_maps(self):
        maps = steps = 0
        for m in enumerate_maps(4):
            g = prefix_genera(m)
            assert g == sorted(g), m
            maps += 1
            steps += len(g)
        assert (maps, steps) == (5509, 45098)

    @given(st.integers(0, 2**32), st.integers(0, 16), st.integers(0, 48))
    def test_random_maps(self, seed, n_darts, n_link_attempts):
        g = prefix_genera(random_map(seed, n_darts, n_link_attempts))
        assert g == sorted(g)


class TestIncrementalMap:
    def test_face_tracking(self):
        inc = IncrementalMap()
        for d in (1, 2, 3, 4):
            inc.insert(d)
        inc.link(d1, 2, 3)
        inc.link(d1, 4, 1)
        inc.link(d0, 1, 2)
        idx = build_index(inc.term())
        assert inc.face_next == idx.face_perm and idx.stats.n_faces == 1
        # planar and connected, so the link keeps the map planar exactly
        # when it splits the face
        assert idx.stats.planar and idx.same_component(3, 4)
        assert planar_after_link(idx, d0, 3, 4)
        inc.link(d0, 3, 4)
        after = build_index(inc.term())
        assert inc.face_next == after.face_perm
        assert inc.n_faces == after.stats.n_faces == idx.stats.n_faces + 1
        assert after.face_ids == {1: 1, 2: 2, 3: 1, 4: 2}

    def test_split_vs_merge_counts(self):
        inc = IncrementalMap()
        inc.insert(1)
        inc.insert(2)
        assert inc.n_faces == 2
        inc.link(d0, 1, 2)  # joins the faces of two lone darts
        assert inc.n_faces == 1
        assert inc.stats() == counts(inc.term())

    def test_link_keeps_planar_cross_component(self):
        inc = IncrementalMap()
        inc.insert(1)
        inc.insert(2)
        assert planar_after_link(build_index(inc.term()), d0, 1, 2)
        inc.link(d0, 1, 2)  # a bridge: one component, still planar
        assert inc.n_components == 1
        assert inc.stats().planar

    def test_insert_violations(self):
        inc = IncrementalMap()
        inc.insert(1)
        assert inc.insert_violation(1) is not None
        assert inc.insert_violation(0) is not None
        with pytest.raises(ConstraintError):
            inc.insert(1)

    def test_link_violations(self):
        inc = IncrementalMap()
        inc.insert(1)
        inc.insert(2)
        inc.link(d0, 1, 2)
        assert not inc.can_link(d0, 2, 1)  # would close the orbit
        with pytest.raises(ConstraintError, match="close"):
            inc.link(d0, 2, 1)

    @pytest.mark.parametrize("k", [d0, d1])
    @pytest.mark.parametrize("x, y, reason", [
        (9, 1, "dart 9 does not exist"),
        (1, 9, "dart 9 does not exist"),
        (1, 3, "dart 1 already has a {k}-successor"),
        (3, 2, "dart 2 already has a {k}-predecessor"),
        (2, 1, "linking 2->1 would close the {k}-orbit"),
    ])
    def test_refused_link_names_its_conjunct_and_changes_nothing(self, k, x, y,
                                                                 reason):
        inc = IncrementalMap()
        for d in (1, 2, 3, 4):
            inc.insert(d)
        inc.link(d0, 1, 2)
        inc.link(d1, 1, 2)

        def snapshot():
            return (set(inc.dart_set),
                    [(dict(c.succ), dict(c.closed_succ), dict(c.closed_pred))
                     for c in inc.chains],
                    dict(inc.face_next), inc.n_faces, inc.n_components,
                    dict(inc.components), inc.term())

        before = snapshot()
        message = f"link {x}->{y} at dim {k.value}: " + reason.format(k=k.value)
        for refuse in (inc.link, inc.require_link):
            with pytest.raises(ConstraintError) as exc:
                refuse(k, x, y)
            assert str(exc.value) == message
            assert snapshot() == before
        # the same step at the end of a term is its first ill-formed one
        assert well_formed_violation(Link(inc.term(), k, x, y)) == message

    @pytest.mark.parametrize("x, message", [
        (0, "insert 0: dart id is the reserved nil value"),
        (-3, "insert -3: dart id -3 is negative"),
        (1, "insert 1: duplicate insert, dart 1 already exists"),
    ])
    def test_refused_insert_names_its_conjunct(self, x, message):
        inc = IncrementalMap()
        inc.insert(1)
        assert any(inc.insert_violation(x) is t for t in INSERT_REFUSALS)
        with pytest.raises(ConstraintError) as exc:
            inc.insert(x)
        assert str(exc.value) == message
        assert well_formed_violation(Insert(inc.term(), x)) == message

    @pytest.mark.parametrize("k", [0, 1, "0", None])
    def test_link_needs_a_dim(self, k):
        # the tracker is picked by identity with Dim.zero and Dim.one
        inc = IncrementalMap()
        for d in (1, 2):
            inc.insert(d)
        kern = ChainKernel(inc.term())
        calls = [inc.link_violation, inc.can_link, inc.require_link, inc.link,
                 kern.link_violation, kern.can_link, kern.require_link]
        for call in calls:
            with pytest.raises(TypeError, match=f"not a dimension: {k!r}"):
                call(k, 1, 2)
        assert inc.term() == make_map([1, 2], [])
        assert (inc.n_faces, inc.n_components) == (2, 2)

    @pytest.mark.parametrize("k", [0, 1, "0", None])
    def test_observers_need_a_dim(self, k):
        # picked by identity too: no value but Dim.zero and Dim.one is a
        # dimension, on present and absent darts alike
        m = make_map([1, 2], [(d0, 1, 2), (d1, 2, 1)])
        idx = build_index(m)
        *_, inc = _replayed(m)
        observers = ["successor", "predecessor", "has_successor", "has_predecessor",
                     "closed_successor", "closed_predecessor"]
        calls = [getattr(view, name) for view in (ChainKernel(m), idx, inc)
                 for name in observers]
        calls += [idx.top, idx.bottom,
                  partial(planar_from_break, m), partial(planar_from_break, idx)]
        for call in calls:
            for z in (1, 9):
                with pytest.raises(TypeError, match=f"not a dimension: {k!r}"):
                    call(k, z)

    @pytest.mark.parametrize("walk", ["link"])
    def test_broken_face_permutation_fails(self, walk):
        # 1 -> 2 -> 3 -> 2 never returns to 1: an error, not an endless walk.
        # The 0-link 1 -> 4 walks 1's face for 4, which is not on it
        inc = IncrementalMap()
        for d in (1, 2, 3, 4):
            inc.insert(d)
        inc.face_next.update({1: 2, 2: 3, 3: 2})
        with pytest.raises(InternalInvariantError, match="dart 1"):
            getattr(inc, walk)(d0, 1, 4)

    def test_term_round_trip(self, digon):
        *_, inc = _replayed(digon)
        assert inc.term() == digon
