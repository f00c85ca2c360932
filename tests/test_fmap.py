"""Term constructors, observers, preconditions, and destructors."""

import copy
import dataclasses
import inspect
import pickle
import random
import warnings

import pytest

from hmap import (
    NIL,
    ConstraintError,
    Dim,
    IncrementalMap,
    Insert,
    Link,
    MapError,
    Void,
    bottom,
    break_link,
    break_link_back,
    build_index,
    can_insert,
    can_link,
    closed_face_predecessor,
    closed_face_successor,
    closed_predecessor,
    closed_successor,
    delete_dart,
    face_predecessor,
    face_successor,
    has_dart,
    has_predecessor,
    has_successor,
    insert_dart,
    is_well_formed,
    link,
    make_map,
    predecessor,
    remove_dart,
    successor,
    top,
    unlink,
    unlink_back,
    well_formed_violation,
)
from hmap.fmap import ChainKernel, history
from hmap.io import parse_map, serialize_map
from hmap.jordan import enumerate_maps, random_planar_map

import conftest

d0 = Dim.zero
d1 = Dim.one


def test_dim_other():
    assert d0.other is d1
    assert d1.other is d0


class TestTermIdentity:
    def test_repr_is_the_dataclass_repr(self):
        m = Link(Insert(Void(), 1), d0, 1, 2)
        assert repr(m) == "Link(base=Insert(base=Void(), x=1), k=Dim.zero, x=1, y=2)"
        assert repr(Void()) == "Void()"

    @pytest.mark.parametrize("node", [Insert(Void(), 1), Link(Insert(Void(), 1), d1, 1, 1)],
                             ids=["Insert", "Link"])
    def test_steps_are_frozen_and_built_from_their_fields(self, node):
        # the constructors write the slots themselves, not through the
        # dataclass-generated __init__; they must build the same records,
        # so each takes every field, none has a default or a post-init step
        fields = dataclasses.fields(node)
        names = [f.name for f in fields]
        assert names == ["base", *node._step]
        params = inspect.signature(type(node).__init__).parameters
        assert list(params) == ["self", *names]
        assert all(f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING for f in fields)
        assert not hasattr(type(node), "__post_init__")
        values = [getattr(node, f) for f in names]
        assert type(node)(*values) == node == type(node)(**dict(zip(names, values)))
        assert dataclasses.replace(node, x=2).x == 2 and node.x == 1
        for f, v in zip(names, values):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, f, v)
        with pytest.raises(TypeError):
            type(node)(*values, 1)
        with pytest.raises(TypeError):
            type(node)(*values[:-1])

    def test_equality_compares_every_step(self):
        m = make_map([1, 2], [(d0, 1, 2)])
        assert m == make_map([1, 2], [(d0, 1, 2)])
        assert hash(m) == hash(make_map([1, 2], [(d0, 1, 2)]))
        assert m != make_map([1, 2], [(d1, 1, 2)])
        assert m != make_map([1, 3], [(d0, 1, 3)])
        assert m != make_map([2, 1], [(d0, 1, 2)])
        assert m != make_map([1, 2])
        assert Void() == Void() and Void() != Insert(Void(), 1)
        assert m != (1, 2)

    def test_deep_terms_compare_hash_and_print(self):
        m = random_planar_map(1, 10000, 20000)
        copy = parse_map(serialize_map(m))
        assert copy is not m
        assert copy == m and not copy != m
        assert hash(copy) == hash(m)
        assert repr(copy) == repr(m)
        assert repr(m).startswith("Link(base=Link(base=")
        assert repr(m).count("Insert(base=") == 10000
        # differs only in its innermost link, ~20,000 steps down
        first = next(n for n in history(m) if isinstance(n, Link))
        assert break_link_back(m, first.k, first.y) != m

    @pytest.mark.parametrize("clone", [
        lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"])
    def test_deep_terms_copy_and_pickle(self, clone):
        # each rebuilds the term in a loop, not once per node down ``base``,
        # and leaves behind the trackers a generated term keeps
        m = random_planar_map(1, 3000, 6000)
        for term in (Void(), m):
            got = clone(term)
            assert got == term and got is not term
            assert getattr(got, "_trackers", None) is None
        assert m._trackers is not None


class TestHasDart:
    def test_empty(self):
        assert not has_dart(Void(), 1)

    def test_just_inserted(self):
        assert has_dart(Insert(Void(), 1), 1)

    def test_fixture(self, fixture15):
        assert has_dart(fixture15, 15)
        assert not has_dart(fixture15, 16)

    def test_nil_never_exists(self, fixture15):
        assert not has_dart(fixture15, NIL)

    def test_non_term_base_raises(self):
        with pytest.raises(TypeError, match=r"^not a map term: None$"):
            has_dart(Insert(None, 1), 2)


class TestSuccessor:
    def test_fixture_values(self, fixture15):
        assert successor(fixture15, d0, 4) == 3
        assert successor(fixture15, d0, 5) == NIL
        assert predecessor(fixture15, d1, 2) == 1

    def test_empty(self):
        assert successor(Void(), d0, 7) == NIL

    def test_succ_pred_flags(self, fixture15):
        assert has_successor(fixture15, d0, 4)
        assert not has_successor(fixture15, d0, 5)
        assert not has_predecessor(Insert(Void(), 1), d1, 1)

    def test_most_recent_link_wins(self):
        # raw terms can stack two links out of one dart; the outer one answers
        m = Link(Link(Insert(Insert(Insert(Void(), 1), 2), 3), d0, 1, 2), d0, 1, 3)
        assert successor(m, d0, 1) == 3

    @pytest.mark.parametrize("observer", [successor, predecessor])
    def test_non_term_base_raises(self, observer):
        with pytest.raises(TypeError, match=r"^not a map term: None$"):
            observer(Insert(None, 1), d0, 1)


class TestTopBottom:
    def test_fixture_values(self, fixture15):
        assert top(fixture15, d1, 1) == 3
        assert bottom(fixture15, d1, 1) == 4

    def test_isolated(self):
        m = Insert(Void(), 1)
        assert top(m, d0, 1) == 1
        assert bottom(m, d0, 1) == 1

    def test_two_dart_edge(self, two_dart_edge):
        assert bottom(two_dart_edge, d0, 2) == 1
        assert top(two_dart_edge, d0, 1) == 2

    def test_missing_dart_gives_nil(self, two_dart_edge):
        assert top(two_dart_edge, d0, 9) == NIL
        assert bottom(two_dart_edge, d0, 9) == NIL

    def test_cycle_of_explicit_links_gives_nil(self):
        # a raw term whose 0-links 1 -> 2 -> 1 cycle has no chain ends
        m = Link(Link(make_map([1, 2]), d0, 1, 2), d0, 2, 1)
        assert not is_well_formed(m)
        for z in (1, 2):
            assert top(m, d0, z) == NIL
            assert bottom(m, d0, z) == NIL

    def test_endpoint_characterization(self, fixture15):
        for k in Dim:
            for z in range(1, 16):
                assert not has_successor(fixture15, k, top(fixture15, k, z))
                assert not has_predecessor(fixture15, k, bottom(fixture15, k, z))


class TestClosure:
    def test_fixture_values(self, fixture15):
        assert closed_successor(fixture15, d1, 3) == 4
        assert closed_predecessor(fixture15, d1, 4) == 3

    def test_isolated_fixed_point(self):
        assert closed_successor(Insert(Void(), 1), d0, 1) == 1

    def test_wraps_open_chain(self, two_dart_edge):
        assert closed_successor(two_dart_edge, d0, 2) == 1

    def test_closures_are_inverse_permutations(self, fixture15):
        darts = range(1, 16)
        for k in Dim:
            images = [closed_successor(fixture15, k, z) for z in darts]
            assert sorted(images) == list(darts)
            for z in darts:
                assert closed_predecessor(fixture15, k, closed_successor(fixture15, k, z)) == z

    def test_nonexistent_gives_nil(self, fixture15):
        assert closed_successor(fixture15, d0, 99) == NIL
        assert closed_predecessor(fixture15, d0, 99) == NIL


class TestFaceMaps:
    def test_fixture_values(self, fixture15):
        assert face_successor(fixture15, 1) == NIL
        assert closed_face_successor(fixture15, 1) == 5

    def test_singleton(self):
        assert closed_face_successor(Insert(Void(), 1), 1) == 1

    def test_two_dart_edge(self, two_dart_edge):
        assert closed_face_successor(two_dart_edge, 1) == 2
        assert closed_face_successor(two_dart_edge, 2) == 1

    def test_face_inverse(self, fixture15):
        for z in range(1, 16):
            w = closed_face_successor(fixture15, z)
            assert closed_face_predecessor(fixture15, w) == z

    def test_open_face_inverse_where_defined(self, fixture15):
        for z in range(1, 16):
            w = face_successor(fixture15, z)
            if w != NIL:
                assert face_predecessor(fixture15, w) == z


class TestPreconditions:
    def test_nil_insert_forbidden(self):
        assert not can_insert(Void(), 0)

    def test_duplicate_insert_forbidden(self):
        assert not can_insert(Insert(Void(), 1), 1)

    def test_link_two_fresh_darts(self):
        m = make_map([1, 2])
        assert can_link(m, d0, 1, 2)

    def test_link_would_close_orbit(self, two_dart_edge):
        # 2's closed 0-successor is already 1
        assert not can_link(two_dart_edge, d0, 2, 1)

    def test_link_missing_darts(self):
        m = make_map([1])
        assert not can_link(m, d0, 1, 5)
        assert not can_link(m, d0, 5, 1)

    def test_link_taken_endpoints(self, two_dart_edge):
        m = insert_dart(two_dart_edge, 3)
        assert not can_link(m, d0, 1, 3)  # 1 already has a successor
        assert not can_link(m, d0, 3, 2)  # 2 already has a predecessor
        assert can_link(m, d1, 1, 3)

    def test_self_link_forbidden(self):
        m = make_map([1])
        assert not can_link(m, d0, 1, 1)

    def test_kernel_matches_observer_formula_exhaustively(self):
        # the paper's preconditions, written with the recursive observers,
        # against the one kernel statement of them, on every map <= 4 darts
        for m in enumerate_maps(4):
            n = sum(1 for z in range(1, 5) if has_dart(m, z))
            for x in range(n + 2):
                assert can_insert(m, x) == (x != NIL and not has_dart(m, x))
                for k in Dim:
                    for y in range(n + 2):
                        want = (has_dart(m, x) and has_dart(m, y)
                                and not has_successor(m, k, x)
                                and not has_predecessor(m, k, y)
                                and closed_successor(m, k, x) != y)
                        assert can_link(m, k, x, y) == want, (m, k, x, y)

    def test_base_must_be_well_formed(self):
        bad = Insert(Insert(Void(), 1), 1)
        with pytest.raises(MapError, match="not well formed"):
            can_insert(bad, 2)
        with pytest.raises(MapError, match="not well formed"):
            link(bad, d0, 1, 1)


class TestCheckedBuilders:
    def test_insert(self):
        assert insert_dart(Void(), 1) == Insert(Void(), 1)

    def test_link_builds_term(self):
        m = make_map([1, 2])
        assert link(m, d0, 1, 2) == Link(m, d0, 1, 2)

    def test_link_closing_orbit_raises(self, two_dart_edge):
        with pytest.raises(ConstraintError, match="close the 0-orbit"):
            link(two_dart_edge, d0, 2, 1)

    def test_insert_errors_name_reason(self):
        with pytest.raises(ConstraintError, match="already exists"):
            insert_dart(Insert(Void(), 3), 3)
        with pytest.raises(ConstraintError, match="nil"):
            insert_dart(Void(), 0)

    def test_make_map_names_failed_step(self):
        with pytest.raises(ConstraintError, match="link 2->1 at dim 1: .*close the 1-orbit"):
            make_map([1, 2], [(d1, 1, 2), (d1, 2, 1)])
        with pytest.raises(ConstraintError, match="insert 2: .*already exists"):
            make_map([1, 2, 2])

    def test_link_errors_name_reason(self):
        m = make_map([1, 2])
        with pytest.raises(ConstraintError, match="does not exist"):
            link(m, d0, 1, 9)
        m2 = link(m, d0, 1, 2)
        with pytest.raises(ConstraintError, match="already has a 0-successor"):
            link(insert_dart(m2, 3), d0, 1, 3)


class TestWellFormed:
    def test_void(self):
        assert is_well_formed(Void())

    def test_self_loop_not_well_formed(self):
        assert not is_well_formed(Link(Insert(Void(), 1), d0, 1, 1))

    def test_fixture(self, fixture15):
        assert is_well_formed(fixture15)

    def test_violation_messages(self):
        m = Insert(Insert(Void(), 1), 1)
        assert "duplicate insert" in well_formed_violation(m)
        m = Link(Insert(Void(), 1), d0, 1, 2)
        assert "does not exist" in well_formed_violation(m)

    def test_closing_deep_inside(self, digon):
        # tack a closing link onto an otherwise fine map
        bad = Link(digon, d0, 2, 1)
        assert not is_well_formed(bad)

    @pytest.mark.parametrize("k", list(Dim))
    def test_tracker_refuses_each_conjunct_before_linking(self, k):
        # the tracker's link is itself checked: it raises require_link's
        # message and leaves its chains as they were
        kern = ChainKernel(make_map([1, 2, 3], [(k, 1, 2)]))
        c = kern.chains[k.value]
        cases = {(9, 1): "dart 9 does not exist", (3, 9): "dart 9 does not exist",
                 (1, 3): f"dart 1 already has a {k.value}-successor",
                 (3, 2): f"dart 2 already has a {k.value}-predecessor",
                 (2, 1): f"linking 2->1 would close the {k.value}-orbit",
                 (3, 3): f"linking 3->3 would close the {k.value}-orbit"}
        for (x, y), reason in cases.items():
            with pytest.raises(ConstraintError) as want:
                kern.require_link(k, x, y)
            assert str(want.value) == f"link {x}->{y} at dim {k.value}: {reason}"
            before = (dict(c.succ), dict(c.closed_succ), dict(c.closed_pred))
            with pytest.raises(ConstraintError) as got:
                c.link(x, y)
            assert str(got.value) == str(want.value)
            assert (c.succ, c.closed_succ, c.closed_pred) == before

    def test_checked_construction_always_well_formed(self, fixture15, digon, torus_quad):
        for m in (fixture15, digon, torus_quad):
            assert well_formed_violation(m) is None


def _fed_step_by_step(m):
    """An IncrementalMap fed the steps of ``m``, or the message of the
    first step it refuses."""
    inc = IncrementalMap()
    try:
        for node in history(m):
            if isinstance(node, Insert):
                inc.insert(node.x)
            else:
                inc.link(node.k, node.x, node.y)
    except ConstraintError as exc:
        return str(exc)
    return inc


def _kernel_state(kern):
    """The darts, and the links and both closures of each tracker."""
    out = [sorted(kern.dart_set)]
    for c in kern.chains:
        out.append((c.succ, c.closed_succ, c.closed_pred))
    return out


class TestKernelConstructor:
    """``ChainKernel(m)`` is the one replay of a term: the index and the
    incremental builder hold the same state."""

    FIXTURES = [getattr(conftest, name)() for name in dir(conftest)
                if name.startswith("build_")]

    def test_every_build_holds_the_same_state(self):
        for m in [*self.FIXTURES, *enumerate_maps(4)]:
            want = _kernel_state(ChainKernel(m))
            assert _kernel_state(build_index(m)) == want
            assert _kernel_state(_fed_step_by_step(m)) == want

    @pytest.mark.parametrize("seed", range(4))
    def test_raises_exactly_where_step_by_step_building_does(self, seed):
        rng = random.Random(seed)
        n_bad = 0
        for _ in range(300):
            m = Void()
            for _ in range(rng.randrange(12)):
                if rng.random() < 0.4:
                    m = Insert(m, rng.randrange(-1, 6))
                else:
                    m = Link(m, Dim(rng.getrandbits(1)),
                             rng.randrange(-1, 6), rng.randrange(-1, 6))
            fed = _fed_step_by_step(m)
            if isinstance(fed, str):
                n_bad += 1
                with pytest.raises(ConstraintError) as err:
                    ChainKernel(m)
                assert str(err.value) == fed
                assert well_formed_violation(m) == fed
            else:
                assert _kernel_state(ChainKernel(m)) == _kernel_state(fed)
                assert well_formed_violation(m) is None
        assert 0 < n_bad < 300

    def test_link_of_no_dimension_raises(self):
        with pytest.raises(TypeError, match=r"^not a dimension: 0$"):
            ChainKernel(Link(make_map([1, 2]), 0, 1, 2))

    def test_non_term_base_raises(self):
        with pytest.raises(TypeError, match=r"^not a map term: None$"):
            ChainKernel(Insert(None, 1))


class TestDestructors:
    def test_break_removes_last_link(self, two_dart_edge):
        assert break_link(two_dart_edge, d0, 1) == make_map([1, 2])

    def test_break_nothing(self):
        m = Insert(Void(), 1)
        assert break_link(m, d0, 1) == m

    def test_break_undoes_link(self, fixture15):
        m2 = link(fixture15, d1, 15, 13)
        assert break_link(m2, d1, 15) == fixture15

    def test_break_back(self, two_dart_edge):
        assert break_link_back(two_dart_edge, d0, 2) == make_map([1, 2])
        assert break_link_back(two_dart_edge, d0, 1) == two_dart_edge

    def test_break_preserves_well_formedness(self, fixture15):
        for z in range(1, 16):
            for k in Dim:
                assert is_well_formed(break_link(fixture15, k, z))

    def test_delete_leaves_links_dangling(self, two_dart_edge):
        # raw delete produces a term that fails the invariant
        m = delete_dart(two_dart_edge, 2)
        assert not is_well_formed(m)

    def test_delete_absent_unchanged(self, two_dart_edge):
        assert delete_dart(two_dart_edge, 9) == two_dart_edge

    def test_steps_after_the_removed_one_are_rebuilt(self):
        # an insert and a link after the removed step are put back on top
        edge = link(make_map([1, 2]), d0, 1, 2)
        assert break_link(Insert(edge, 3), d0, 1) == make_map([1, 2, 3])
        assert break_link_back(Insert(edge, 3), d0, 2) == make_map([1, 2, 3])
        m = Link(Insert(Insert(make_map([1]), 2), 3), d1, 1, 2)
        assert delete_dart(m, 3) == make_map([1, 2], [(d1, 1, 2)])
        assert delete_dart(Insert(Insert(make_map([1]), 2), 3), 2) == make_map([1, 3])

    def test_remove_dart_refuses_linked(self, two_dart_edge):
        with pytest.raises(ConstraintError, match="still linked"):
            remove_dart(two_dart_edge, 1)

    def test_remove_dart_ok_when_isolated(self):
        m = make_map([1, 2])
        assert remove_dart(m, 2) == make_map([1])

    def test_remove_dart_warns_on_absent(self, two_dart_edge):
        with pytest.warns(UserWarning, match="does not exist"):
            assert remove_dart(two_dart_edge, 9) == two_dart_edge

    def test_unlink_warns_when_no_link(self):
        m = make_map([1])
        with pytest.warns(UserWarning, match="no 0-link"):
            assert unlink(m, d0, 1) == m

    def test_unlink_back_warns_when_no_link(self):
        m = make_map([1])
        with pytest.warns(UserWarning, match="no incoming"):
            assert unlink_back(m, d1, 1) == m

    def test_unlink_silent_when_present(self, two_dart_edge):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert unlink(two_dart_edge, d0, 1) == make_map([1, 2])
            assert unlink_back(two_dart_edge, d0, 2) == make_map([1, 2])
