"""The one-pass index and the incremental builder must agree with the
recursive observers everywhere."""

import dataclasses
import inspect
import random

import pytest

from hmap import (
    Dim,
    IncrementalMap,
    Insert,
    Link,
    MapError,
    MapStats,
    RingItem,
    Void,
    bottom,
    break_ring,
    build_index,
    candidate_rings,
    closed_face_predecessor,
    closed_face_successor,
    closed_predecessor,
    closed_successor,
    exhaustive_jordan,
    face_predecessor,
    face_successor,
    has_dart,
    predecessor,
    same_component_structural,
    successor,
    top,
)
from hmap import InternalInvariantError, fmap, index, jordan
from hmap.fmap import history, kernel_of
from hmap.index import HypermapIndex, count_components
from hmap.jordan import enumerate_maps, random_map, random_planar_map

from conftest import grid_map

d0 = Dim.zero
d1 = Dim.one


def _total_queries(z):
    """(observer name, arguments) of every nil-total observer at ``z``."""
    yield "has_dart", (z,)
    for k in Dim:
        for name in ("successor", "predecessor", "has_successor", "has_predecessor",
                     "closed_successor", "closed_predecessor"):
            yield name, (k, z)
    for name in ("face_successor", "face_predecessor",
                 "closed_face_successor", "closed_face_predecessor"):
        yield name, (z,)


def incremental_replay(m):
    inc = IncrementalMap()
    for node in history(m):
        if isinstance(node, Insert):
            inc.insert(node.x)
        else:
            inc.link(node.k, node.x, node.y)
    return inc


def assert_index_matches_reference(m):
    idx = build_index(m)
    darts = list(idx.darts) + [0, max(idx.darts, default=0) + 7]
    for z in darts:
        assert idx.has_dart(z) == has_dart(m, z)
        for k in Dim:
            assert idx.successor(k, z) == successor(m, k, z)
            assert idx.predecessor(k, z) == predecessor(m, k, z)
            assert idx.top(k, z) == top(m, k, z)
            assert idx.bottom(k, z) == bottom(m, k, z)
            assert idx.closed_successor(k, z) == closed_successor(m, k, z)
            assert idx.closed_predecessor(k, z) == closed_predecessor(m, k, z)
        assert idx.face_successor(z) == face_successor(m, z)
        assert idx.face_predecessor(z) == face_predecessor(m, z)
        assert idx.closed_face_successor(z) == closed_face_successor(m, z)
        assert idx.closed_face_predecessor(z) == closed_face_predecessor(m, z)
    # the incremental builder inherits the same observers from the kernel
    inc = incremental_replay(m)
    for z in darts + [-3]:
        for name, args in _total_queries(z):
            assert getattr(inc, name)(*args) == getattr(fmap, name)(m, *args), (name, args)
    for z in idx.darts:
        assert inc.closed_face_successor(z) == inc.face_next[z]


def test_empty_index():
    idx = build_index(Void())
    assert idx.darts == ()
    st = idx.stats
    assert (st.n_darts, st.n_edges, st.n_vertices, st.n_faces, st.n_components) == (0, 0, 0, 0, 0)
    assert st.euler_characteristic == 0 and st.genus == 0 and st.planar


def test_two_dart_edge_closure(two_dart_edge):
    idx = build_index(two_dart_edge)
    assert idx.closure[0] == {1: 2, 2: 1}


def test_fixture_counts(fixture15):
    st = build_index(fixture15).stats
    assert (st.n_darts, st.n_edges, st.n_vertices, st.n_faces, st.n_components) == (15, 7, 6, 6, 3)


def test_rejects_ill_formed():
    from hmap import Insert, Link
    bad = Link(Insert(Void(), 1), d0, 1, 1)
    with pytest.raises(MapError, match="not well formed"):
        build_index(bad)


def test_reference_agreement_on_fixtures(fixture15, digon, torus_quad, two_dart_edge):
    for m in (fixture15, digon, torus_quad, two_dart_edge, Void()):
        assert_index_matches_reference(m)


def test_reference_agreement_on_all_small_maps():
    # every top and bottom of an inner dart, on every chain shape
    for m in enumerate_maps(4):
        assert_index_matches_reference(m)


@pytest.mark.parametrize("seed", range(25))
def test_reference_agreement_randomized(seed):
    m = random_map(seed, 5 + seed % 14, 2 * seed + 5)
    assert_index_matches_reference(m)


def test_face_permutation_composition(fixture15):
    idx = build_index(fixture15)
    for z in idx.darts:
        assert idx.face_perm[z] == idx.closed_predecessor(
            Dim.one, idx.closed_predecessor(Dim.zero, z))


def test_odd_characteristic_is_internal_error():
    from hmap import InternalInvariantError, MapStats
    with pytest.raises(InternalInvariantError):
        MapStats.from_counts(nd=1, ne=1, nv=1, nf=0, nc=1)


def test_map_stats_is_frozen_and_built_from_its_fields():
    # MapStats writes its slots itself, not through the dataclass-generated
    # __init__; it must build the same record, so it takes every field in
    # order, none has a default or a post-init step
    st = MapStats.from_counts(nd=4, ne=2, nv=3, nf=1, nc=1)
    fields = dataclasses.fields(st)
    names = [f.name for f in fields]
    params = inspect.signature(MapStats.__init__).parameters
    assert list(params) == ["self", *names]
    assert all(f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING for f in fields)
    assert not hasattr(MapStats, "__post_init__")
    values = [getattr(st, f) for f in names]
    assert values == [4, 2, 3, 1, 1, 2, 0, True]
    assert repr(st) == ("MapStats(n_darts=4, n_edges=2, n_vertices=3, n_faces=1, "
                        "n_components=1, euler_characteristic=2, genus=0, planar=True)")
    copy = MapStats(**dict(zip(names, values)))
    assert MapStats(*values) == st == copy and hash(copy) == hash(st)
    assert MapStats(*values[:-1], False) != st
    assert dataclasses.replace(st, n_faces=3).n_faces == 3 and st.n_faces == 1
    for f, v in zip(names, values):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(st, f, v)
    with pytest.raises(TypeError):
        MapStats(*values, 1)
    with pytest.raises(TypeError):
        MapStats(*values[:-1])


def test_count_components_matches_index_on_all_small_maps():
    for m in enumerate_maps(4):
        assert count_components(m) == build_index(m).stats.n_components, m


def test_count_components_matches_index_on_every_ring_break_recount(monkeypatch):
    # each sweep recount walks the unbroken term without the ring's
    # 0-links; it must count the components of the term break_ring builds
    rings, recounts = [], []

    def searched(idx, max_len):
        for ring in candidate_rings(idx, max_len):
            rings.append(ring)
            yield ring

    def checked(m, broken=()):
        n = count_components(m, broken)
        ring = rings[-1]
        assert set(broken) == {it.x for it in ring}, (m, ring)
        assert n == build_index(break_ring(m, ring)).stats.n_components, (m, ring)
        recounts.append(n)
        return n

    monkeypatch.setattr(jordan, "candidate_rings", searched)
    monkeypatch.setattr(jordan, "count_components", checked)
    report = exhaustive_jordan(4, 3)
    assert report.passed and 0 < len(recounts) == len(rings) == report.rings_checked


def test_count_components_leaves_out_only_0_links():
    one = Link(Insert(Insert(Void(), 1), 2), d1, 1, 2)
    assert count_components(one) == count_components(one, {1}) == 1
    # dart 1 carries a 0-link to 2 and a 1-link to 3: only the first goes
    both = Link(Link(Insert(Insert(Insert(Void(), 1), 2), 3), d0, 1, 2), d1, 1, 3)
    assert count_components(both) == count_components(both, {2, 3}) == 1
    assert count_components(both, {1}) == 2
    assert count_components(both, {1}) == count_components(break_ring(both, [RingItem(1, True)]))


def test_lazy_views_are_built_on_first_read_only(monkeypatch):
    idx = build_index(grid_map(3))
    calls = []
    real = index._chain_ids
    monkeypatch.setattr(index, "_chain_ids", lambda ch: calls.append(ch.k) or real(ch))
    for name in ("edge_ids", "vertex_ids", "double_links"):
        assert name not in vars(idx)
        view = getattr(idx, name)
        assert vars(idx)[name] is view is getattr(idx, name)
    assert calls == [0, 1, 0]


def test_count_components_matches_structural_oracle():
    for m in enumerate_maps(3):
        reps = []
        for d in (n.x for n in history(m) if isinstance(n, Insert)):
            if not any(same_component_structural(m, r, d) for r in reps):
                reps.append(d)
        assert count_components(m) == len(reps), m


@pytest.mark.parametrize("n", (1000, 2000, 3000))
def test_count_components_on_large_planar_maps(n):
    m = random_planar_map(n, n, 2 * n)
    assert count_components(m) == build_index(m).stats.n_components
    rings = candidate_rings(build_index(m), 4)
    for ring in (next(rings), next(r for r in rings if len(r) >= 2)):
        broken = break_ring(m, ring)
        nc = build_index(broken).stats.n_components
        assert count_components(broken) == nc
        assert count_components(m, {it.x for it in ring}) == nc, ring


def _chain_walk(m):
    """The sorted darts, the explicit links and the closures of ``m``,
    from its steps alone: each closure walks every open chain of the
    explicit links from its bottom, a dart with no explicit predecessor,
    and closes it from its top back to that bottom."""
    darts, links = [], ({}, {})
    for node in history(m):
        if isinstance(node, Insert):
            darts.append(node.x)
        else:
            links[node.k.value][node.x] = node.y
    closure = ({}, {})
    for succ, closed in zip(links, closure):
        for bottom in set(darts) - set(succ.values()):
            z = bottom
            while z in succ:
                closed[z] = z = succ[z]
            closed[z] = bottom
    return sorted(darts), links, closure


def _assert_kernel_matches_walk(kern, m):
    """Each tracker holds the closure of the chain walk and its inverse:
    two inverse permutations of the darts, agreeing with the explicit
    links on every linked dart, with each top's closed successor a
    bottom."""
    darts, links, closure = _chain_walk(m)
    for ch, succ, want in zip(kern.chains, links, closure):
        cs, cp = ch.closed_succ, ch.closed_pred
        assert ch.succ == succ and cs == want, m
        assert sorted(cs) == sorted(cs.values()) == sorted(cp) == darts, m
        assert all(cp[cs[d]] == d for d in darts), m
        assert all(cs[x] == y for x, y in ch.succ.items()), m
        bottoms = set(darts) - set(succ.values())
        assert all(cs[d] in bottoms for d in darts if d not in succ), m


def _orbit_ids(starts, *maps):
    """Label each dart reached from ``starts`` along the images under
    ``maps`` (a dart a map does not hold has no image there) with the
    first start that reaches it: under permutations that is the start's
    orbit, since every permutation of a finite set has finite order, and
    under both directions of the explicit links its component.  A
    reference for the index's labels, which share no code with it.
    """
    ids = {}
    for d in starts:
        if d in ids:
            continue
        ids[d] = d
        todo = [d]
        for z in todo:
            for perm in maps:
                w = perm.get(z)
                if w is not None and w not in ids:
                    ids[w] = d
                    todo.append(w)
    return ids


def _eager_views(m):
    """Every view of the index, built from the chain walk: the face
    permutation from the inverse closures, each labelling through
    ``_orbit_ids``."""
    darts, links, closure = _chain_walk(m)
    inverse = [{w: d for d, w in c.items()} for c in closure]
    face_perm = {d: inverse[1][inverse[0][d]] for d in darts}
    bottoms = [sorted(set(darts) - set(succ.values())) for succ in links]
    return {
        "closure": closure,
        "face_perm": face_perm,
        "edge_ids": _orbit_ids(bottoms[0], closure[0]),
        "vertex_ids": _orbit_ids(bottoms[1], closure[1]),
        "face_ids": _orbit_ids(darts, face_perm),
        "component_ids": _orbit_ids(darts, *closure),
    }


def _assert_lazy_views_match_eager(m):
    want = _eager_views(m)
    counts = tuple(len(set(want[f"{kind}_ids"].values()))
                   for kind in ("edge", "vertex", "face", "component"))
    orders = (("edge_ids", "vertex_ids", "face_ids", "component_ids", "closure",
               "face_perm", "stats"),
              ("component_ids", "edge_ids", "stats", "closure", "vertex_ids",
               "face_perm", "face_ids"))
    _assert_kernel_matches_walk(kernel_of(m), m)
    for order in orders:
        idx = build_index(m)
        got = {name: getattr(idx, name) for name in order}
        st = got.pop("stats")
        assert got == want, m
        assert (st.n_edges, st.n_vertices, st.n_faces, st.n_components) == counts
        # a view is built once: a second read answers the same object
        assert all(getattr(idx, name) is view for name, view in got.items())


def test_lazy_views_equal_eager_ones_on_all_small_maps():
    for m in enumerate_maps(4):
        _assert_lazy_views_match_eager(m)


@pytest.mark.parametrize("seed", range(20))
def test_lazy_views_equal_eager_ones_on_large_planar_maps(seed):
    rng = random.Random(seed)
    n = rng.randint(200, 3000)
    _assert_lazy_views_match_eager(random_planar_map(seed, n, rng.randint(n // 2, 2 * n)))


def test_every_link_of_an_incremental_build_keeps_the_kernel_invariants():
    m = random_planar_map(7, 200, 300)
    inc = IncrementalMap()
    links = 0
    for node in history(m):
        if isinstance(node, Insert):
            inc.insert(node.x)
        else:
            inc.link(node.k, node.x, node.y)
            _assert_kernel_matches_walk(inc, inc.term())
            links += 1
    assert links > 200


def _double_links_oracle(m):
    """The double-link table from the recursive observers alone, in the
    order of the 0-links of ``m``: per 0-link ``x -> y``, the bottom
    ``x0`` of ``x``'s 0-chain and the faces of ``y`` and ``x0``, each
    face labelled by the least dart of its ``closed_face_successor``
    cycle."""
    face = {}
    for d in sorted(n.x for n in history(m) if isinstance(n, Insert)):
        z = d
        while z not in face:
            face[z] = d
            z = closed_face_successor(m, z)
    table = {}
    for n in history(m):
        if isinstance(n, Link) and n.k is d0:
            x0 = bottom(m, d0, n.x)
            table[n.x] = (x0, face[successor(m, d0, n.x)], face[x0])
    return table


def _assert_double_links_match_oracle(m):
    got = build_index(m).double_links
    want = _double_links_oracle(m)
    assert got == want, m
    assert list(got) == list(want), m  # link order, which the ring search shuffles


def test_double_links_equal_the_observer_oracle_on_all_maps_of_3_darts():
    for m in enumerate_maps(3):
        _assert_double_links_match_oracle(m)


def test_double_links_equal_the_observer_oracle_on_the_3x3_grid():
    _assert_double_links_match_oracle(grid_map(3))


@pytest.mark.parametrize("seed, n", [(1, 12), (2, 30), (3, 60)])
def test_double_links_equal_the_observer_oracle_on_planar_maps(seed, n):
    _assert_double_links_match_oracle(random_planar_map(seed, n, 2 * n))


LAZY_VIEWS = tuple(name for name, attr in vars(HypermapIndex).items()
                   if isinstance(attr, index._lazy_view))
INDEX_SLOTS = tuple(name for name in HypermapIndex.__slots__ if name != "__dict__") + LAZY_VIEWS


def test_recut_equals_build_index_across_every_cut():
    # the first map of each closure pair, with every view read, is recut
    # to each map of the pair, whose trackers may differ in either
    # dimension; only views read from the same tracker may be shared
    assert set(LAZY_VIEWS) == {"edge_ids", "vertex_ids", "double_links"}
    firsts: dict[tuple, HypermapIndex] = {}
    maps = 0
    for m, chains in jordan._maps(4):
        key = tuple(tuple(sorted(ch.closed_succ.items())) for ch in chains)
        first = firsts.get(key)
        if first is None:
            first = firsts[key] = HypermapIndex(m, chains=chains)
            for name in LAZY_VIEWS:
                getattr(first, name)
        cut = first.recut(m, chains)
        assert cut.term is m and cut.chains is chains
        assert cut.closure == tuple(ch.closed_succ for ch in chains)
        same = {"edge_ids": chains[0] is first.chains[0],
                "vertex_ids": chains[1] is first.chains[1],
                "double_links": chains[0] is first.chains[0]}
        assert {name: name in vars(cut) for name in LAZY_VIEWS} == same, m
        built = build_index(m)
        for slot in INDEX_SLOTS:
            assert getattr(cut, slot) == getattr(built, slot), (m, slot)
        maps += 1
    assert len(firsts) == 618 and maps == 5509


def test_recut_refuses_trackers_of_other_closures():
    two = Insert(Insert(Void(), 1), 2)
    idx = build_index(two)
    for k in (0, 1):
        other = Link(two, Dim(k), 1, 2)
        with pytest.raises(InternalInvariantError, match=f"recut to a {k}-tracker"):
            idx.recut(other, kernel_of(other).chains)
    # a cut of the same closures is taken
    edge, back = Link(two, d0, 1, 2), Link(two, d0, 2, 1)
    cut = build_index(edge).recut(back, kernel_of(back).chains)
    assert cut.term is back and cut.edge_ids == {1: 2, 2: 2}


def test_unknown_attribute_still_raises():
    idx = build_index(Void())
    with pytest.raises(AttributeError, match="no attribute 'edge_idz'"):
        idx.edge_idz
