import itertools
import random

import pytest

from hmap import (
    ConstraintError,
    Dim,
    Orbit,
    OrbitKind,
    all_orbits,
    build_index,
    closed_face_successor,
    closed_successor,
    make_map,
    orbit,
    same_component,
    same_edge,
    same_face,
    same_orbit,
    same_vertex,
)
from hmap.jordan import enumerate_maps, random_map

from conftest import same_component_structural


def test_fixture_orbit_sets(fixture15):
    assert set(orbit(fixture15, OrbitKind.edge, 3).members) == {3, 5, 4}
    assert set(orbit(fixture15, OrbitKind.vertex, 3).members) == {3, 4, 1, 2}
    assert set(orbit(fixture15, OrbitKind.face, 8).members) == {8, 10}
    assert orbit(fixture15, OrbitKind.face, 13).members == (13,)


def test_fixture_face_iteration_order(fixture15):
    # cycle order from the queried dart
    assert orbit(fixture15, OrbitKind.face, 1).members == (1, 5, 2, 11, 12, 7, 6, 4, 9)


def test_orbit_members_follow_the_recursive_successors(fixture15):
    # cycle order, not just the member set, against the term oracle
    steps = {
        OrbitKind.edge: lambda m, z: closed_successor(m, Dim.zero, z),
        OrbitKind.vertex: lambda m, z: closed_successor(m, Dim.one, z),
        OrbitKind.face: closed_face_successor,
    }
    for m in [fixture15, *enumerate_maps(3)]:
        idx = build_index(m)
        for kind, step in steps.items():
            for z in idx.darts:
                members = orbit(idx, kind, z).members
                assert [step(m, d) for d in members] == [*members[1:], members[0]], \
                    (m, kind, z)


def test_orbit_period_and_rep(fixture15):
    orb = orbit(fixture15, OrbitKind.vertex, 10)
    assert orb.period == 6
    assert orb.representative == min(orb.members)
    assert orb.members[0] == 10


def test_orbit_missing_dart(fixture15):
    with pytest.raises(ConstraintError):
        orbit(fixture15, OrbitKind.edge, 99)


@pytest.mark.parametrize("kind", ["edge", "vertex", "face", "component", 0, None])
def test_a_kind_that_is_not_an_orbit_kind_raises(kind):
    # a string naming a kind once fell through to the face permutation
    m = make_map([1, 2, 3], [(Dim.zero, 1, 2), (Dim.one, 2, 3)])
    for call in (lambda: orbit(m, kind, 1), lambda: all_orbits(m, kind),
                 lambda: same_orbit(m, kind, 1, 2)):
        with pytest.raises(TypeError, match=f"^not an orbit kind: {kind!r}$"):
            call()
    assert orbit(m, OrbitKind.edge, 1).members == (1, 2)


def test_component_orbit(fixture15):
    orb = orbit(fixture15, OrbitKind.component, 14)
    assert orb.members == (14, 15)
    assert orbit(fixture15, OrbitKind.component, 7).members == tuple(range(1, 13))


def test_expf_values(fixture15):
    assert same_face(fixture15, 1, 5)
    assert not same_face(fixture15, 5, 3)


def test_eqc_values(fixture15):
    assert same_component(fixture15, 1, 5)
    assert not same_component(fixture15, 1, 13)
    assert not same_component(make_map([1, 2]), 1, 2)


def test_reflexive_only_for_existing(fixture15):
    for kind in OrbitKind:
        assert same_orbit(fixture15, kind, 7, 7)
        assert not same_orbit(fixture15, kind, 99, 99)


def test_all_orbits_partition(fixture15):
    idx = build_index(fixture15)
    for kind in OrbitKind:
        orbs = all_orbits(idx, kind)
        seen = list(itertools.chain.from_iterable(o.members for o in orbs))
        assert sorted(seen) == list(idx.darts)
        assert sum(o.period for o in orbs) == idx.stats.n_darts
        assert [o.representative for o in orbs] == sorted(o.representative for o in orbs)


@pytest.mark.parametrize("seed", range(10))
def test_equivalence_relation_properties(seed):
    m = random_map(seed, 12, 20)
    idx = build_index(m)
    rng = random.Random(seed)
    darts = list(idx.darts)
    for kind in OrbitKind:
        for _ in range(40):
            a, b, c = (rng.choice(darts) for _ in range(3))
            assert same_orbit(idx, kind, a, a)
            assert same_orbit(idx, kind, a, b) == same_orbit(idx, kind, b, a)
            if same_orbit(idx, kind, a, b) and same_orbit(idx, kind, b, c):
                assert same_orbit(idx, kind, a, c)


@pytest.mark.parametrize("seed", range(10))
def test_faces_refine_components(seed):
    m = random_map(seed, 10, 18)
    idx = build_index(m)
    for a in idx.darts:
        for b in idx.darts:
            if same_face(idx, a, b):
                assert same_component(idx, a, b)


@pytest.mark.parametrize("seed", range(10))
def test_uniform_period(seed):
    m = random_map(seed, 10, 15)
    idx = build_index(m)
    for kind in (OrbitKind.edge, OrbitKind.vertex, OrbitKind.face):
        for orb in all_orbits(idx, kind):
            for member in orb.members:
                assert orbit(idx, kind, member).period == orb.period


class TestStructuralComponents:
    """The term-recursive connectivity must agree with union-find."""

    def test_fixture(self, fixture15):
        assert same_component_structural(fixture15, 1, 5)
        assert not same_component_structural(fixture15, 1, 13)

    def test_nonexistent_is_never_connected(self, fixture15):
        assert not same_component_structural(fixture15, 99, 99)
        assert not same_component_structural(fixture15, 1, 99)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_union_find(self, seed):
        m = random_map(seed, 9, 14)
        idx = build_index(m)
        for a in idx.darts:
            for b in idx.darts:
                assert same_component_structural(m, a, b) == \
                    same_component(idx, a, b), (a, b)


def test_orbit_dataclass_basics():
    orb = Orbit(OrbitKind.edge, 1, (1, 2, 3))
    assert orb.period == 3
