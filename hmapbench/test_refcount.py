"""Fast checks of the benchmark's reference counter (no timing asserts)."""

import pytest

import refcount

TWO_DART_EDGE = [("i", 1), ("i", 2), ("l", 0, 1, 2)]
DIGON = [("i", 1), ("i", 2), ("i", 3), ("i", 4),
         ("l", 1, 2, 3), ("l", 1, 4, 1), ("l", 0, 1, 2), ("l", 0, 3, 4)]
TORUS_QUAD = [("i", 1), ("i", 2), ("i", 3), ("i", 4),
              ("l", 1, 1, 2), ("l", 1, 2, 3), ("l", 1, 3, 4),
              ("l", 0, 1, 3), ("l", 0, 2, 4)]


@pytest.mark.parametrize("steps, expected", [
    (TWO_DART_EDGE, (2, 1, 2, 1, 1, 2, 0)),
    (DIGON, (4, 2, 2, 2, 1, 2, 0)),
    (TORUS_QUAD, (4, 2, 1, 1, 1, 0, 1)),
    ([], (0, 0, 0, 0, 0, 0, 0)),
])
def test_hand_derived_goldens(steps, expected):
    assert refcount.well_formed(steps)
    assert refcount.count(steps) == expected


def test_closed_form_matches_oeis_a000262():
    assert [refcount.sets_of_lists(n) for n in range(6)] == [1, 1, 3, 13, 73, 501]
    assert refcount.map_count(4) == 5509
    assert refcount.map_count(5) == 256510


@pytest.mark.parametrize("n", range(6))
def test_enumerated_chain_systems_match_closed_form(n):
    assert sum(1 for _ in refcount.path_systems(n)) == refcount.sets_of_lists(n)


def test_small_maps_are_well_formed_and_counted():
    maps = list(refcount.small_maps(3))
    assert len(maps) == refcount.map_count(3)
    assert all(refcount.well_formed(s) for s in maps)
    assert all(refcount.genus(s) >= 0 for s in maps)


def test_ill_formed_steps_are_rejected():
    assert not refcount.well_formed([("i", 1), ("i", 1)])
    assert not refcount.well_formed([("i", 1), ("l", 0, 1, 1)])
    assert not refcount.well_formed(TWO_DART_EDGE + [("l", 0, 2, 1)])
    assert not refcount.well_formed([("i", 0)])


def test_parse_steps_and_break():
    text = "hmap 1\n# a comment\ni 1\ni 2\nl 0 1 2\n"
    assert refcount.parse_steps(text) == TWO_DART_EDGE
    assert refcount.n_components(refcount.break_zero_links(TWO_DART_EDGE, [1])) == 2
    with pytest.raises(ValueError):
        refcount.parse_steps("i 1\n")
