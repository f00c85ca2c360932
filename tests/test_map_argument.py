"""Every function that reads a map takes the term or its index.

An index is used as it stands and a term is indexed first, so each
answer on ``build_index(m)`` must equal the answer on ``m`` itself,
errors included.
"""

from collections.abc import Iterator
from itertools import product

import pytest

import hmap
from hmap import Dim, MapError, OrbitKind, RingItem, build_index, candidate_rings

FIXTURES = ("fixture15", "two_dart_edge", "digon", "digon_open",
            "torus_quad", "torus_quad_open")


def _darts(idx):
    # one dart outside the map, so the total predicates see it too
    return idx.darts + (max(idx.darts, default=0) + 1,)


def _items(idx):
    return [RingItem(x, flag) for x in idx.darts for flag in (True, False)]


def _rings(idx):
    """The valid rings of at most three items, each reversed, the empty
    list and every item list of one flag over all 0-linked darts."""
    rings = [list(r) for r in candidate_rings(idx, 3)]
    linked = sorted(idx.chains[0].succ)
    return (rings + [r[::-1] for r in rings] + [[]]
            + [[RingItem(x, flag) for x in linked] for flag in (True, False)])


# the arguments after the map, per function
ARGS = {
    **dict.fromkeys(("counts", "euler_characteristic", "genus", "is_planar",
                     "check_genus_theorem", "check_euler_formula", "to_dot"),
                    lambda idx: [()]),
    "orbit": lambda idx: list(product(OrbitKind, idx.darts)),
    "all_orbits": lambda idx: [(k,) for k in OrbitKind],
    "same_orbit": lambda idx: list(product(OrbitKind, _darts(idx), _darts(idx))),
    **dict.fromkeys(("same_edge", "same_vertex", "same_face", "same_component"),
                    lambda idx: list(product(_darts(idx), _darts(idx)))),
    "planar_after_link": lambda idx: list(product(Dim, _darts(idx), _darts(idx))),
    "planar_from_break": lambda idx: list(product(Dim, _darts(idx))),
    "break_disconnects": lambda idx: [(x,) for x in _darts(idx)],
    "face_anchor": lambda idx: [(item,) for item in _items(idx)],
    "adjacent_faces": lambda idx: list(product(_items(idx), _items(idx))),
    **dict.fromkeys(("check_ring", "ring_edges_unique", "ring_continuous",
                     "ring_closed", "ring_faces_distinct", "is_ring",
                     "jordan_check", "first_break_keeps_connected",
                     "tail_is_ring_after_first_break"),
                    lambda idx: [(ring,) for ring in _rings(idx)]),
    "find_ring": lambda idx: list(product((1, 2, 3), (0, 1))),
    "candidate_rings": lambda idx: [(n,) for n in (0, 1, 2, 3)],
}


def _answer(f, m, args):
    """(True, answer), or (False, the error) when ``f`` refuses; the
    answer of an iterator is the list of what it yields."""
    try:
        out = f(m, *args)
        return True, list(out) if isinstance(out, Iterator) else out
    except MapError as exc:
        return False, (type(exc), str(exc))


def test_the_table_names_30_functions():
    assert len(ARGS) == 30
    assert set(ARGS) <= set(hmap.__all__)


@pytest.mark.parametrize("name", sorted(ARGS))
def test_term_and_index_answer_alike(name, request):
    f = getattr(hmap, name)
    answered = 0
    for fixture in FIXTURES:
        m = request.getfixturevalue(fixture)
        idx = build_index(m)
        for args in ARGS[name](idx):
            want = _answer(f, m, args)
            assert _answer(f, idx, args) == want, (fixture, args)
            answered += want[0]
    assert answered > 0


def test_jordan_outcome_keeps_the_indexed_term(digon):
    idx = build_index(digon)
    ring = next(candidate_rings(idx, 2))
    assert hmap.jordan_check(idx, ring).map_term is digon
