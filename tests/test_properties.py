"""Property-based tests.

The seeded fuzzers elsewhere draw from fixed distributions; hypothesis
explores the operation space adversarially and shrinks counterexamples,
so these properties get a different kind of coverage.  Maps are built
from drawn operation lists, applying exactly the attempts that satisfy
the link preconditions, which keeps every generated term well formed
and every example reproducible from its drawn data.
"""

from hypothesis import given, settings, strategies as st

from hmap import (
    Dim,
    IncrementalMap,
    break_link,
    build_index,
    counts,
    counts_incremental,
    is_well_formed,
    link,
    parse_map,
    planar_after_link,
    serialize_map,
)

MAX_DARTS = 9


@st.composite
def maps(draw):
    n = draw(st.integers(min_value=0, max_value=MAX_DARTS))
    hi = max(n, 1)
    ops = draw(st.lists(
        st.tuples(st.integers(0, 1), st.integers(1, hi), st.integers(1, hi)),
        max_size=3 * n))
    inc = IncrementalMap()
    for d in range(1, n + 1):
        inc.insert(d)
    for kk, x, y in ops:
        k = Dim(kk)
        if n and inc.can_link(k, x, y):
            inc.link(k, x, y)
    return inc.term()


@given(maps())
def test_generated_maps_are_well_formed(m):
    assert is_well_formed(m)


@given(maps())
def test_serialize_parse_identity(m):
    assert parse_map(serialize_map(m)) == m


@given(maps())
def test_count_backends_agree(m):
    assert counts(m) == counts_incremental(m)


@given(maps())
def test_characteristic_bounds(m):
    s = counts(m)
    assert s.euler_characteristic % 2 == 0
    assert s.genus >= 0
    assert 2 * s.n_components >= s.euler_characteristic


@settings(max_examples=200)
@given(maps(), st.data())
def test_link_criterion_matches_direct_check(m, data):
    idx = build_index(m)
    k = Dim(data.draw(st.integers(0, 1), label="dim"))
    options = [(x, y)
               for x in idx.darts if not idx.has_successor(k, x)
               for y in idx.darts
               if not idx.has_predecessor(k, y) and idx.closed_successor(k, x) != y]
    if not options:
        return
    x, y = data.draw(st.sampled_from(options), label="pair")
    predicted = planar_after_link(idx, k, x, y)
    m2 = link(m, k, x, y)
    assert predicted == build_index(m2).stats.planar
    # and breaking the fresh link is a strict inverse
    assert break_link(m2, k, x) == m
