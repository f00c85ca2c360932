import pytest

from hmap import Dim, FreeMap, Insert, Link, Void, link, make_map
from hmap.fmap import history

d0 = Dim.zero
d1 = Dim.one


def build_fixture15() -> FreeMap:
    """15-dart, 3-component sample map.

    Component one is a 12-dart blob with a 3-dart edge and a 6-dart
    vertex, component two an isolated dart, component three a pair of
    darts double-linked at both dimensions.  Genus 1, so not planar.
    """
    m = make_map(range(1, 16))
    for x, y in [(1, 6), (2, 9), (4, 3), (3, 5), (7, 12), (8, 10), (10, 11), (14, 15)]:
        m = link(m, d0, x, y)
    for x, y in [(4, 1), (1, 2), (2, 3), (5, 6), (6, 12), (12, 10), (10, 11), (11, 9), (14, 15)]:
        m = link(m, d1, x, y)
    return m


def vertex_chains(*vertices):
    """The 1-links that lay out each vertex's darts, in the order given,
    as one open 1-chain."""
    return [(d1, a, b) for darts in vertices for a, b in zip(darts, darts[1:])]


def grid_map(k: int) -> FreeMap:
    """The k x k grid: each grid edge is two new darts with a 0-link
    a -> b, and each vertex's darts in E, N, W, S order form one 1-chain."""
    at = {(i, j): {} for i in range(k) for j in range(k)}
    links = []
    for (i, j), here in at.items():
        for di, dj, out, back in ((1, 0, "E", "W"), (0, 1, "N", "S")):
            if (i + di, j + dj) in at:
                a = 2 * len(links) + 1
                links.append((d0, a, a + 1))
                here[out], at[i + di, j + dj][back] = a, a + 1
    return make_map(range(1, 2 * len(links) + 1),
                    links + vertex_chains(*[[ds[d] for d in "ENWS" if d in ds]
                                            for ds in at.values()]))


def swap(m: FreeMap) -> FreeMap:
    """``m`` with every k-link relinked at dimension 1 - k, step for step.

    Its closures are (alpha1, alpha0), and its face permutation
    alpha0^-1 alpha1^-1 is conjugate to m's alpha1^-1 alpha0^-1: edges and
    vertices trade places, and faces, components and genus stay."""
    out: FreeMap = Void()
    for step in history(m):
        if isinstance(step, Insert):
            out = Insert(out, step.x)
        else:
            out = Link(out, d0 if step.k is d1 else d1, step.x, step.y)
    return out


def build_two_dart_edge() -> FreeMap:
    # one 0-link between two darts: one edge, two vertices, one face
    return make_map([1, 2], [(d0, 1, 2)])


def build_digon() -> FreeMap:
    """Two vertices joined by two edges; two faces, planar."""
    return make_map([1, 2, 3, 4], [(d1, 2, 3), (d1, 4, 1), (d0, 1, 2), (d0, 3, 4)])


def build_digon_open() -> FreeMap:
    """The digon just before its last 0-link: a single 4-dart face."""
    return make_map([1, 2, 3, 4], [(d1, 2, 3), (d1, 4, 1), (d0, 1, 2)])


def build_torus_quad() -> FreeMap:
    """One vertex, two edges crossing: genus 1."""
    return make_map([1, 2, 3, 4],
                    [(d1, 1, 2), (d1, 2, 3), (d1, 3, 4), (d0, 1, 3), (d0, 2, 4)])


def build_torus_quad_open() -> FreeMap:
    """The same construction without its final 0-link; still planar."""
    return make_map([1, 2, 3, 4],
                    [(d1, 1, 2), (d1, 2, 3), (d1, 3, 4), (d0, 1, 3)])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the release-checklist lines; capture would swallow them."""
    try:
        import test_acceptance
    except ImportError:
        return
    lines = getattr(test_acceptance, "RESULTS", [])
    if lines:
        terminalreporter.section("release checklist")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def fixture15():
    return build_fixture15()


@pytest.fixture
def two_dart_edge():
    return build_two_dart_edge()


@pytest.fixture
def digon():
    return build_digon()


@pytest.fixture
def digon_open():
    return build_digon_open()


@pytest.fixture
def torus_quad():
    return build_torus_quad()


@pytest.fixture
def torus_quad_open():
    return build_torus_quad_open()
