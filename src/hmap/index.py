"""One-pass index of a map term.

The recursive observers in :mod:`hmap.fmap` walk the term on every query,
which is the right reference semantics but quadratic in bulk use.  A
:class:`HypermapIndex` is a chain kernel that adopts the two trackers
of its term: those of ``kernel_of``'s one checked replay, or, in the
exhaustive sweep, the 0-tracker and the 1-tracker of two checked
one-dimension replays.  They hold the explicit links and the closure
permutations of both dimensions with their inverses.  To them the index
adds the face permutation and the face and component partitions, and on
first read the edge and vertex partitions and the double-link table,
answering all further queries in O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Collection

from .fmap import (
    _ZERO,
    NIL,
    ChainKernel,
    ChainTracker,
    Dart,
    Dim,
    FreeMap,
    Insert,
    InternalInvariantError,
    Void,
    _dim,
    kernel_of,
)
from .unionfind import _union


@dataclass(frozen=True, slots=True)
class MapStats:
    """The counting observables of a map, in one immutable record."""

    n_darts: int
    n_edges: int
    n_vertices: int
    n_faces: int
    n_components: int
    euler_characteristic: int
    genus: int
    planar: bool

    # Each slot is written through its descriptor, as in ``Insert``: the
    # generated __init__'s object.__setattr__ took a fifth of an index build.
    def __init__(self, n_darts: int, n_edges: int, n_vertices: int, n_faces: int,
                 n_components: int, euler_characteristic: int, genus: int,
                 planar: bool) -> None:
        _STATS_ND(self, n_darts)
        _STATS_NE(self, n_edges)
        _STATS_NV(self, n_vertices)
        _STATS_NF(self, n_faces)
        _STATS_NC(self, n_components)
        _STATS_EC(self, euler_characteristic)
        _STATS_G(self, genus)
        _STATS_P(self, planar)

    @classmethod
    def from_counts(cls, nd: int, ne: int, nv: int, nf: int, nc: int) -> "MapStats":
        ec = nv + ne + nf - nd
        if ec % 2 != 0:
            raise InternalInvariantError(
                f"odd euler characteristic {ec} from counts "
                f"nd={nd} ne={ne} nv={nv} nf={nf}")
        genus = nc - ec // 2
        return cls(nd, ne, nv, nf, nc, ec, genus, genus == 0)


_STATS_ND, _STATS_NE, _STATS_NV, _STATS_NF, _STATS_NC, _STATS_EC, _STATS_G, _STATS_P = (
    MapStats.n_darts.__set__, MapStats.n_edges.__set__, MapStats.n_vertices.__set__,
    MapStats.n_faces.__set__, MapStats.n_components.__set__,
    MapStats.euler_characteristic.__set__, MapStats.genus.__set__, MapStats.planar.__set__)


def _cycle(perm: dict[Dart, Dart], z: Dart) -> list[Dart]:
    """The ``perm``-cycle through ``z``, in order from ``z``.

    A walk that has not returned to ``z`` after ``len(perm)`` steps means
    ``perm`` is not a permutation; that is an error, not an endless loop.
    """
    cycle = [z]
    cur = perm[z]
    n = len(perm)
    while cur != z:
        if len(cycle) == n:
            raise InternalInvariantError(
                f"walk from dart {z} does not return: not a permutation")
        cycle.append(cur)
        cur = perm[cur]
    return cycle


def _same(ids: dict[Dart, Dart], a: Dart, b: Dart) -> bool:
    """True when ``ids`` gives both darts one label; false if either is absent."""
    ia = ids.get(a)
    return ia is not None and ia == ids.get(b)


def _chain_ids(ch: ChainTracker) -> dict[Dart, Dart]:
    """Label each dart with the bottom of its open chain, walking every
    chain along ``succ`` from its bottom, ``closed_succ`` of its top."""
    cs, succ = ch.closed_succ, ch.succ
    ids: dict[Dart, Dart] = {}
    for top in cs:
        if top not in succ:
            z = bottom = cs[top]
            while z != top:
                ids[z] = bottom
                z = succ[z]
            ids[top] = bottom
    return ids


class _lazy_view:
    """A view built on first read and stored in the instance ``__dict__``,
    where every later read finds it before this descriptor: what
    ``functools.cached_property`` does, without the lock it takes on each
    first read in Python 3.11."""

    def __init__(self, build: Callable[[Any], Any]) -> None:
        self.build = build
        self.name = build.__name__
        self.__doc__ = build.__doc__

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            return self
        view = obj.__dict__[self.name] = self.build(obj)
        return view


class HypermapIndex(ChainKernel):
    """Precomputed views of one well-formed map term.

    The index adopts the trackers of its term, sharing them: those of
    ``kernel_of(m)`` (MapError on a term that is not well formed),
    unless ``chains`` is given, the caller's promise that it is the
    0-tracker and the 1-tracker of checked replays of ``m``'s steps;
    only the exhaustive sweep gives them.  Its chains answer the
    explicit links, the closures, the face successors and the
    construction preconditions on the indexed map, and ``closure[k]`` is
    the closure permutation of dimension ``k``: the tracker's own dict,
    shared and not copied, so it is read-only.
    Built with it are what ``stats`` counts: the sorted ``darts``,
    ``face_perm`` as a permutation dict, and the labellings ``face_ids``,
    by one cycle walk of ``face_perm`` per face, and ``component_ids``,
    by one walk of both closures per component; each walk starts from
    the least dart of its orbit, which labels the orbit, and counts it.
    Built on first read are ``edge_ids`` and ``vertex_ids``, which label
    each dart with the bottom of its open chain, by a walk of the
    chain's explicit links from that bottom, and ``double_links``, the
    one table every ring question reads.
    The tables built with the index read only the two closures, so
    ``recut`` hands them to the index of any term with equal closures,
    whatever the cuts of its chains.
    """

    __slots__ = (
        "term", "darts", "closure", "face_perm", "face_ids", "component_ids", "stats",
        "__dict__",
    )

    def __init__(self, m: FreeMap, *,
                 chains: tuple[ChainTracker, ChainTracker] | None = None) -> None:
        self._adopt(kernel_of(m).chains if chains is None else chains)
        ch0, ch1 = self.chains
        cp0, cp1 = ch0.closed_pred, ch1.closed_pred
        darts = sorted(ch0.closed_succ)

        self.term = m
        self.darts = tuple(darts)
        cs0, cs1 = self.closure = (ch0.closed_succ, ch1.closed_succ)
        self.face_perm = face_perm = {d: cp1[cp0[d]] for d in darts}
        self.face_ids = face_ids = {}
        nf = 0
        for d in darts:
            z = d
            nf += z not in face_ids
            while z not in face_ids:
                face_ids[z] = d
                z = face_perm[z]
        # the two closures generate the components: walk each 0-cycle
        # reached, queueing the 1-image of every dart on it
        self.component_ids = comp_ids = {}
        nc = 0
        for d in darts:
            if d not in comp_ids:
                nc += 1
                todo = [d]
                for z in todo:
                    while z not in comp_ids:
                        comp_ids[z] = d
                        todo.append(cs1[z])
                        z = cs0[z]
        # each k-link joins two open k-chains: one edge or vertex fewer
        nd = len(darts)
        self.stats = MapStats.from_counts(nd, nd - len(ch0.succ), nd - len(ch1.succ), nf, nc)

    def recut(self, m: FreeMap,
              chains: tuple[ChainTracker, ChainTracker]) -> "HypermapIndex":
        """The index of ``m``, given ``chains`` as ``HypermapIndex(m,
        chains=...)`` takes them, sharing this index's tables where they
        must agree; InternalInvariantError unless both closures of
        ``chains`` equal this index's.

        Equal closures mean the same darts, faces and components, and
        the same counts: a k-chain closes to one cycle of ``closure[k]``,
        so there are as many edges (vertices) as 0-cycles (1-cycles),
        wherever each chain is cut.  So ``darts``, ``face_perm``,
        ``face_ids``, ``component_ids`` and ``stats`` are shared.  A view
        built on first read also reads one tracker's explicit links, and
        is shared only when already built and read from that very
        tracker: ``edge_ids`` and ``double_links`` when ``chains[0]`` is
        this index's 0-tracker, ``vertex_ids`` when ``chains[1]`` is its
        1-tracker.  Nothing is copied, so like the trackers the shared
        tables are read-only.
        """
        for k, ch in enumerate(chains):
            if ch.closed_succ != self.closure[k]:
                raise InternalInvariantError(
                    f"recut to a {k}-tracker whose closure is not this index's")
        cls = type(self)
        idx = cls.__new__(cls)
        idx._adopt(chains)
        idx.term, idx.closure = m, (chains[0].closed_succ, chains[1].closed_succ)
        idx.darts, idx.face_perm, idx.face_ids = self.darts, self.face_perm, self.face_ids
        idx.component_ids, idx.stats = self.component_ids, self.stats
        views = self.__dict__
        for name, k in (("edge_ids", 0), ("vertex_ids", 1), ("double_links", 0)):
            if name in views and chains[k] is self.chains[k]:
                idx.__dict__[name] = views[name]
        return idx

    @_lazy_view
    def edge_ids(self) -> dict[Dart, Dart]:
        return _chain_ids(self.chains[0])

    @_lazy_view
    def vertex_ids(self) -> dict[Dart, Dart]:
        return _chain_ids(self.chains[1])

    @_lazy_view
    def double_links(self) -> dict[Dart, tuple[Dart, Dart, Dart]]:
        """For each dart ``x`` with a 0-link ``x -> y``, in link order:
        the edge, that is the bottom ``x0`` of ``x``'s open 0-chain, then
        the face of ``y`` and the face of ``x0``, the two faces the
        double-link borders.  The bottoms come from a walk of their own,
        so a ring search does not also build ``edge_ids``."""
        bottoms, face_ids = _chain_ids(self.chains[0]), self.face_ids
        return {x: (bottoms[x], face_ids[y], face_ids[bottoms[x]])
                for x, y in self.chains[0].succ.items()}

    # -- chain ends, from the labels -------------------------------------------

    def top(self, k: Dim, z: Dart) -> Dart:
        b = self.bottom(k, z)
        return self.chains[_dim(k)].closed_pred[b] if b != NIL else NIL

    def bottom(self, k: Dim, z: Dart) -> Dart:
        return (self.vertex_ids if _dim(k) else self.edge_ids).get(z, NIL)

    # -- orbit queries -----------------------------------------------------

    def same_face(self, a: Dart, b: Dart) -> bool:
        return _same(self.face_ids, a, b)

    def same_component(self, a: Dart, b: Dart) -> bool:
        return _same(self.component_ids, a, b)


def build_index(m: FreeMap) -> HypermapIndex:
    """Index ``m``; MapError if ``m`` is not well formed."""
    return HypermapIndex(m)


def count_components(m: FreeMap, broken: Collection[Dart] = ()) -> int:
    """Number of connected components of ``m``, without an index, once
    the 0-link out of each dart in ``broken`` is left out.

    One walk down the ``base`` chain: each insert adds a component and
    each link that joins two removes one, in any order, so the links go
    into a :mod:`hmap.unionfind` forest from the most recent step.  A
    well-formed term has at most one 0-link out of each dart, so leaving
    out those of ``broken`` counts the map that breaking them gives:
    for a valid ring, ``count_components(m, {it.x for it in ring})``
    equals ``count_components(break_ring(m, ring))``, and no broken term
    is built.  It does not check the term, so ``m`` must be well formed.
    """
    parent: dict[Dart, Dart] = {}
    n = 0
    while not isinstance(m, Void):
        if isinstance(m, Insert):
            n += 1
        elif not (m.x in broken and m.k is _ZERO) and _union(parent, m.x, m.y):
            n -= 1
        m = m.base
    return n


def ensure_index(m: FreeMap | HypermapIndex) -> HypermapIndex:
    """The index of a map given as a term or as its index: an index is
    used as it stands, a term gets a checked build."""
    return m if isinstance(m, HypermapIndex) else build_index(m)


def require_well_formed(m: FreeMap | HypermapIndex) -> tuple[FreeMap, ChainKernel]:
    """The term and a kernel of a map given as a term or as its index,
    for callers that read no orbit labels: ``(m.term, m)`` for an index,
    else ``m`` and the kernel of its one checked replay."""
    return (m.term, m) if isinstance(m, HypermapIndex) else (m, kernel_of(m))
