"""One-pass index of a map term.

The recursive observers in :mod:`hmap.fmap` walk the term on every query,
which is the right reference semantics but quadratic in bulk use.  A
:class:`HypermapIndex` is the kernel of its term with its orbits
labelled once, so it answers all further queries in O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Collection, Iterable

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
    Link,
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

    # Each slot is written through its descriptor, as in ``Insert``;
    # every index build makes one.
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

    The index adopts the trackers of its term, sharing them
    (``ChainKernel._adopt``): those that a checked build, as in
    ``random_planar_map``, ``random_map`` or the exhaustive sweep, kept
    on ``m``, which the first index of ``m`` takes; else those of
    ``kernel_of(m)`` (MapError on a term that is not well formed).  Its
    chains answer the explicit links, the closures, the face successors
    and the construction preconditions on the indexed map, and
    ``closure[k]`` is the closure permutation of dimension ``k``: the
    tracker's own dict, shared and not copied, so it is read-only.
    Built with it are what ``stats`` counts: the sorted ``darts``,
    ``face_perm`` as a permutation dict, and the labellings ``face_ids``
    and ``component_ids``, each orbit labelled by its least dart.  Built
    on first read are ``edge_ids`` and ``vertex_ids``, which label each
    dart with the bottom of its open chain, and ``double_links``, the one
    table every ring question reads.
    """

    __slots__ = (
        "term", "darts", "closure", "face_perm", "face_ids", "component_ids", "stats",
        "__dict__",
    )

    def __init__(self, m: FreeMap) -> None:
        self._adopt(m)
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
    return _recount(m, (), broken)[0]


def _recount(base: FreeMap, maps: Iterable[FreeMap], broken: Collection[Dart]) -> list[int]:
    """``count_components(t, broken)`` for ``t`` the term ``base`` and then
    each term of ``maps``, which all hold ``base`` as a subterm.

    This is the one walk of the count.  ``base`` is walked once, down to
    its bottom, into a forest; each map then walks only its own steps
    above ``base``, into a copy of that forest, and starts from the
    count of ``base``."""
    below: dict[Dart, Dart] = {}
    counts: list[int] = []
    for m in (base, *maps):
        if counts:
            parent, stop, n = below.copy(), base, counts[0]
        else:
            parent, stop, n = below, None, 0
        while m is not stop:
            if isinstance(m, Link):
                if not (m.x in broken and m.k is _ZERO) and _union(parent, m.x, m.y):
                    n -= 1
            elif isinstance(m, Insert):
                n += 1
            else:
                break
            m = m.base
        counts.append(n)
    return counts


def ensure_index(m: FreeMap | HypermapIndex) -> HypermapIndex:
    """The index of a map given as a term or as its index: an index is
    used as it stands, a term gets a checked build."""
    return m if isinstance(m, HypermapIndex) else build_index(m)


def require_well_formed(m: FreeMap | HypermapIndex) -> tuple[FreeMap, ChainKernel]:
    """The term and a kernel of a map given as a term or as its index,
    for callers that read no orbit labels: ``(m.term, m)`` for an index,
    else ``m`` and the kernel of its one checked replay."""
    return (m.term, m) if isinstance(m, HypermapIndex) else (m, kernel_of(m))
