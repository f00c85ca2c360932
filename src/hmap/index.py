"""One-pass index of a map term.

The recursive observers in :mod:`hmap.fmap` walk the term on every query,
which is the right reference semantics but quadratic in bulk use.  A
:class:`HypermapIndex` is a chain kernel that adopts the state of the
kernel of its term: ``kernel_of``'s one checked replay, or, in the
exhaustive sweep, a kernel joined of two one-dimension replays.  The
kernel holds the explicit links and the closure permutations of both
dimensions with their inverses.  To them the index adds the face
permutation and the face and component partitions, and on first read
the edge and vertex partitions, answering all further queries in O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fmap import (
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

    @classmethod
    def from_counts(cls, nd: int, ne: int, nv: int, nf: int, nc: int) -> "MapStats":
        ec = nv + ne + nf - nd
        if ec % 2 != 0:
            raise InternalInvariantError(
                f"odd euler characteristic {ec} from counts "
                f"nd={nd} ne={ne} nv={nv} nf={nf}")
        genus = nc - ec // 2
        return cls(nd, ne, nv, nf, nc, ec, genus, genus == 0)


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


def _orbit_ids(starts: list[Dart], *maps: dict[Dart, Dart]) -> dict[Dart, Dart]:
    """Label each dart reached from ``starts`` along the images under
    ``maps`` (a dart a map does not hold has no image there) with the
    first start that reaches it: under permutations that is the start's
    orbit, since every permutation of a finite set has finite order, and
    under both directions of the explicit links its component.
    """
    ids: dict[Dart, Dart] = {}
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


def _same(ids: dict[Dart, Dart], a: Dart, b: Dart) -> bool:
    """True when ``ids`` gives both darts one label; false if either is absent."""
    ia = ids.get(a)
    return ia is not None and ia == ids.get(b)


def _chain_ids(ch: ChainTracker) -> dict[Dart, Dart]:
    """Label each dart with the bottom of its open chain, walking every
    chain along ``succ`` from its bottom, the closed successor of its top."""
    cs, succ = ch.closed_succ, ch.succ
    return _orbit_ids([cs[d] for d in cs if d not in succ], succ)


class HypermapIndex(ChainKernel):
    """Precomputed views of one well-formed map term.

    The index adopts a kernel of its term, sharing its trackers:
    ``kernel_of(m)`` (MapError on a term that is not well formed),
    unless ``kernel`` is given, the caller's promise that it is the
    kernel of ``m``'s steps; only the exhaustive sweep gives one, of
    ``fmap._join_kernels``.  Its chains answer the explicit links, the
    closures, the face successors and the construction preconditions on
    the indexed map, and ``closure[k]`` is the closure permutation of
    dimension ``k``: the kernel's own dict, shared and not copied, so
    it is read-only.
    Built with it are what ``stats`` counts: the sorted ``darts``,
    ``face_perm`` as a permutation dict, and the labellings ``face_ids``
    and ``component_ids``, which map each dart to its orbit's minimum
    dart.  Built on first read are the labellings ``edge_ids`` and
    ``vertex_ids``, which map each dart to the bottom of its open chain.
    """

    __slots__ = (
        "term", "darts", "closure", "face_perm", "face_ids", "component_ids", "stats",
        "__dict__",
    )

    def __init__(self, m: FreeMap, *, kernel: ChainKernel | None = None) -> None:
        self._adopt(kernel_of(m) if kernel is None else kernel)
        ch0, ch1 = self.chains
        cp0, cp1 = ch0.closed_pred, ch1.closed_pred
        darts = sorted(ch0.closed_succ)

        self.term = m
        self.darts = tuple(darts)
        self.closure = (ch0.closed_succ, ch1.closed_succ)
        self.face_perm = {d: cp1[cp0[d]] for d in darts}
        self.face_ids = _orbit_ids(darts, self.face_perm)
        # the two closures generate the components
        self.component_ids = _orbit_ids(darts, *self.closure)
        # each k-link joins two open k-chains: one edge or vertex fewer
        nd = len(darts)
        self.stats = MapStats.from_counts(nd, nd - len(ch0.succ), nd - len(ch1.succ),
                                          len(set(self.face_ids.values())),
                                          len(set(self.component_ids.values())))

    @cached_property
    def edge_ids(self) -> dict[Dart, Dart]:
        return _chain_ids(self.chains[0])

    @cached_property
    def vertex_ids(self) -> dict[Dart, Dart]:
        return _chain_ids(self.chains[1])

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


def count_components(m: FreeMap) -> int:
    """Number of connected components of ``m``, without an index.

    One walk down the ``base`` chain: each insert adds a component and
    each link that joins two removes one, in any order, so the links go
    into a :mod:`hmap.unionfind` forest from the most recent step.  It
    does not check the term, so ``m`` must be well formed: use it on a
    term built from one already checked, as a ring break is.
    """
    parent: dict[Dart, Dart] = {}
    n = 0
    while not isinstance(m, Void):
        if isinstance(m, Insert):
            n += 1
        elif _union(parent, m.x, m.y):
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
