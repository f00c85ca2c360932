"""One-pass index of a map term.

The recursive observers in :mod:`hmap.fmap` walk the term on every query,
which is the right reference semantics but quadratic in bulk use.  A
:class:`HypermapIndex` is a chain kernel, built by the kernel's
constructor in one replay of the term; the kernel holds the explicit
links and pairs the two ends of every open chain.  To it the index adds
the closures, the face permutation and the four orbit partitions,
answering all further queries in O(1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fmap import (
    NIL,
    ChainKernel,
    ConstraintError,
    Dart,
    Dim,
    FreeMap,
    Insert,
    InternalInvariantError,
    MapError,
    history,
    kernel_of,
)
from .unionfind import UnionFind


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


def _orbit_ids(starts: list[Dart], *perms: dict[Dart, Dart]) -> dict[Dart, Dart]:
    """Label each dart with the first of ``starts`` in its orbit under the
    group that ``perms`` generate.

    Every orbit must hold a start.  The forward images of a start under
    ``perms`` reach its orbit in full, because every permutation of a
    finite set has finite order.  With the sorted darts as ``starts`` the
    label is the orbit's minimum dart; with the darts that have no
    predecessor in one dimension, it is the bottom of the dart's chain.
    """
    ids: dict[Dart, Dart] = {}
    for d in starts:
        if d in ids:
            continue
        ids[d] = d
        todo = [d]
        for z in todo:
            for perm in perms:
                w = perm[z]
                if w not in ids:
                    ids[w] = d
                    todo.append(w)
    return ids


class HypermapIndex(ChainKernel):
    """Precomputed views of one well-formed map term.

    The index is the kernel of its term, built by the kernel's checked
    constructor (MapError on a term that is not well formed): its dart
    set and chains answer the explicit links, the closures, the face
    successors and the construction preconditions on the indexed map.
    On top of them it keeps the sorted ``darts``, the closures
    ``closure[k]`` and ``face_perm`` as permutation dicts, and the
    ``*_ids`` labellings, which map each dart to its orbit's
    representative: the bottom of its open chain for edges and
    vertices, the orbit's minimum dart for faces and components.
    """

    __slots__ = (
        "term", "darts", "closure", "face_perm",
        "edge_ids", "vertex_ids", "face_ids", "component_ids",
        "stats",
    )

    def __init__(self, m: FreeMap) -> None:
        try:
            super().__init__(m)
        except ConstraintError as exc:
            raise MapError(f"map is not well formed: {exc}") from None
        ch0, ch1 = self.chains
        darts = sorted(self.dart_set)

        self.term = m
        self.darts = tuple(darts)
        self.closure = ({d: ch0.closed_succ(d) for d in darts},
                        {d: ch1.closed_succ(d) for d in darts})
        self.face_perm = {d: ch1.closed_pred(ch0.closed_pred(d)) for d in darts}

        self.edge_ids = _orbit_ids([d for d in darts if d not in ch0.pred],
                                   self.closure[0])
        self.vertex_ids = _orbit_ids([d for d in darts if d not in ch1.pred],
                                     self.closure[1])
        self.face_ids = _orbit_ids(darts, self.face_perm)
        self.component_ids = _orbit_ids(darts, *self.closure)

        self.stats = MapStats.from_counts(
            nd=len(darts),
            ne=len(set(self.edge_ids.values())),
            nv=len(set(self.vertex_ids.values())),
            nf=len(set(self.face_ids.values())),
            nc=len(set(self.component_ids.values())),
        )

    # -- chain ends, from the labels -------------------------------------------

    def top(self, k: Dim, z: Dart) -> Dart:
        b = self.bottom(k, z)
        return self.chains[k.value].end[b] if b != NIL else NIL

    def bottom(self, k: Dim, z: Dart) -> Dart:
        return (self.edge_ids, self.vertex_ids)[k.value].get(z, NIL)

    # -- orbit queries -----------------------------------------------------

    def same_edge(self, a: Dart, b: Dart) -> bool:
        ia = self.edge_ids.get(a)
        return ia is not None and ia == self.edge_ids.get(b)

    def same_vertex(self, a: Dart, b: Dart) -> bool:
        ia = self.vertex_ids.get(a)
        return ia is not None and ia == self.vertex_ids.get(b)

    def same_face(self, a: Dart, b: Dart) -> bool:
        ia = self.face_ids.get(a)
        return ia is not None and ia == self.face_ids.get(b)

    def same_component(self, a: Dart, b: Dart) -> bool:
        ia = self.component_ids.get(a)
        return ia is not None and ia == self.component_ids.get(b)


def build_index(m: FreeMap) -> HypermapIndex:
    """Index ``m``; MapError if ``m`` is not well formed."""
    return HypermapIndex(m)


def count_components(m: FreeMap) -> int:
    """Number of connected components of ``m``, without an index.

    One pass over the steps of ``m``: every insert adds a component and
    every link that joins two components removes one.  It does not check
    the term, so ``m`` must be well formed: use it on a term built from
    one already checked, as a ring break is.
    """
    uf = UnionFind()
    n = 0
    for node in history(m):
        if isinstance(node, Insert):
            uf.add(node.x)
            n += 1
        elif uf.union(node.x, node.y):
            n -= 1
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
