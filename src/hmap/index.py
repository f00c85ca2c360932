"""One-pass index of a map term.

The recursive observers in :mod:`hmap.fmap` walk the term on every query,
which is the right reference semantics but quadratic in bulk use.  A
:class:`HypermapIndex` replays the term once and materializes the explicit
links, the orbit closures, the face permutation and every orbit
partition, answering all further queries in O(1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fmap import (
    NIL,
    ChainKernel,
    Dart,
    Dim,
    FreeMap,
    Insert,
    InternalInvariantError,
    MapError,
    history,
    kernel_of,
    replay,
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
    """The ``perm``-cycle through ``z``, in order from ``z``."""
    cycle = [z]
    cur = perm[z]
    while cur != z:
        cycle.append(cur)
        cur = perm[cur]
    return cycle


def _orbit_ids(darts: list[Dart], perm: dict[Dart, Dart]) -> dict[Dart, Dart]:
    """Label each dart with the minimum dart of its ``perm``-cycle."""
    ids: dict[Dart, Dart] = {}
    for d in darts:
        if d in ids:
            continue
        cycle = _cycle(perm, d)
        rep = min(cycle)
        for z in cycle:
            ids[z] = rep
    return ids


class HypermapIndex:
    """Precomputed views of one well-formed map term.

    All dictionaries are keyed by dart.  ``closure[k]`` and ``face_perm``
    are permutations of the dart set; ``*_ids`` map each dart to its
    orbit's representative (the orbit's minimum dart).  ``kernel`` is the
    replay the index was built from; ``dart_set`` and the explicit links
    are its own containers, and it answers the construction
    preconditions on the indexed map.
    """

    __slots__ = (
        "term", "kernel", "darts", "dart_set",
        "succ_links", "pred_links",
        "closure", "closure_inv",
        "face_perm", "face_perm_inv",
        "bottoms", "tops",
        "edge_ids", "vertex_ids", "face_ids", "component_ids",
        "stats",
    )

    def __init__(self, m: FreeMap, *, check: bool = True) -> None:
        kern: ChainKernel = kernel_of(m) if check else replay(m, check=False)[0]
        chains = kern.chains
        darts = sorted(kern.darts)

        self.term = m
        self.kernel = kern
        self.darts = tuple(darts)
        self.dart_set = kern.darts
        self.succ_links = (chains[0].succ, chains[1].succ)
        self.pred_links = (chains[0].pred, chains[1].pred)
        self.bottoms = ({d: chains[0].bottom(d) for d in darts},
                        {d: chains[1].bottom(d) for d in darts})
        self.tops = ({d: chains[0].top(d) for d in darts},
                     {d: chains[1].top(d) for d in darts})
        self.closure = ({d: chains[0].closed_succ(d) for d in darts},
                        {d: chains[1].closed_succ(d) for d in darts})
        self.closure_inv = ({d: chains[0].closed_pred(d) for d in darts},
                            {d: chains[1].closed_pred(d) for d in darts})
        cp0, cp1 = self.closure_inv
        self.face_perm = {d: cp1[cp0[d]] for d in darts}
        self.face_perm_inv = {v: k for k, v in self.face_perm.items()}

        self.edge_ids = _orbit_ids(darts, self.closure[0])
        self.vertex_ids = _orbit_ids(darts, self.closure[1])
        self.face_ids = _orbit_ids(darts, self.face_perm)

        uf = UnionFind(darts)
        for k in (0, 1):
            for x, y in self.succ_links[k].items():
                uf.union(x, y)
        groups = uf.groups()
        self.component_ids = {}
        for members in groups.values():
            rep = members[0]
            for d in members:
                self.component_ids[d] = rep

        self.stats = MapStats.from_counts(
            nd=len(darts),
            ne=len(set(self.edge_ids.values())),
            nv=len(set(self.vertex_ids.values())),
            nf=len(set(self.face_ids.values())),
            nc=len(groups),
        )

    # -- observer-shaped queries ------------------------------------------

    def has_dart(self, z: Dart) -> bool:
        return z in self.dart_set

    def successor(self, k: Dim, z: Dart) -> Dart:
        return self.succ_links[k.value].get(z, NIL)

    def predecessor(self, k: Dim, z: Dart) -> Dart:
        return self.pred_links[k.value].get(z, NIL)

    def has_successor(self, k: Dim, z: Dart) -> bool:
        return z in self.succ_links[k.value]

    def has_predecessor(self, k: Dim, z: Dart) -> bool:
        return z in self.pred_links[k.value]

    def top(self, k: Dim, z: Dart) -> Dart:
        return self.tops[k.value].get(z, NIL)

    def bottom(self, k: Dim, z: Dart) -> Dart:
        return self.bottoms[k.value].get(z, NIL)

    def closed_successor(self, k: Dim, z: Dart) -> Dart:
        return self.closure[k.value].get(z, NIL)

    def closed_predecessor(self, k: Dim, z: Dart) -> Dart:
        return self.closure_inv[k.value].get(z, NIL)

    def face_successor(self, z: Dart) -> Dart:
        return self.pred_links[1].get(self.pred_links[0].get(z, NIL), NIL)

    def closed_face_successor(self, z: Dart) -> Dart:
        return self.face_perm.get(z, NIL)

    def face_predecessor(self, z: Dart) -> Dart:
        return self.succ_links[0].get(self.succ_links[1].get(z, NIL), NIL)

    def closed_face_predecessor(self, z: Dart) -> Dart:
        return self.face_perm_inv.get(z, NIL)

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


def build_index(m: FreeMap, *, check: bool = True) -> HypermapIndex:
    """Index ``m``; with ``check`` on, reject terms that are not well formed."""
    return HypermapIndex(m, check=check)


def count_components(m: FreeMap) -> int:
    """Number of connected components of ``m``, without an index.

    One pass over the steps of ``m``: every insert adds a component and
    every link that joins two components removes one.  Like
    ``build_index(m, check=False)`` it does not check the term, so ``m``
    must be well formed.
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


def ensure_index(m: FreeMap, index: HypermapIndex | None) -> HypermapIndex:
    """Pass-through for functions that accept a prebuilt index."""
    if index is not None:
        if index.term is not m:
            raise MapError("index was built for a different map term")
        return index
    return build_index(m)


def require_well_formed(m: FreeMap, index: HypermapIndex | None) -> None:
    """Validate ``m`` as ``ensure_index`` would, for callers that do not
    read the index: without one, a checked replay is enough."""
    if index is None:
        kernel_of(m)
    else:
        ensure_index(m, index)
