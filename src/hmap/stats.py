"""Counting observables, the two global counting theorems, and the
incremental counting backend.

Two independent ways to produce a :class:`MapStats` live here:
``counts`` enumerates orbits on a one-pass index, while
``counts_incremental`` replays the term through :class:`IncrementalMap`,
which maintains every count by a local recurrence per construction step.
Tests hold the two backends equal on every generated map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fmap import (
    ChainKernel,
    ConstraintError,
    Dart,
    Dim,
    FreeMap,
    Insert,
    InternalInvariantError,
    Link,
    Void,
    _ONE,
    _ZERO,
    history,
)
from .index import HypermapIndex, MapStats, ensure_index
from .unionfind import _find, _union

__all__ = [
    "MapStats", "counts", "euler_characteristic", "genus", "is_planar",
    "CheckItem", "TheoremReport", "check_genus_theorem", "check_euler_formula",
    "IncrementalMap", "counts_incremental",
]


def counts(m: FreeMap | HypermapIndex) -> MapStats:
    """Counts by direct orbit enumeration (the primary backend)."""
    return ensure_index(m).stats


def euler_characteristic(m: FreeMap | HypermapIndex) -> int:
    return counts(m).euler_characteristic


def genus(m: FreeMap | HypermapIndex) -> int:
    return counts(m).genus


def is_planar(m: FreeMap | HypermapIndex) -> bool:
    return counts(m).planar


# ---------------------------------------------------------------------------
# theorem reports


@dataclass(frozen=True, slots=True)
class CheckItem:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True, slots=True)
class TheoremReport:
    """Outcome of one theorem checked on one map.

    ``witness`` keeps the map term so a failing report can be serialized
    and replayed; it is None on a passing report.
    """

    subject: str
    stats: MapStats
    items: tuple[CheckItem, ...]
    witness: FreeMap | None = None

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        parts = [f"{self.subject}: {verdict}"]
        for item in self.items:
            mark = "ok" if item.passed else "FAIL"
            line = f"  [{mark}] {item.name}"
            if item.detail:
                line += f" ({item.detail})"
            parts.append(line)
        return "\n".join(parts)


def check_genus_theorem(m: FreeMap | HypermapIndex) -> TheoremReport:
    """Check the unconditional counting bounds on a well-formed map:
    even Euler characteristic, nonnegative genus, and 2*components >= ec."""
    idx = ensure_index(m)
    st = idx.stats
    items = (
        CheckItem("euler characteristic is even",
                  st.euler_characteristic % 2 == 0,
                  f"ec={st.euler_characteristic}"),
        CheckItem("genus is nonnegative", st.genus >= 0, f"genus={st.genus}"),
        CheckItem("2*components >= euler characteristic",
                  2 * st.n_components >= st.euler_characteristic,
                  f"nc={st.n_components} ec={st.euler_characteristic}"),
    )
    witness = None if all(i.passed for i in items) else idx.term
    return TheoremReport("genus bounds", st, items, witness)


def check_euler_formula(m: FreeMap | HypermapIndex) -> TheoremReport:
    """Check the planar counting identity ec/2 = components; on a connected
    nonempty map that specializes to nv+ne+nf-nd = 2.  Requires planarity."""
    idx = ensure_index(m)
    st = idx.stats
    if not st.planar:
        raise ConstraintError("map is not planar")
    items = [
        CheckItem("half euler characteristic equals component count",
                  st.euler_characteristic == 2 * st.n_components,
                  f"ec={st.euler_characteristic} nc={st.n_components}"),
    ]
    if st.n_components == 1 and st.n_darts > 0:
        total = st.n_vertices + st.n_edges + st.n_faces - st.n_darts
        items.append(CheckItem("connected nonempty: v+e+f-d = 2",
                               total == 2, f"v+e+f-d={total}"))
    witness = None if all(i.passed for i in items) else idx.term
    return TheoremReport("euler formula", st, tuple(items), witness)


# ---------------------------------------------------------------------------
# incremental backend


class IncrementalMap(ChainKernel):
    """Mutable map builder that keeps the face and component counts and
    the face permutation current across insertions and links.

    The darts and chains are the inherited :class:`ChainKernel`, which
    also decides every construction precondition, answers the term
    observers and gives the dart, edge and vertex counts; ``face_next``
    is kept by the recurrence below and always equals the kernel's
    ``closed_face_successor``.

    Each link changes the face permutation at exactly two darts and
    changes the face count by one; whether a face splits or two merge is
    decided before the face permutation changes, by testing whether the
    two darts whose faces the link touches already share a face.  The
    component count drops by one exactly when the link joins two
    components, which ``components``, a :mod:`hmap.unionfind` forest of
    the links, decides.  This is the recurrence backend cross-checked
    against orbit enumeration, and it is also what the
    planarity-preserving generator builds on, since the split test
    doubles as the planarity-preservation test.
    """

    __slots__ = ("components", "face_next", "n_faces", "n_components", "_term")

    def __init__(self) -> None:
        super().__init__()
        self.components: dict[Dart, Dart] = {}
        self.face_next: dict[Dart, Dart] = {}
        self.n_faces = 0
        self.n_components = 0
        self._term: FreeMap = Void()

    # -- queries ------------------------------------------------------------

    def same_component(self, a: Dart, b: Dart) -> bool:
        return (a in self.dart_set and b in self.dart_set
                and _find(self.components, a) == _find(self.components, b))

    def _face_reaches(self, a: Dart, b: Dart) -> bool:
        """Whether the walk of a's face from ``a`` meets ``b`` before it
        returns to ``a``.  A walk that does neither in one step per dart
        means ``face_next`` is not a permutation, an error as in
        :func:`hmap.index._cycle`."""
        face_next = self.face_next
        z = a
        for _ in range(len(face_next)):
            if z == b:
                return True
            z = face_next[z]
            if z == a:
                return False
        raise InternalInvariantError(
            f"walk from dart {a} does not return: not a permutation")

    # -- construction ---------------------------------------------------------

    # The kernel's link check, bound in this class body as well, so that
    # the class lists it as its own method: per-class instrumentation
    # (such as the benchmark's tracer) sees every link attempt, since
    # the inherited can_link and require_link call it too.
    link_violation = ChainKernel.link_violation

    def insert(self, x: Dart) -> None:
        self.add_dart(x)
        self.face_next[x] = x
        self.n_faces += 1
        self.n_components += 1
        self._term = Insert(self._term, x)

    def link(self, k: Dim, x: Dart, y: Dart) -> None:
        # the tracker checks and applies the link.  The face successor
        # changes at b, to a, and at p, to q; the link splits a's face
        # when b is on it, else it merges two faces.  The walk reads only
        # face_next and the other dimension, which the link leaves alone.
        # x was a top and y a bottom: bottom and top are their far ends
        c0, c1 = self.chains
        if k is _ZERO:
            bottom, top = c0.link(x, y)
            a, b, p, q = c1.closed_pred[x], y, bottom, c1.closed_pred[top]
        elif k is _ONE:
            bottom, top = c1.link(x, y)
            a, b, p, q = x, c0.closed_succ[y], c0.closed_succ[bottom], top
        else:
            raise TypeError(f"not a dimension: {k!r}")

        self.n_faces += 1 if self._face_reaches(a, b) else -1
        face_next = self.face_next
        face_next[b] = a
        face_next[p] = q
        if _union(self.components, x, y):
            self.n_components -= 1
        self._term = Link(self._term, k, x, y)

    # -- exports ---------------------------------------------------------------

    def stats(self) -> MapStats:
        # each k-link joins two open k-chains: one edge or vertex fewer
        nd = len(self.dart_set)
        ne = nd - len(self.chains[0].succ)
        nv = nd - len(self.chains[1].succ)
        return MapStats.from_counts(nd, ne, nv, self.n_faces, self.n_components)

    def term(self) -> FreeMap:
        """The map built so far, as the term of its construction steps."""
        return self._term


def counts_incremental(m: FreeMap) -> MapStats:
    """Counts by replaying the term through the recurrence backend."""
    inc = IncrementalMap()
    for node in history(m):
        if isinstance(node, Insert):
            inc.insert(node.x)
        else:
            inc.link(node.k, node.x, node.y)
    return inc.stats()
