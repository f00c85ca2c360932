"""Rings of faces coded as double-links, and breaking along them.

A ring item ``(x, flag)`` stands for the double 0-link out of dart
``x``: the explicit link from ``x`` to ``y`` and the implicit closure
link from the top of the chain back to ``x0``, the chain's bottom.  The
item identifies one of the two faces the double-link borders: the face
of ``y`` when the flag is set, the face of ``x0`` otherwise.

A list of items is a valid ring when it is nonempty, uses pairwise
distinct edges, the identified faces are consecutive-adjacent and wrap
around, and all identified faces are pairwise distinct.  Breaking every
listed 0-link is the operation the discrete Jordan statement is about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .fmap import _ZERO, ConstraintError, Dart, FreeMap, Link, _remove_latest
from .index import HypermapIndex, ensure_index


class RingItem(NamedTuple):
    x: Dart
    flag: bool


RingList = Sequence[RingItem]


def face_anchor(m: FreeMap | HypermapIndex, item: RingItem) -> Dart:
    """Dart in the face the item identifies.

    Flag set: the link target ``y``.  Flag clear: the bottom ``x0`` of
    the item's open 0-chain.  The item dart must carry a 0-link.
    """
    idx = ensure_index(m)
    link = idx.double_links.get(item.x)
    if link is None:
        raise ConstraintError(f"dart {item.x} has no 0-successor")
    return idx.chains[0].succ[item.x] if item.flag else link[0]


def adjacent_faces(m: FreeMap | HypermapIndex, a: RingItem, b: RingItem) -> bool:
    """Does item ``b`` identify the face on the other side of ``a``'s
    double-link?  Both items must carry 0-links."""
    idx = ensure_index(m)
    for item in (a, b):
        if item.x not in idx.double_links:
            raise ConstraintError(f"dart {item.x} has no 0-successor")
    return check_ring(idx, (a, b)).continuous


@dataclass(frozen=True, slots=True)
class RingDiagnostics:
    """Per-condition verdicts for one candidate ring."""

    valid: bool
    nonempty: bool
    edges_unique: bool
    continuous: bool
    closed: bool
    faces_distinct: bool
    failure: str | None
    failure_items: tuple[int, ...]

    def summary(self) -> str:
        if self.valid:
            return "valid ring"
        where = ""
        if self.failure_items:
            where = " at item" + ("s" if len(self.failure_items) > 1 else "")
            where += " " + ", ".join(str(i) for i in self.failure_items)
        return f"invalid ring: {self.failure}{where}"


#: The verdict on every valid ring, which ``check_ring`` returns as is.
_VALID = RingDiagnostics(True, True, True, True, True, True, None, ())

Sides = tuple[Dart, Dart] | None


def _adjacent(a: Sides, b: Sides) -> bool:
    # the face opposite a's identified one must be b's identified one;
    # items without a 0-link are never adjacent to anything
    return a is not None and b is not None and a[1] == b[0]


def check_ring(m: FreeMap | HypermapIndex, items: RingList) -> RingDiagnostics:
    """Evaluate the four ring conditions in one pass over the items and
    locate the first failure.

    The conditions, in diagnosis order: every item has a 0-link and no
    two items use the same edge; each item's opposite face is the next
    item's identified face; the ring wraps (the last item is adjacent to
    the first, and a singleton's double-link borders one face on both
    sides); no two items identify the same face.  Each condition holds
    vacuously on the empty list, which is invalid only for being empty.
    """
    idx = ensure_index(m)
    links = idx.double_links
    # per item: (identified face, opposite face), None without a 0-link
    sides: list[Sides] = []
    first_edge: dict[Dart, int] = {}
    first_face: dict[Dart, int] = {}
    edge_clash: tuple[int, ...] | None = None
    gap: tuple[int, ...] | None = None
    face_clash: tuple[int, ...] | None = None
    for i, item in enumerate(items):
        link = links.get(item.x)
        if link is None:
            sides.append(None)
            edge_clash = edge_clash or (i,)
        else:
            x0, fy, f0 = link
            here = (fy, f0) if item.flag else (f0, fy)
            sides.append(here)
            j = first_edge.setdefault(x0, i)
            if j != i:
                edge_clash = edge_clash or (j, i)
            j = first_face.setdefault(here[0], i)
            if j != i:
                face_clash = face_clash or (j, i)
        if i > 0 and gap is None and not _adjacent(sides[i - 1], sides[i]):
            gap = (i - 1, i)

    n = len(items)
    if n == 0:
        closed = True
    elif n == 1:
        closed = sides[0] is not None and sides[0][0] == sides[0][1]
    else:
        closed = _adjacent(sides[-1], sides[0])
    if n and closed and edge_clash is None and gap is None and face_clash is None:
        return _VALID
    verdicts = (
        (n > 0, "empty ring", ()),
        (edge_clash is None, "edge reused or item without 0-link", edge_clash),
        (gap is None, "consecutive items not adjacent", gap),
        (closed, "ring does not close", (n - 1, 0) if n > 1 else (0,)),
        (face_clash is None, "two items identify the same face", face_clash),
    )
    failure, failure_items = next(((what, at) for ok, what, at in verdicts if not ok),
                                  (None, ()))
    return RingDiagnostics(failure is None, *(ok for ok, _, _ in verdicts),
                           failure, failure_items)


# ---------------------------------------------------------------------------
# the four ring conditions one at a time (all total predicates)


def ring_edges_unique(m: FreeMap | HypermapIndex, items: RingList) -> bool:
    """Every item has a 0-link and no two items use the same edge."""
    return check_ring(m, items).edges_unique


def ring_continuous(m: FreeMap | HypermapIndex, items: RingList) -> bool:
    """Each item's opposite face is the next item's identified face."""
    return check_ring(m, items).continuous


def ring_closed(m: FreeMap | HypermapIndex, items: RingList) -> bool:
    """The ring wraps: the last item is adjacent to the first.

    A singleton wraps through its own double-link: the link target and
    the chain bottom must share a face (both sides are the same face).
    """
    return check_ring(m, items).closed


def ring_faces_distinct(m: FreeMap | HypermapIndex, items: RingList) -> bool:
    """No two items identify the same face."""
    return check_ring(m, items).faces_distinct


def is_ring(m: FreeMap | HypermapIndex, items: RingList) -> bool:
    return check_ring(m, items).valid


def break_ring(m: FreeMap, items: RingList) -> FreeMap:
    """Break every item's 0-link, first item to last.

    In one walk and one rebuild, this is the left fold of
    ``break_link(., Dim.zero, x)`` over the items: the ``j``-th item with
    dart ``x`` breaks the ``j``-th most recent 0-link out of ``x``.  Each
    item must still carry a 0-link when its turn comes; a valid ring
    guarantees that, since its edges are pairwise distinct.
    """
    wanted: dict[Dart, int] = {}
    for item in items:
        wanted[item.x] = wanted.get(item.x, 0) + 1
    left = dict(wanted)

    def breaks(step) -> bool:
        if step.__class__ is Link and step.k is _ZERO and left.get(step.x):
            left[step.x] -= 1
            return True
        return False

    broken = _remove_latest(m, breaks, len(items))
    if broken is m and items:  # left[x] items with dart x found no 0-link
        for i, item in enumerate(items):
            wanted[item.x] -= 1
            if wanted[item.x] < left[item.x]:
                raise ConstraintError(
                    f"item {i}: dart {item.x} has no 0-link left to break")
    return broken
