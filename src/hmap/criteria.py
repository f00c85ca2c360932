"""Constructive planarity and disconnection criteria.

Each predicate here decides a property of a map *after* a link or break
by looking only at the map *before* it, which is what makes incremental
planar construction and the ring-break analysis cheap.  Equivalence with
the direct genus computation is enforced by the test suite, exhaustively
on all small maps.

The dimension-one forms are obtained from the dimension-zero ones by
exchanging the roles of the two closures; the face side condition then
tests the face of the linked dart against the closed 0-successor of the
link target.  They are cross-checked against the genus oracle in every
test that touches them.
"""

from __future__ import annotations

from .fmap import _ONE, _ZERO, NIL, ConstraintError, Dart, Dim, FreeMap, _dim, break_link
from .index import HypermapIndex, build_index, ensure_index, require_well_formed


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConstraintError(message)


def _criterion(idx: HypermapIndex, k: Dim, x: Dart, y: Dart) -> bool:
    """Planar now, and the link either joins two components or splits
    one face into two (else it merges two faces into one)."""
    if not idx.stats.planar:
        return False
    if not idx.same_component(x, y):
        return True
    if _dim(k) == 0:
        return idx.same_face(idx.closed_predecessor(_ONE, x), y)
    return idx.same_face(x, idx.closed_successor(_ZERO, y))


def planar_after_link(m: FreeMap | HypermapIndex, k: Dim, x: Dart, y: Dart) -> bool:
    """Would ``link(m, k, x, y)`` be planar?  Decided without linking.

    Requires the link preconditions; the answer equals
    ``is_planar(link(m, k, x, y))``.
    """
    idx = ensure_index(m)
    idx.require_link(k, x, y)
    return _criterion(idx, k, x, y)


def planar_from_break(m: FreeMap | HypermapIndex, k: Dim, x: Dart) -> bool:
    """Is ``m`` planar?  Decided on the map with the k-link out of ``x``
    broken, by the link criterion for relinking it.

    Requires that ``x`` has a k-successor.  The answer equals
    ``is_planar(m)``; the point of the indirection is that it needs only
    the broken map, which is how the ring induction looks at breaks.
    """
    term, kern = require_well_formed(m)
    y = kern.successor(k, x)
    _require(y != NIL, f"dart {x} has no {k.value}-successor")
    m0 = break_link(term, k, x)
    idx0 = build_index(m0)
    return _criterion(idx0, k, x, y)


def break_disconnects(m: FreeMap | HypermapIndex, x: Dart) -> bool:
    """On a planar map, would breaking the 0-link out of ``x`` disconnect
    its component?  True exactly when the link target and the bottom of
    ``x``'s open 0-chain share a face.

    Requires planarity and a 0-successor on ``x``.
    """
    idx = ensure_index(m)
    _require(idx.stats.planar, "map is not planar")
    link = idx.double_links.get(x)
    _require(link is not None, f"dart {x} has no 0-successor")
    _edge, fy, f0 = link
    return fy == f0
