"""Orbits of the closure permutations: edges, vertices, faces, components."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .fmap import ConstraintError, Dart, FreeMap
from .index import HypermapIndex, _cycle, _same, ensure_index


class OrbitKind(Enum):
    edge = "edge"          # orbits of the closed 0-successor
    vertex = "vertex"      # orbits of the closed 1-successor
    face = "face"          # orbits of the closed face successor
    component = "component"  # orbits of the group generated by both closures


@dataclass(frozen=True, slots=True)
class Orbit:
    """One orbit: its minimum dart, its members, and its size.

    For the three permutation kinds ``members`` is in cycle order from the
    dart the orbit was asked for; component members are sorted.
    """

    kind: OrbitKind
    representative: Dart
    members: tuple[Dart, ...]

    @property
    def period(self) -> int:
        return len(self.members)


def _perm_of(idx: HypermapIndex, kind: OrbitKind) -> dict[Dart, Dart]:
    if kind is OrbitKind.edge:
        return idx.closure[0]
    if kind is OrbitKind.vertex:
        return idx.closure[1]
    return idx.face_perm


def orbit(m: FreeMap | HypermapIndex, kind: OrbitKind, z: Dart) -> Orbit:
    """The ``kind`` orbit of dart ``z``, walked from ``z`` itself."""
    idx = ensure_index(m)
    if z not in idx.dart_set:
        raise ConstraintError(f"dart {z} does not exist")
    if kind is OrbitKind.component:
        rep = idx.component_ids[z]
        return Orbit(kind, rep,
                     tuple(d for d in idx.darts if idx.component_ids[d] == rep))
    cycle = _cycle(_perm_of(idx, kind), z)
    return Orbit(kind, min(cycle), tuple(cycle))


def all_orbits(m: FreeMap | HypermapIndex, kind: OrbitKind) -> list[Orbit]:
    """Every ``kind`` orbit, sorted by representative; cycles are walked
    from their representative."""
    idx = ensure_index(m)
    # idx.darts is sorted, so each orbit is first met at its minimum dart
    if kind is OrbitKind.component:
        by_rep: dict[Dart, list[Dart]] = {}
        for d in idx.darts:
            by_rep.setdefault(idx.component_ids[d], []).append(d)
        return [Orbit(kind, rep, tuple(members)) for rep, members in by_rep.items()]
    perm = _perm_of(idx, kind)
    seen: set[Dart] = set()
    out = []
    for d in idx.darts:
        if d not in seen:
            cycle = _cycle(perm, d)
            seen.update(cycle)
            out.append(Orbit(kind, d, tuple(cycle)))
    return out


def same_orbit(m: FreeMap | HypermapIndex, kind: OrbitKind, a: Dart, b: Dart) -> bool:
    """True when darts ``a`` and ``b`` lie in the same ``kind`` orbit.

    Total: false whenever either dart does not exist.
    """
    return _same(getattr(ensure_index(m), f"{kind.value}_ids"), a, b)


def same_edge(m: FreeMap | HypermapIndex, a: Dart, b: Dart) -> bool:
    return same_orbit(m, OrbitKind.edge, a, b)


def same_vertex(m: FreeMap | HypermapIndex, a: Dart, b: Dart) -> bool:
    return same_orbit(m, OrbitKind.vertex, a, b)


def same_face(m: FreeMap | HypermapIndex, a: Dart, b: Dart) -> bool:
    return same_orbit(m, OrbitKind.face, a, b)


def same_component(m: FreeMap | HypermapIndex, a: Dart, b: Dart) -> bool:
    return same_orbit(m, OrbitKind.component, a, b)
