"""Hypermaps as free-map terms.

Construct maps as terms (insert darts, link them along two dimensions
with all orbits kept open), observe them through orbit closures, count
cells to get the Euler characteristic and genus, and analyze rings of
faces: breaking a planar map along a valid ring always splits off
exactly one new component.
"""

from .fmap import (
    NIL,
    ConstraintError,
    Dart,
    Dim,
    FreeMap,
    Insert,
    InternalInvariantError,
    Link,
    MapError,
    Void,
    bottom,
    break_link,
    break_link_back,
    can_insert,
    can_link,
    closed_face_predecessor,
    closed_face_successor,
    closed_predecessor,
    closed_successor,
    delete_dart,
    face_predecessor,
    face_successor,
    has_dart,
    has_predecessor,
    has_successor,
    insert_dart,
    is_well_formed,
    link,
    make_map,
    predecessor,
    remove_dart,
    successor,
    top,
    unlink,
    unlink_back,
    well_formed_violation,
)
from .index import HypermapIndex, MapStats, build_index
from .io import (
    MAP_HEADER,
    ParseError,
    parse_map,
    parse_ring,
    serialize_map,
    serialize_ring,
    to_dot,
)
from .orbits import (
    Orbit,
    OrbitKind,
    all_orbits,
    orbit,
    same_component,
    same_edge,
    same_face,
    same_orbit,
    same_vertex,
)
from .stats import (
    CheckItem,
    IncrementalMap,
    TheoremReport,
    check_euler_formula,
    check_genus_theorem,
    counts,
    counts_incremental,
    euler_characteristic,
    genus,
    is_planar,
)
from .criteria import break_disconnects, planar_after_link, planar_from_break
from .rings import (
    RingDiagnostics,
    RingItem,
    adjacent_faces,
    break_ring,
    check_ring,
    face_anchor,
    is_ring,
    ring_closed,
    ring_continuous,
    ring_edges_unique,
    ring_faces_distinct,
)
from .jordan import (
    ExhaustiveReport,
    FuzzReport,
    JordanOutcome,
    candidate_rings,
    enumerate_maps,
    exhaustive_jordan,
    find_ring,
    first_break_keeps_connected,
    fuzz_jordan,
    jordan_check,
    load_witness,
    persist_witness,
    random_map,
    random_planar_map,
    tail_is_ring_after_first_break,
)

__version__ = "0.1.0"

__all__ = [
    "NIL", "Dart", "Dim", "FreeMap", "Void", "Insert", "Link",
    "MapError", "ConstraintError", "InternalInvariantError", "ParseError",
    "has_dart", "successor", "predecessor", "has_successor", "has_predecessor",
    "top", "bottom", "closed_successor", "closed_predecessor",
    "face_successor", "closed_face_successor",
    "face_predecessor", "closed_face_predecessor",
    "can_insert", "can_link", "insert_dart", "link", "make_map",
    "is_well_formed", "well_formed_violation",
    "break_link", "break_link_back", "delete_dart",
    "unlink", "unlink_back", "remove_dart",
    "HypermapIndex", "MapStats", "build_index",
    "OrbitKind", "Orbit", "orbit", "all_orbits", "same_orbit",
    "same_edge", "same_vertex", "same_face", "same_component",
    "counts", "counts_incremental", "euler_characteristic", "genus",
    "is_planar", "check_genus_theorem", "check_euler_formula",
    "CheckItem", "TheoremReport", "IncrementalMap",
    "planar_after_link", "planar_from_break", "break_disconnects",
    "RingItem", "RingDiagnostics", "face_anchor", "adjacent_faces",
    "ring_edges_unique", "ring_continuous", "ring_closed",
    "ring_faces_distinct", "check_ring", "is_ring", "break_ring",
    "JordanOutcome", "jordan_check",
    "first_break_keeps_connected", "tail_is_ring_after_first_break",
    "random_map", "random_planar_map", "find_ring",
    "FuzzReport", "fuzz_jordan", "persist_witness", "load_witness",
    "enumerate_maps", "candidate_rings",
    "ExhaustiveReport", "exhaustive_jordan",
    "MAP_HEADER", "parse_map", "serialize_map", "parse_ring",
    "serialize_ring", "to_dot",
]
