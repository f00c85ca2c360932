"""Text formats for maps and rings, and DOT export.

The canonical map format is the constructor trace itself, one step per
line, innermost first, under a version header:

    hmap 1
    i 1
    i 2
    l 0 1 2

``#`` starts a comment, blank lines are skipped.  Parsing builds the raw
term without validating construction preconditions; checking is a
separate concern.  Ring files carry one ``<dart> <t|f>`` item per line
in break order, with no header.

``parse_map`` and ``parse_ring`` read the text in one pass over
``str.splitlines()``, which also numbers the lines, and raise at the
first fault, so the error names the first faulty line.  A ring item's
shape is read before its dart; a map line's checks run in this order:

1. before the header: the first line with content must be the header,
   else "expected header"; text with no content line at all is
   "missing header" at line 1;
2. after it: the tag and the field count (``i`` with one field, ``l``
   with three), else "unrecognized line";
3. for a link, the dimension (``0`` or ``1``), then ``x``, then ``y``;
   a dart must be ASCII digits that ``int`` converts.
"""

from __future__ import annotations

from .fmap import Dim, FreeMap, Insert, Link, MapError, Void, _dim, history
from .index import HypermapIndex, ensure_index
from .orbits import OrbitKind, all_orbits
from .rings import RingItem, RingList

MAP_HEADER = "hmap 1"
_DIMS = {"0": Dim.zero, "1": Dim.one}


class ParseError(MapError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


def _parse_dart(token: str, line_no: int) -> int:
    # ASCII only: str.isdigit also accepts digits such as '²' that int() rejects
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(line_no, f"expected a dart number, got {token!r}")


def parse_map(text: str) -> FreeMap:
    """Parse the trace format into a raw term.

    Malformed lines are parse errors; violated construction
    preconditions are not (use the well-formedness check for those).
    """
    m: FreeMap = Void()
    lines = enumerate(text.splitlines(), start=1)
    for line_no, raw in lines:
        line = raw.split("#", 1)[0].strip()
        if line:
            if line != MAP_HEADER:
                raise ParseError(line_no,
                                 f"expected header {MAP_HEADER!r}, got {line!r}")
            break
    else:
        raise ParseError(1, f"missing header {MAP_HEADER!r}")
    for line_no, raw in lines:
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        parts = raw.split()
        if not parts:
            continue
        n = len(parts)
        tag = parts[0]
        if n == 2 and tag == "i":
            m = Insert(m, _parse_dart(parts[1], line_no))
        elif n == 4 and tag == "l":
            k = _DIMS.get(parts[1])
            if k is None:
                raise ParseError(line_no,
                                 f"dimension must be 0 or 1, got {parts[1]!r}")
            m = Link(m, k, _parse_dart(parts[2], line_no),
                     _parse_dart(parts[3], line_no))
        else:
            raise ParseError(line_no, f"unrecognized line {raw.strip()!r}")
    return m


def serialize_map(m: FreeMap) -> str:
    lines = [MAP_HEADER]
    for node in history(m):
        if isinstance(node, Insert):
            lines.append(f"i {node.x}")
        else:
            lines.append(f"l {_dim(node.k)} {node.x} {node.y}")
    return "\n".join(lines) + "\n"


def parse_ring(text: str) -> list[RingItem]:
    items: list[RingItem] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 2 or parts[1] not in ("t", "f"):
            raise ParseError(line_no,
                             f"expected '<dart> <t|f>', got {raw.strip()!r}")
        items.append(RingItem(_parse_dart(parts[0], line_no), parts[1] == "t"))
    return items


def serialize_ring(items: RingList) -> str:
    return "".join(f"{it.x} {'t' if it.flag else 'f'}\n" for it in items)


def to_dot(m: FreeMap | HypermapIndex) -> str:
    """DOT rendering: one cluster per component, explicit 0-links solid,
    explicit 1-links dashed."""
    idx = ensure_index(m)
    out = ["digraph hypermap {", "  rankdir=LR;", "  node [shape=circle];"]
    for n, comp in enumerate(all_orbits(idx, OrbitKind.component)):
        out.append(f"  subgraph cluster_{n} {{")
        out.append(f'    label="component {comp.representative}";')
        out.extend(f"    {d};" for d in comp.members)
        out.append("  }")
    for chain, style in zip(idx.chains, ("solid", "dashed")):
        out.extend(f"  {x} -> {chain.succ[x]} [style={style}];" for x in sorted(chain.succ))
    out.append("}")
    return "\n".join(out) + "\n"
