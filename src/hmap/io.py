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
"""

from __future__ import annotations

from .fmap import Dim, FreeMap, Insert, Link, MapError, Void, history
from .index import HypermapIndex, ensure_index
from .orbits import OrbitKind, all_orbits
from .rings import RingItem, RingList

MAP_HEADER = "hmap 1"


class ParseError(MapError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


def _content_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


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
    saw_header = False
    for line_no, line in _content_lines(text):
        if not saw_header:
            if line != MAP_HEADER:
                raise ParseError(line_no,
                                 f"expected header {MAP_HEADER!r}, got {line!r}")
            saw_header = True
            continue
        parts = line.split()
        if parts[0] == "i" and len(parts) == 2:
            m = Insert(m, _parse_dart(parts[1], line_no))
        elif parts[0] == "l" and len(parts) == 4:
            if parts[1] not in ("0", "1"):
                raise ParseError(line_no,
                                 f"dimension must be 0 or 1, got {parts[1]!r}")
            k = Dim(int(parts[1]))
            x = _parse_dart(parts[2], line_no)
            y = _parse_dart(parts[3], line_no)
            m = Link(m, k, x, y)
        else:
            raise ParseError(line_no, f"unrecognized line {line!r}")
    if not saw_header:
        raise ParseError(1, f"missing header {MAP_HEADER!r}")
    return m


def serialize_map(m: FreeMap) -> str:
    lines = [MAP_HEADER]
    for node in history(m):
        if isinstance(node, Insert):
            lines.append(f"i {node.x}")
        else:
            lines.append(f"l {node.k.value} {node.x} {node.y}")
    return "\n".join(lines) + "\n"


def parse_ring(text: str) -> list[RingItem]:
    items: list[RingItem] = []
    for line_no, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 2 or parts[1] not in ("t", "f"):
            raise ParseError(line_no,
                             f"expected '<dart> <t|f>', got {line!r}")
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
