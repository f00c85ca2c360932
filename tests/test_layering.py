"""The recursive term observers are the oracle, not a fast path.

Each of them walks the whole term per query.  Inside ``hmap`` only
``fmap`` itself (and ``__init__``, which re-exports them) may import
them; every other module asks a kernel or an index instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hmap"

TERM_OBSERVERS = {
    "has_dart", "successor", "predecessor", "has_successor", "has_predecessor",
    "top", "bottom", "closed_successor", "closed_predecessor",
    "face_successor", "face_predecessor",
    "closed_face_successor", "closed_face_predecessor",
}


def _imported_observers(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module in ("fmap", "hmap.fmap"):
            names.update(alias.name for alias in node.names)
    return names & TERM_OBSERVERS


def test_only_fmap_imports_the_term_observers():
    modules = sorted(SRC.glob("*.py"))
    assert {p.stem for p in modules} >= {"fmap", "index", "criteria", "rings"}
    offenders = {p.name: sorted(_imported_observers(p)) for p in modules
                 if p.stem not in ("fmap", "__init__")}
    assert {name: obs for name, obs in offenders.items() if obs} == {}
