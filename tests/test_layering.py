"""The recursive term observers are the oracle, not a fast path.

Each of them walks the whole term per query.  Inside ``hmap`` only
``fmap`` itself (and ``__init__``, which re-exports them) may import
them; every other module asks a kernel or an index instead.

A function that reads a map takes it as one argument, the term or its
index, so no public function has an ``index`` parameter as well.  Every
replay checks its term, so none has a ``check`` parameter either.

Every kernel's state is made in ``fmap``, by ``ChainKernel``'s
constructor or by ``_adopt``, which hands an index the trackers of such
constructions kept on its term, or else replays it: no other module
assigns a kernel's ``dart_set`` or ``chains``.

Which edge a double-link lies on and which two faces it borders is
worked out in the index alone, in its ``double_links``: outside
``index`` and ``orbits`` no module reads ``edge_ids`` or ``face_ids``.

The law check counts the components after a ring break by a walk of
the unbroken term: ``jordan_check`` and ``exhaustive_jordan`` build no
broken term, so neither calls ``break_ring``.

The generators reach ``random.Random`` through its public methods only.

A generator keeps its trackers on the term it returns, in the term's own
``_trackers`` slot, which only ``fmap`` names: no module-level state is
rebound (no ``global`` statement) and nothing is weakly referenced.  The
slot is the one way to hand trackers to an index: only ``fmap`` takes
them off a term (``_take_trackers``), and an index is built from its
term alone.
"""

import ast
import importlib
import inspect
import random
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


def _public_callables():
    """Every public function and class of every ``hmap`` module."""
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":  # defines nothing, re-exports the rest
            continue
        mod = importlib.import_module(f"hmap.{path.stem}")
        for name, obj in vars(mod).items():
            if (callable(obj) and not name.startswith("_")
                    and getattr(obj, "__module__", None) == mod.__name__):
                yield f"{path.stem}.{name}", obj


def test_no_public_function_takes_an_index_keyword():
    offenders = []
    names = dict(_public_callables())
    assert {"fmap.ChainKernel", "index.build_index"} <= names.keys()
    for name, obj in names.items():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # no signature to read
            continue
        if {"index", "check"} & params.keys():
            offenders.append(name)
    assert offenders == []


def _kernel_state_stores(path: Path) -> list[str]:
    return sorted({node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                   and node.attr in ("dart_set", "chains")})


def test_only_fmap_builds_kernel_state():
    offenders = {p.name: _kernel_state_stores(p) for p in sorted(SRC.glob("*.py"))
                 if p.stem != "fmap"}
    assert {name: attrs for name, attrs in offenders.items() if attrs} == {}
    assert _kernel_state_stores(SRC / "fmap.py") == ["chains"]


def _attribute_reads(path: Path, names: set[str]) -> list[str]:
    reads = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in names:
            reads.add(node.attr)
        elif isinstance(node, ast.Constant) and node.value in names:
            reads.add(node.value)  # as in getattr(rng, "_randbelow")
    return sorted(reads)


def test_only_index_and_orbits_read_edge_and_face_labels():
    labels = {"edge_ids", "face_ids"}
    offenders = {p.name: _attribute_reads(p, labels) for p in sorted(SRC.glob("*.py"))
                 if p.stem not in ("index", "orbits")}
    assert {name: reads for name, reads in offenders.items() if reads} == {}
    assert _attribute_reads(SRC / "index.py", labels) == ["edge_ids", "face_ids"]


def _calls_in(path: Path, function: str) -> set[str]:
    """The names of the functions called in the body of ``function``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (body,) = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == function]
    names = set()
    for node in ast.walk(body):
        if isinstance(node, ast.Call):
            func = node.func
            names.add(func.id if isinstance(func, ast.Name)
                      else getattr(func, "attr", None))
    return names


def test_law_checks_build_no_broken_term():
    for function, count in (("jordan_check", "count_components"),
                            ("exhaustive_jordan", "_recount")):
        calls = _calls_in(SRC / "jordan.py", function)
        assert count in calls, function
        assert "break_ring" not in calls, function
    assert _calls_in(SRC / "index.py", "count_components") == {"_recount"}
    assert "break_ring" in _calls_in(SRC / "jordan.py", "tail_is_ring_after_first_break")


def test_generators_use_public_random_api_only():
    # the generators draw what randrange and choice draw through public
    # getrandbits alone; random's private helpers may change between versions
    private = {name for name in dir(random.Random)
               if name.startswith("_") and not name.endswith("__")}
    assert "_randbelow" in private
    offenders = {p.name: _attribute_reads(p, private)
                 for p in sorted(SRC.glob("*.py"))}
    assert {name: reads for name, reads in offenders.items() if reads} == {}


def _names(path: Path, name: str) -> bool:
    """``name`` is imported, read, defined or spelt as a string in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and name in (node.name, node.asname)
                or isinstance(node, ast.FunctionDef) and node.name == name
                or isinstance(node, ast.Constant) and node.value == name):
            return True
    return False


def test_only_fmap_takes_trackers_and_an_index_takes_only_its_term():
    from hmap.index import HypermapIndex
    modules = sorted(SRC.glob("*.py"))
    assert [p.name for p in modules if _names(p, "_take_trackers")] == ["fmap.py"]
    assert list(inspect.signature(HypermapIndex).parameters) == ["m"]


def test_only_fmap_writes_the_tracker_slot_and_no_module_state_is_rebound():
    modules = sorted(SRC.glob("*.py"))
    assert [p.name for p in modules if _names(p, "_trackers")] == ["fmap.py"]
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            assert not isinstance(node, ast.Global), (path.name, node.lineno)
            if isinstance(node, ast.Import):
                assert "weakref" not in {a.name for a in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "weakref", path.name
