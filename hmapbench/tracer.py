"""Span tracing of ``hmap`` from outside the package.

``Tracer.install`` replaces every public function of every ``hmap``
module, in every ``hmap`` namespace that binds it, and every public
method of ``HypermapIndex`` and ``IncrementalMap``, with a wrapper that
records one span per call (one per ``next`` for generators).  A span is
(name, parent, start, end); spans stay in memory until the run ends.
The layer of a span is the module that defines the wrapped function.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from array import array
from time import perf_counter

LAYERS = ("fmap", "index", "orbits", "stats", "criteria", "rings",
          "jordan", "io", "cli")
MODULES = LAYERS + ("unionfind",)

# fmap functions that walk the term from its outermost node
TERM_WALKS = ("has_dart", "successor", "predecessor", "history",
              "break_link", "break_link_back", "delete_dart")
CHECKED_STEPS = ("insert_dart", "link")
CRITERIA = ("planar_after_link", "planar_from_break", "break_disconnects")
GENERATE = ("random_map", "random_planar_map")
SEARCH = ("find_ring", "candidate_rings")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.tally: dict[str, int] = dict.fromkeys(
            ("history_nodes", "darts_indexed", "checked_builds", "valid_rings",
             "ring_hits", "map_bytes", "maps_enumerated"), 0)
        self._undo: list[tuple[object, str, object]] = []
        self._hooks = self._after_hooks()

    # -- wrapping ------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer.append(layer)
        return len(self.names) - 1

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        after = self._hooks.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self._iterate(fn(*args, **kwargs), nid, after)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _iterate(self, it, nid: int, after):
        while True:
            i = self._open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(i)
            if after is not None:
                after((), {}, item)
            yield item

    def _after_hooks(self):
        t = self.tally

        def add(key, n):
            t[key] += n
        return {
            "history": lambda a, k, r: add("history_nodes", len(r)),
            "HypermapIndex.__init__": lambda a, k, r: (
                add("darts_indexed", len(a[0].darts)),
                add("checked_builds", int(k.get("check", True)))),
            "check_ring": lambda a, k, r: add("valid_rings", int(r.valid)),
            "find_ring": lambda a, k, r: add("ring_hits", int(r is not None)),
            "parse_map": lambda a, k, r: add("map_bytes", len(a[0])),
            "serialize_map": lambda a, k, r: add("map_bytes", len(r)),
            "enumerate_maps": lambda a, k, r: add("maps_enumerated", 1),
        }

    def install(self) -> None:
        import hmap
        mods = {name: importlib.import_module(f"hmap.{name}") for name in MODULES}
        wrappers: dict[int, object] = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = self._wrap(obj, name, layer)
        for mod in (hmap, *mods.values()):
            for name, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, w)
        for cls, layer in ((mods["index"].HypermapIndex, "index"),
                           (mods["stats"].IncrementalMap, "stats")):
            for name, obj in list(vars(cls).items()):
                if inspect.isfunction(obj) and (name == "__init__"
                                                or not name.startswith("_")):
                    self._undo.append((cls, name, obj))
                    setattr(cls, name, self._wrap(obj, f"{cls.__name__}.{name}", layer))

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()

    # -- analysis --------------------------------------------------------------

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tname\tparent\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.start)):
                f.write(f"{i}\t{names[self.span_name[i]]}\t{self.span_parent[i]}"
                        f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")

    def _under(self, i: int, ids: set[int]) -> bool:
        p = self.span_parent[i]
        while p >= 0:
            if self.span_name[p] in ids:
                return True
            p = self.span_parent[p]
        return False

    def metrics(self, ops: int, op_seconds: float,
                scale: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per op, from the spans recorded so far.

        Times are multiplied by ``scale``, reference seconds per wall second.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        root = 0.0
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                root += dur[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        by_name: dict[str, list[int]] = {}
        for i in range(n):
            nid = self.span_name[i]
            layer = self.layer[nid]
            if layer in self_s:
                self_s[layer] += dur[i] - child[i]
                layer_calls[layer] += 1
            by_name.setdefault(self.names[nid], []).append(i)
        calls = {name: len(spans) for name, spans in by_name.items()}

        def ids(names):
            return {j for j, nm in enumerate(self.names) if nm in names}

        def inclusive(names) -> float:
            group = ids(names)
            return sum(dur[i] for nm in names for i in by_name.get(nm, ())
                       if not self._under(i, group))

        def ncalls(names) -> int:
            return sum(calls.get(nm, 0) for nm in names)

        def under_criteria(names) -> int:
            crit = ids(CRITERIA)
            return sum(1 for nm in names for i in by_name.get(nm, ())
                       if self._under(i, crit))

        t = self.tally
        builds = calls.get("HypermapIndex.__init__", 0)
        attempts = calls.get("IncrementalMap.link_violation", 0)
        checks = calls.get("check_ring", 0)
        finds = calls.get("find_ring", 0)
        ms = 1000.0 * scale / ops
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (self_s[layer] * ms, "ms")
        out.update({
            "bench.self_ms": ((op_seconds - root) * ms, "ms"),
            "fmap.term_walks": (ncalls(TERM_WALKS) / ops, "count"),
            "fmap.history_nodes": (t["history_nodes"] / ops, "count"),
            "fmap.checked_steps": (ncalls(CHECKED_STEPS) / ops, "count"),
            "index.builds": (builds / ops, "count"),
            "index.checked_builds": (t["checked_builds"] / ops, "count"),
            "index.darts_indexed": (t["darts_indexed"] / ops, "count"),
            "index.us_per_dart": (self_s["index"] * scale * 1e6 / t["darts_indexed"]
                                  if t["darts_indexed"] else 0.0, "us"),
            "orbits.calls": (layer_calls["orbits"] / ops, "count"),
            "stats.link_attempts": (attempts / ops, "count"),
            "stats.link_accept_ratio": (calls.get("IncrementalMap.link", 0) / attempts
                                        if attempts else 0.0, "ratio"),
            "criteria.queries": (ncalls(CRITERIA) / ops, "count"),
            "criteria.index_builds": (under_criteria(["HypermapIndex.__init__"]) / ops,
                                      "count"),
            "criteria.term_walks": (under_criteria(TERM_WALKS) / ops, "count"),
            "rings.checks": (checks / ops, "count"),
            "rings.valid_ratio": (t["valid_rings"] / checks if checks else 0.0, "ratio"),
            "rings.breaks": (calls.get("break_ring", 0) / ops, "count"),
            "jordan.enumerate_ms": (inclusive(["enumerate_maps"]) * ms, "ms"),
            "jordan.maps_enumerated": (t["maps_enumerated"] / ops, "count"),
            "jordan.generate_ms": (inclusive(GENERATE) * ms, "ms"),
            "jordan.search_ms": (inclusive(SEARCH) * ms, "ms"),
            "jordan.ring_hit_ratio": (t["ring_hits"] / finds if finds else 0.0, "ratio"),
            "io.map_bytes": (t["map_bytes"] / ops, "B"),
        })
        return out
