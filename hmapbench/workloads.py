"""The four benchmark workloads.

Each workload makes its inputs from the seed in ``setup`` (this is where
``hmap`` is first imported, so import time counts as set-up), hands out
its operations one round at a time in ``round``, and checks what the
operations returned in ``check`` against ``refcount`` or against a
property the method must have.  An op is one call into ``hmap``'s
public entry point; calls go through the ``hmap`` namespaces at call
time, so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import refcount


class Sweep:
    """``exhaustive_jordan(4, 3)``: every map with at most 4 darts, every
    ring of at most 3 items.  The sweep is exhaustive, so the seed does
    not change its input."""

    name = "sweep"
    MAX_DARTS, MAX_RING = 4, 3

    def setup(self, seed: int, workdir: Path) -> None:
        import hmap
        self.hmap = hmap
        self.reports: list[tuple[bool, int, int]] = []

    def round(self, r: int):
        def op():
            rep = self.hmap.exhaustive_jordan(self.MAX_DARTS, self.MAX_RING)
            return rep.passed, rep.maps_seen, rep.planar_maps
        return [("exhaustive_jordan", op)]

    def record(self, r: int, label: str, out) -> None:
        self.reports.append(out)

    def check(self) -> list[str]:
        maps = refcount.map_count(self.MAX_DARTS)
        planar = sum(1 for s in refcount.small_maps(self.MAX_DARTS)
                     if refcount.genus(s) == 0)
        return [f"sweep report {rep} != (True, {maps}, {planar})"
                for rep in self.reports if rep != (True, maps, planar)]


class Fuzz:
    """``fuzz_jordan(25, s, 48)`` with a fresh trial seed ``s`` per op:
    planar maps of 2 to 48 darts, rings of at most 4 items."""

    name = "fuzz"
    TRIALS, SIZE, SAMPLE = 25, 48, 40

    def setup(self, seed: int, workdir: Path) -> None:
        import hmap
        self.hmap = hmap
        self.seed = seed
        self.reports: list[tuple[bool, int]] = []

    def round(self, r: int):
        s = random.Random(f"fuzz:{self.seed}:{r}").getrandbits(48)

        def op():
            rep = self.hmap.fuzz_jordan(self.TRIALS, s, self.SIZE)
            return rep.passed, rep.rings_found
        return [("fuzz_jordan", op)]

    def record(self, r: int, label: str, out) -> None:
        self.reports.append(out)

    def check(self) -> list[str]:
        errors = [f"fuzz report passed={p} rings_found={n}"
                  for p, n in self.reports if not (p and n > 0)]
        # a seeded sample of generated maps and found rings, recounted
        hmap = self.hmap
        rng = random.Random(self.seed ^ 0x5A5A)
        rings = 0
        for _ in range(self.SAMPLE):
            s = rng.getrandbits(48)
            n = rng.randint(2, self.SIZE)
            m = hmap.random_planar_map(s, n, rng.randint(n // 2, 2 * n))
            steps = refcount.parse_steps(hmap.serialize_map(m))
            before = refcount.count(steps)
            if not refcount.well_formed(steps) or before[6] != 0:
                errors.append(f"random_planar_map({s}, {n}) has genus {before[6]}")
                continue
            ring = hmap.find_ring(m, 4, s)
            if ring is None:
                continue
            rings += 1
            after = refcount.n_components(
                refcount.break_zero_links(steps, [it.x for it in ring]))
            if after != before[4] + 1:
                errors.append(f"ring {ring} on map {s}: nc {before[4]} -> {after}")
        if rings == 0:
            errors.append("no ring found in the fuzz sample")
        return errors


class Construct:
    """One op builds a planar map of 64 darts through the checked
    ``insert_dart``/``link`` from 90 random link proposals, each decided by
    ``planar_after_link``, then asks ``planar_from_break`` and
    ``break_disconnects`` on every 0-link of the result."""

    name = "construct"
    DARTS, PROPOSALS = 64, 90

    def setup(self, seed: int, workdir: Path) -> None:
        import hmap
        self.hmap = hmap
        self.dims = (hmap.Dim.zero, hmap.Dim.one)
        self.seed = seed
        self.built: list[tuple[list, list, list]] = []

    def _propose(self, rng: random.Random, succ, pred):
        """A random link that meets the link preconditions, or None."""
        first = rng.getrandbits(1)
        for k in (first, 1 - first):
            outs = [d for d in range(1, self.DARTS + 1) if d not in succ[k]]
            ins = [d for d in range(1, self.DARTS + 1) if d not in pred[k]]
            for _ in range(20):
                x, y = rng.choice(outs), rng.choice(ins)
                bottom = x
                while bottom in pred[k]:
                    bottom = pred[k][bottom]
                if bottom != y:
                    return k, x, y
        return None

    def round(self, r: int):
        rng = random.Random(f"construct:{self.seed}:{r}")

        def op():
            hmap, dims = self.hmap, self.dims
            m = hmap.Void()
            steps = []
            for d in range(1, self.DARTS + 1):
                m = hmap.insert_dart(m, d)
                steps.append(("i", d))
            succ, pred = ({}, {}), ({}, {})
            answers = []
            for _ in range(self.PROPOSALS):
                prop = self._propose(rng, succ, pred)
                if prop is None:
                    break
                k, x, y = prop
                ok = hmap.planar_after_link(m, dims[k], x, y)
                answers.append((len(steps), k, x, y, ok))
                if ok:
                    m = hmap.link(m, dims[k], x, y)
                    steps.append(("l", k, x, y))
                    succ[k][x] = y
                    pred[k][y] = x
            breaks = [(x, hmap.planar_from_break(m, dims[0], x),
                       hmap.break_disconnects(m, x)) for x in sorted(succ[0])]
            return steps, answers, breaks
        return [("construct", op)]

    def record(self, r: int, label: str, out) -> None:
        self.built.append(out)

    def check(self) -> list[str]:
        errors = []
        for steps, answers, breaks in self.built:
            for n, k, x, y, ok in answers:
                if ok != (refcount.genus(steps[:n] + [("l", k, x, y)]) == 0):
                    errors.append(f"planar_after_link({k}, {x}, {y}) = {ok} after "
                                  f"{n} steps")
            before = refcount.count(steps)
            for x, planar, disconnects in breaks:
                after = refcount.n_components(refcount.break_zero_links(steps, [x]))
                if planar != (before[6] == 0):
                    errors.append(f"planar_from_break(0, {x}) = {planar}")
                if disconnects != (after == before[4] + 1):
                    errors.append(f"break_disconnects({x}) = {disconnects}")
        return errors


class Large:
    """``run_cli`` in-process on generated planar maps of 1,000, 2,000 and
    3,000 darts: ``check``, ``stats``, ``planar``, ``orbit``, ``ring-check``,
    ``jordan``, ``break``, ``dot`` and ``gen`` on each, plus one library
    op per round, ``parse_map(serialize_map(m)) == m`` on a fixed
    200-dart map that does not depend on the seed."""

    name = "large"
    SIZES = (1000, 2000, 3000)
    EQ_MAP = (1, 200, 400)  # random_planar_map(seed, darts, links)

    def setup(self, seed: int, workdir: Path) -> None:
        import hmap
        from hmap import cli
        self.hmap, self.cli = hmap, cli
        rng = random.Random(seed)
        self.maps = []
        self.ops = []
        for i, n in enumerate(self.SIZES):
            gseed = rng.getrandbits(31)
            m = hmap.random_planar_map(gseed, n, 2 * n)
            text = hmap.serialize_map(m)
            rings = []
            for ring in hmap.candidate_rings(hmap.build_index(m), 4):
                rings.append(ring)
                if len(rings) == 2000:
                    break
            longest = max(len(r) for r in rings)
            ring = rng.choice([r for r in rings if len(r) == longest])
            dart = rng.randint(1, n)
            paths = {ext: str(workdir / f"m{i}.{ext}")
                     for ext in ("map", "ring", "brk", "dot", "gen")}
            Path(paths["map"]).write_text(text, encoding="utf-8")
            Path(paths["ring"]).write_text(hmap.serialize_ring(ring), encoding="utf-8")
            self.maps.append((n, text, ring, dart))
            mp, rp = paths["map"], paths["ring"]
            for argv, out in (
                    (["check", mp], None),
                    (["stats", mp], None),
                    (["planar", mp], None),
                    (["orbit", mp, "--kind", "face", "--dart", str(dart)], None),
                    (["ring-check", mp, rp], None),
                    (["jordan", mp, rp], None),
                    (["break", mp, rp, "-o", paths["brk"]], paths["brk"]),
                    (["dot", mp, "-o", paths["dot"]], paths["dot"]),
                    (["gen", "--darts", str(n), "--links", str(2 * n),
                      "--seed", str(gseed), "-o", paths["gen"]], paths["gen"])):
                self.ops.append((f"{argv[0]}:{i}", self._cli_op(argv), out))
        self.eq_map = hmap.random_planar_map(*self.EQ_MAP)
        self.ops.append(("term_eq", self._eq_op, None))
        self.outfiles = {label: out for label, _, out in self.ops}
        self.outputs: dict[str, tuple] = {}
        self.mismatches: list[str] = []

    def _cli_op(self, argv):
        def op():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = self.cli.run_cli(argv)
            return rc, buf.getvalue()
        return op

    def _eq_op(self):
        hmap = self.hmap
        return hmap.parse_map(hmap.serialize_map(self.eq_map)) == self.eq_map

    def round(self, r: int):
        return [(label, op) for label, op, _ in self.ops]

    def record(self, r: int, label: str, out) -> None:
        path = self.outfiles[label]
        if path is not None:  # removed once read, so each round must write it anew
            out = out + (Path(path).read_text(encoding="utf-8"),)
            Path(path).unlink()
        first = self.outputs.setdefault(label, out)
        if out != first:
            self.mismatches.append(f"{label}: round {r} output differs from round 0")

    def check(self) -> list[str]:
        errors = list(self.mismatches)
        hmap = self.hmap
        for i, (n, text, ring, dart) in enumerate(self.maps):
            if hmap.serialize_map(hmap.parse_map(text)) != text:
                errors.append(f"map {i}: serialize_map(parse_map(text)) != text")
            steps = refcount.parse_steps(text)
            nd, ne, nv, nf, nc, ec, g = refcount.count(steps)
            darts, closed, _ = refcount.closures(steps)
            face = refcount.face_perm(darts, closed)
            cycle = [dart]
            while face[cycle[-1]] != dart:
                cycle.append(face[cycle[-1]])
            broken = refcount.break_zero_links(steps, [it.x for it in ring])
            expect = {
                "check": (0, "well-formed=true\n") if refcount.well_formed(steps)
                else None,
                "stats": (0, f"nd={nd}\nne={ne}\nnv={nv}\nnf={nf}\nnc={nc}\n"
                             f"ec={ec}\ngenus={g}\nplanar={str(g == 0).lower()}\n"),
                "planar": (0 if g == 0 else 1, f"planar={str(g == 0).lower()}\n"),
                "orbit": (0, " ".join(map(str, cycle)) + "\n"),
                "ring-check": (0, "valid ring\n"),
                "jordan": (0, f"nc_before={nc} nc_after={nc + 1} verdict=pass\n"),
            }
            if refcount.n_components(broken) != nc + 1:
                errors.append(f"map {i}: reference break of the ring is not +1")
            for cmd, want in expect.items():
                got = self.outputs.get(f"{cmd}:{i}")
                if got is None or got != want:
                    errors.append(f"{cmd} on map {i}: {str(got)[:80]!r} != {want!r}")
            rc, _, brk = self.outputs.get(f"break:{i}", (None, None, ""))
            bsteps = refcount.parse_steps(brk) if rc == 0 else []
            if rc != 0 or not refcount.well_formed(bsteps) \
                    or refcount.n_components(bsteps) != nc + 1:
                errors.append(f"break on map {i}: output is not nc+1")
            rc, _, dot = self.outputs.get(f"dot:{i}", (None, None, ""))
            if rc != 0 or dot.count("subgraph cluster_") != nc:
                errors.append(f"dot on map {i}: clusters != {nc}")
            rc, _, gen = self.outputs.get(f"gen:{i}", (None, None, ""))
            gsteps = refcount.parse_steps(gen) if rc == 0 else []
            if rc != 0 or not refcount.well_formed(gsteps) \
                    or refcount.count(gsteps)[0] != n or refcount.genus(gsteps) != 0:
                errors.append(f"gen on map {i}: output is not a planar {n}-dart map")
        eq = self.outputs.get("term_eq")
        if eq is not None and eq is not True:
            errors.append(f"parse_map(serialize_map(m)) == m gave {eq!r}")
        return errors

    def index_bytes_per_dart(self) -> float:
        """Memory an index of each input map holds, per dart (tracemalloc)."""
        import gc
        import tracemalloc
        total = darts = 0
        for n, text, _, _ in self.maps:
            m = self.hmap.parse_map(text)
            gc.collect()
            tracemalloc.start()
            idx = self.hmap.build_index(m)
            total += tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            del idx
            darts += n
        return total / darts


WORKLOADS = {w.name: w for w in (Sweep, Fuzz, Large, Construct)}
