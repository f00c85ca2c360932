"""The ring-break connectivity check and the machinery to test it at scale.

The headline property: breaking a planar map along a valid ring of faces
increases the component count by exactly one.  This module checks that
on demand (``jordan_check``), on randomly generated planar maps with
searched-for rings (``fuzz_jordan``), and exhaustively over all small
maps and all short rings (``exhaustive_jordan``).  The two supporting
lemmas of the inductive argument are checkable on their own:
``first_break_keeps_connected`` and ``tail_is_ring_after_first_break``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .criteria import break_disconnects
from .fmap import (
    _ONE,
    _ZERO,
    NIL,
    ChainKernel,
    ChainTracker,
    ConstraintError,
    Dart,
    Dim,
    FreeMap,
    Insert,
    Link,
    MapError,
    Void,
)
from .index import (
    HypermapIndex,
    _cycle,
    build_index,
    count_components,
    ensure_index,
    require_well_formed,
)
from .rings import RingItem, RingList, break_ring, check_ring
from .stats import IncrementalMap
from .unionfind import _find


@dataclass(frozen=True, slots=True)
class JordanOutcome:
    """Result of one ring-break connectivity check."""

    n_components_before: int
    n_components_after: int
    map_term: FreeMap
    ring: tuple[RingItem, ...]

    @property
    def delta(self) -> int:
        return self.n_components_after - self.n_components_before

    @property
    def passed(self) -> bool:
        return self.delta == 1

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (f"nc_before={self.n_components_before} "
                f"nc_after={self.n_components_after} verdict={verdict}")


def jordan_check(m: FreeMap | HypermapIndex, items: RingList) -> JordanOutcome:
    """Break along the ring and compare component counts.

    The count after the break is one walk of the unbroken term that
    leaves the ring's 0-links out (``count_components(term, darts)``),
    so no broken term is built; ``map_term`` is the unbroken term.
    Requires a well-formed planar map and a valid ring; each failed
    precondition is reported by name.
    """
    idx = ensure_index(m)
    if not idx.stats.planar:
        raise ConstraintError("map is not planar")
    diag = check_ring(idx, items)
    if not diag.valid:
        raise ConstraintError(f"not a valid ring: {diag.summary()}")
    after = count_components(idx.term, {it.x for it in items})
    return JordanOutcome(idx.stats.n_components, after, idx.term, tuple(items))


def first_break_keeps_connected(m: FreeMap | HypermapIndex, items: RingList) -> bool:
    """For a valid ring of length >= 2, breaking the first item's link
    must not disconnect: the link target and the chain bottom must lie
    in different faces.  Returns True when that holds."""
    if len(items) < 2:
        raise ConstraintError("needs a ring of length >= 2")
    return not break_disconnects(m, items[0].x)


def tail_is_ring_after_first_break(m: FreeMap | HypermapIndex, items: RingList) -> bool:
    """After breaking the first item's link, the remaining items must
    still satisfy all four ring conditions in the broken map.  Raises
    ConstraintError when the first item has no 0-link to break."""
    if len(items) < 2:
        raise ConstraintError("needs a ring of length >= 2")
    term, _ = require_well_formed(m)
    m1 = break_ring(term, items[:1])
    return check_ring(build_index(m1), items[1:]).valid


# ---------------------------------------------------------------------------
# random generation


def random_map(seed: int, n_darts: int, n_link_attempts: int) -> FreeMap:
    """Deterministic random well-formed map: darts 1..n, then uniform
    link attempts, keeping those that meet the link preconditions.

    Each attempt draws its dimension as ``getrandbits(1)`` and its two
    darts as ``randint(1, n)`` would, by the rule of
    :func:`random_planar_map`.  ConstraintError on a negative count."""
    if n_darts < 0:
        raise ConstraintError(f"dart count {n_darts} is negative")
    if n_link_attempts < 0:
        raise ConstraintError(f"link attempt count {n_link_attempts} is negative")
    rng = random.Random(seed)
    inc = IncrementalMap()
    for d in range(1, n_darts + 1):
        inc.insert(d)
    if n_darts > 0:
        bits, nb = rng.getrandbits, n_darts.bit_length()
        link_violation, link = inc.link_violation, inc.link
        dims = (_ZERO, _ONE)
        for _ in range(n_link_attempts):
            k = dims[bits(1)]
            x = bits(nb) + 1
            while x > n_darts:
                x = bits(nb) + 1
            y = bits(nb) + 1
            while y > n_darts:
                y = bits(nb) + 1
            if link_violation(k, x, y) is None:
                link(k, x, y)
    return inc.term()


def random_planar_map(seed: int, n_darts: int, n_links: int) -> FreeMap:
    """Deterministic random planar map.

    Inserts darts 1..n, then mixes three kinds of planarity-preserving
    links, in the weights 2:3:3, until ``n_links`` are placed or the
    budget of ``10 * n_links + 20`` attempts runs out: a bridge between
    two components, a face split at dimension zero, and a face split at
    dimension one.  Isolated darts are planar, bridges keep the
    characteristic identity across the merge, and splits add one face
    inside one component, so every intermediate map is planar by
    construction.

    By Euler's formula a planar map of ``n`` darts and ``nc`` components
    holds at most ``2n - 2*nc`` links, fewer than ``2n``; so
    ``n_links = 2 * n_darts`` always spends the whole budget and places
    fewer links than asked.

    The term is a fixed function of ``(seed, n_darts, n_links)``: the
    draws, their order and the attempt count all decide it, and the
    test suite pins the terms of a set of triples by their digest.
    Every draw goes through the public ``random()`` and ``getrandbits``
    of a ``random.Random`` seeded with ``seed``.  With
    ``r = random() * 8.0``, the move is a bridge when ``r < 2``, a split
    at dimension zero when ``2 <= r < 5`` and one at dimension one
    otherwise: ``bisect((2, 5, 8), r, 0, 2)``, what
    ``choices(moves, weights=(2, 3, 3))`` computes.  A bridge between
    darts of one component is dropped before the link check; every
    other attempt makes one ``link_violation`` call.  A number below
    ``n`` is ``getrandbits(n.bit_length())``, drawn again until it is
    below ``n``: that is how ``random.Random`` draws ``randrange(n)``
    and the index of ``choice(seq)`` with ``n = len(seq)``, so the
    darts (``randint(1, n)``) and the face members come out as those
    calls give them, without their per-call set-up.  The digest holds
    this rule to those calls: it was recorded when the generator still
    made them.
    """
    if n_darts < 0:
        raise ConstraintError(f"dart count {n_darts} is negative")
    if n_links < 0:
        raise ConstraintError(f"link count {n_links} is negative")
    if n_links > 2 * n_darts:
        raise ConstraintError(
            f"{n_links} links is impossible with {n_darts} darts "
            f"(each dimension holds at most one link per dart)")
    rng = random.Random(seed)
    inc = IncrementalMap()
    for d in range(1, n_darts + 1):
        inc.insert(d)
    if n_links == 0:
        return inc.term()

    rand, bits, nb = rng.random, rng.getrandbits, n_darts.bit_length()
    parent, face_next = inc.components, inc.face_next
    c0, c1 = inc.chains
    closed_pred0, closed_succ1 = c0.closed_pred, c1.closed_succ
    link_violation, link = inc.link_violation, inc.link
    dims = (_ZERO, _ONE)
    placed = 0
    for _ in range(10 * n_links + 20):
        r = rand() * 8.0
        if r < 2.0:  # a bridge
            x = bits(nb) + 1
            while x > n_darts:
                x = bits(nb) + 1
            y = bits(nb) + 1
            while y > n_darts:
                y = bits(nb) + 1
            if _find(parent, x) == _find(parent, y):
                continue
            k = dims[bits(1)]
        else:
            # a and b share a face; the split links them through a closure
            z = bits(nb) + 1
            while z > n_darts:
                z = bits(nb) + 1
            face = _cycle(face_next, z)
            n = len(face)
            fb = n.bit_length()
            i = bits(fb)
            while i >= n:
                i = bits(fb)
            j = bits(fb)
            while j >= n:
                j = bits(fb)
            a, b = face[i], face[j]
            if r < 5.0:
                k, x, y = _ZERO, closed_succ1[a], b
            else:
                k, x, y = _ONE, a, closed_pred0[b]
        if link_violation(k, x, y) is None:
            link(k, x, y)
            placed += 1
            if placed == n_links:
                break
    return inc.term()


# ---------------------------------------------------------------------------
# ring discovery


def find_ring(m: FreeMap | HypermapIndex, max_len: int,
              seed: int) -> list[RingItem] | None:
    """Search for a valid ring of at most ``max_len`` items.

    Returns the first ring of the search ``candidate_rings`` runs, with
    the exploration order shuffled by ``seed``.  The search is
    exhaustive, so None means no such ring exists.
    """
    idx = ensure_index(m)
    rings = _ring_search(idx, max_len, random.Random(seed).shuffle)
    return next((list(ring) for ring in rings), None)


def candidate_rings(m: FreeMap | HypermapIndex,
                    max_len: int) -> Iterator[tuple[RingItem, ...]]:
    """Every valid ring of the map with at most ``max_len`` items.

    Singletons are the double-links bordering one face on both sides
    (either flag works, so both lists appear); longer rings are simple
    cycles through distinct faces over distinct edge orbits, and the
    flags are forced by the traversal direction.  The map is indexed,
    or refused with MapError, before the first ring is asked for.
    """
    return _ring_search(ensure_index(m), max_len, _keep_order)


def _keep_order(seq: list) -> None:
    """The exploration order of ``candidate_rings``: as built."""


def _ring_search(idx: HypermapIndex, max_len: int,
                 order: Callable[[list], None]) -> Iterator[tuple[RingItem, ...]]:
    """Depth-first search of the graph whose nodes are faces and whose
    edges are the double-links, for simple cycles with pairwise distinct
    edge orbits.  ``order`` permutes each list the search explores, in
    place, before it is explored.  The search is one loop over a stack
    of iterators, one per face on the path, so a long ring costs no
    nested generators and no recursion.  After the singletons it stops
    unless two edge orbits or more join two different faces, as a ring
    of L >= 2 items crosses L distinct such edges; it stops before any
    other ``order`` call, so a shuffle draws the same up to each ring."""
    conns = list(idx.double_links.items())
    order(conns)
    crossing: set[Dart] = set()
    for x, (edge, fy, f0) in conns:
        if fy != f0:
            crossing.add(edge)
        elif max_len >= 1:
            yield (RingItem(x, True),)
            yield (RingItem(x, False),)
    if max_len < 2 or len(crossing) < 2:
        return

    # each face's options: (edge id, the item that crosses it, the face beyond)
    by_face: dict[Dart, list[tuple[Dart, RingItem, Dart]]] = {}
    for x, (edge, fy, f0) in conns:
        if fy == f0:
            continue
        by_face.setdefault(fy, []).append((edge, RingItem(x, True), f0))
        by_face.setdefault(f0, []).append((edge, RingItem(x, False), fy))
    for options in by_face.values():
        order(options)
    starts = sorted(by_face)
    order(starts)

    for start in starts:
        # one frame per face on the path: the options of that face still
        # to explore, and the edge and face of the item that entered it
        used_edges: set[Dart] = set()
        visited = {start}
        path: list[RingItem] = []
        stack = [(iter(by_face[start]), NIL, start)]
        while stack:
            depth = len(stack)
            for edge, item, other in stack[-1][0]:
                if edge in used_edges:
                    continue
                if other == start and depth >= 2:
                    yield (*path, item)
                if other in visited or depth >= max_len:
                    continue
                used_edges.add(edge)
                visited.add(other)
                path.append(item)
                stack.append((iter(by_face[other]), edge, other))
                break
            else:
                _options, edge, face = stack.pop()
                if stack:
                    path.pop()
                    visited.remove(face)
                    used_edges.remove(edge)


# ---------------------------------------------------------------------------
# fuzzing


def _length_tally(rings_by_length: dict[int, int]) -> str:
    """``1:N,2:M,...``: the ring count of each item count, shortest first."""
    return ",".join(f"{n}:{c}" for n, c in sorted(rings_by_length.items()))


@dataclass(slots=True)
class FuzzReport:
    """Aggregate outcome of a fuzzing run; failures are data, not raises."""

    trials: int = 0
    rings_found: int = 0
    rings_by_length: dict[int, int] = field(default_factory=dict)
    delta_failures: int = 0
    connect_failures: int = 0
    tail_failures: int = 0
    search_failures: int = 0
    witness_paths: list[str] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return (self.delta_failures + self.connect_failures
                + self.tail_failures + self.search_failures)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def summary(self) -> str:
        lines = [
            f"trials={self.trials}",
            f"rings_found={self.rings_found}",
            f"rings_by_length={_length_tally(self.rings_by_length)}",
            f"delta_failures={self.delta_failures}",
            f"connect_failures={self.connect_failures}",
            f"tail_failures={self.tail_failures}",
            f"search_failures={self.search_failures}",
            f"verdict={'pass' if self.passed else 'FAIL'}",
        ]
        for p in self.witness_paths:
            lines.append(f"witness={p}")
        return "\n".join(lines)


def persist_witness(directory: str | os.PathLike, name: str,
                    m: FreeMap, items: RingList) -> tuple[str, str]:
    """Write a (map, ring) pair for replay; returns the two file paths.
    MapError, naming the witness, when ``directory`` cannot be made or
    written."""
    from .io import serialize_map, serialize_ring
    d = Path(directory)
    map_path = d / f"{name}.map"
    ring_path = d / f"{name}.ring"
    try:
        d.mkdir(parents=True, exist_ok=True)
        map_path.write_text(serialize_map(m), encoding="utf-8")
        ring_path.write_text(serialize_ring(items), encoding="utf-8")
    except OSError as exc:
        raise MapError(f"cannot write witness {name} in {d}: "
                       f"{exc.strerror or exc}") from exc
    return str(map_path), str(ring_path)


def load_witness(directory: str | os.PathLike,
                 name: str) -> tuple[FreeMap, list[RingItem]]:
    from .io import parse_map, parse_ring
    d = Path(directory)
    m = parse_map((d / f"{name}.map").read_text(encoding="utf-8"))
    items = parse_ring((d / f"{name}.ring").read_text(encoding="utf-8"))
    return m, items


def _witness_dir(explicit: str | None) -> str | None:
    """``explicit``, else HMAP_WITNESS_DIR; an empty value counts as unset."""
    return explicit or os.environ.get("HMAP_WITNESS_DIR") or None


def fuzz_jordan(trials: int, seed: int, size_bound: int, *,
                witness_dir: str | None = None) -> FuzzReport:
    """Generate planar maps, search each for a ring of at most 4 items,
    and check the break law on the ring found, together with the two
    supporting lemmas.

    The search is ``find_ring``, whose first ring is a singleton whenever
    the map has one; so almost every ring checked has one item, and the
    lemmas, which need two or more, are rarely exercised.
    ``rings_by_length`` counts the rings checked by their item count.

    The (trials, seed, size_bound) triple fully determines every trial.
    Failing (map, ring) pairs are persisted to ``witness_dir`` (or the
    directory named by HMAP_WITNESS_DIR) when one is configured.
    """
    if trials < 0:
        raise ConstraintError(f"trial count {trials} is negative")
    if size_bound < 2:
        raise ConstraintError(f"size bound {size_bound} is below 2")
    report = FuzzReport(trials=trials)
    wdir = _witness_dir(witness_dir)
    master = random.Random(seed)
    for trial in range(trials):
        trial_seed = master.getrandbits(48)
        n_darts = 2 + trial_seed % (size_bound - 1)
        link_budget = 2 * n_darts
        rng = random.Random(trial_seed)
        n_links = rng.randint(n_darts // 2, link_budget)
        m = random_planar_map(trial_seed, n_darts, n_links)
        idx = build_index(m)
        ring = find_ring(idx, 4, trial_seed)
        if ring is None:
            continue
        report.rings_found += 1
        report.rings_by_length[len(ring)] = report.rings_by_length.get(len(ring), 0) + 1

        failed = False
        if not check_ring(idx, ring).valid:
            report.search_failures += 1
            failed = True
        else:
            outcome = jordan_check(idx, ring)
            if not outcome.passed:
                report.delta_failures += 1
                failed = True
            if len(ring) >= 2:
                if not first_break_keeps_connected(idx, ring):
                    report.connect_failures += 1
                    failed = True
                if not tail_is_ring_after_first_break(idx, ring):
                    report.tail_failures += 1
                    failed = True
        if failed and wdir is not None:
            paths = persist_witness(wdir, f"fuzz_{trial:05d}", m, ring)
            report.witness_paths.extend(paths)
    return report


# ---------------------------------------------------------------------------
# exhaustive small-scale checking


def _path_systems(darts: Sequence[Dart]) -> Iterator[dict[Dart, Dart]]:
    """All successor assignments forming disjoint open chains: the
    explicit links one dimension of a well-formed map can carry.

    Each dart in turn starts a chain of its own or goes into any
    position of a chain laid out before it, which lays out every set of
    disjoint chains once: 1, 1, 3, 13, 73, 501 systems on 0 to 5 darts.
    """
    layouts: list[tuple[tuple[Dart, ...], ...]] = [()]
    for d in darts:
        grown = []
        for chains in layouts:
            grown.append(chains + ((d,),))
            for c, chain in enumerate(chains):
                for p in range(len(chain) + 1):
                    grown.append(chains[:c] + (chain[:p] + (d,) + chain[p:],) + chains[c + 1:])
        layouts = grown
    for chains in layouts:
        yield {x: y for chain in chains for x, y in zip(chain, chain[1:])}


def _linked(m: FreeMap, k: Dim, links: list[tuple[Dart, Dart]]) -> FreeMap:
    """``m`` with the links ``(x, y)`` at dimension ``k``, in list order."""
    for x, y in links:
        m = Link(m, k, x, y)
    return m


def _maps(max_darts: int) -> Iterator[tuple[FreeMap, tuple[ChainTracker, ChainTracker]]]:
    """Every map of :func:`enumerate_maps`, in its order, with the
    chains its index adopts: the 0-tracker of the checked replay of its
    inserts and 0-links, and the 1-tracker of that of its inserts and
    1-links.

    On ``n`` darts a map is the inserts of 1..n, the 0-links of one link
    system and the 1-links of one, so ``s`` systems make ``s * s`` maps
    from ``2 * s`` checked replays, one per system and dimension.  A
    dimension's link rule reads only that dimension's chains and the
    dart set, which every replay here shares, so the whole term replays
    cleanly and its trackers equal this pair.  Maps share the trackers,
    so none may change.  The maps of one 0-system come in one block that
    shares its 0-tracker, and the 1-closures of a block number at most
    ``n!``, one per permutation of the darts; ``exhaustive_jordan``
    relies on both.
    """
    for n in range(max_darts + 1):
        base: FreeMap = Void()
        for d in range(1, n + 1):
            base = Insert(base, d)
        systems = [sorted(s.items()) for s in _path_systems(range(1, n + 1))]
        ones = [ChainKernel(_linked(base, _ONE, s1)).chains[1] for s1 in systems]
        for s0 in systems:
            m0 = _linked(base, _ZERO, s0)
            zero = ChainKernel(m0).chains[0]
            for s1, one in zip(systems, ones):
                yield _linked(m0, _ONE, s1), (zero, one)


def enumerate_maps(max_darts: int) -> Iterator[FreeMap]:
    """Every well-formed map with dart ids 1..n for each n <= max_darts.

    Well-formed maps are considered up to dart relabeling and up to the
    order link constructors appear in, so one canonical id scheme and
    one construction order per link structure cover all behaviors the
    observers can distinguish.
    """
    for m, _ in _maps(max_darts):
        yield m


@dataclass(slots=True)
class ExhaustiveReport:
    """Tallies of an exhaustive small-scale sweep."""

    maps_seen: int = 0
    planar_maps: int = 0
    rings_checked: int = 0
    rings_by_length: dict[int, int] = field(default_factory=dict)
    delta_failures: int = 0
    ring_soundness_failures: int = 0

    @property
    def passed(self) -> bool:
        return self.delta_failures == 0 and self.ring_soundness_failures == 0

    def summary(self) -> str:
        return (f"maps={self.maps_seen} planar={self.planar_maps} "
                f"rings={self.rings_checked} "
                f"delta_failures={self.delta_failures} "
                f"soundness_failures={self.ring_soundness_failures} "
                f"verdict={'pass' if self.passed else 'FAIL'}")


def exhaustive_jordan(max_darts: int, max_ring_len: int) -> ExhaustiveReport:
    """Check the ring-break law on every planar map with up to
    ``max_darts`` darts and every ring with up to ``max_ring_len`` items.

    ``rings_by_length`` counts the rings checked by their item count.
    Maps of at most 5 darts hold rings of 1 and 2 items only (247,400
    and 40,704 of them), so there a cap of 3 or more never binds.

    Each map's index adopts the trackers of two one-dimension replays
    (see ``_maps``) instead of replaying the map; these indexes share
    their trackers and stay inside this function.  In the block of maps
    of one 0-tracker, only the first map of each 1-closure is labelled;
    the others take its closure-level tables by ``HypermapIndex.recut``,
    which is sound because those tables read only the two closures, and
    its ``double_links`` too, since both read the one 0-tracker.  Each
    1-tracker's closure is read once.  The block's indexes are kept by
    closure and dropped when the 0-tracker changes, so at most ``n!`` of
    them live at once on ``n`` darts.  Every map is still searched,
    ring-checked and recounted on its own index and term.  Each ring's
    count after the break is one walk of the map's term that leaves the
    ring's 0-links out, as in ``jordan_check``: no broken term is built.
    """
    if max_darts < 0:
        raise ConstraintError(f"dart count {max_darts} is negative")
    if max_ring_len < 1:
        raise ConstraintError(f"ring length {max_ring_len} is below 1")
    report = ExhaustiveReport()
    by_length = report.rings_by_length
    closures: dict[ChainTracker, tuple] = {}  # each 1-tracker's closure, as a key
    firsts: dict[tuple, HypermapIndex] = {}  # the block's first index of each closure
    zero: ChainTracker | None = None
    for m, chains in _maps(max_darts):
        report.maps_seen += 1
        if chains[0] is not zero:
            zero = chains[0]
            firsts.clear()
        alpha1 = closures.get(chains[1])
        if alpha1 is None:
            alpha1 = closures[chains[1]] = tuple(sorted(chains[1].closed_succ.items()))
        first = firsts.get(alpha1)
        if first is None:
            idx = firsts[alpha1] = HypermapIndex(m, chains=chains)
        else:
            idx = first.recut(m, chains)
        if not idx.stats.planar:
            continue
        report.planar_maps += 1
        nc_before = idx.stats.n_components
        for ring in candidate_rings(idx, max_ring_len):
            report.rings_checked += 1
            by_length[len(ring)] = by_length.get(len(ring), 0) + 1
            if not check_ring(idx, ring).valid:
                report.ring_soundness_failures += 1
                continue
            if count_components(m, {it.x for it in ring}) != nc_before + 1:
                report.delta_failures += 1
    return report
