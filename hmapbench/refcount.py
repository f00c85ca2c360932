"""Reference counter for hypermaps, independent of ``hmap``.

A map is a step list: ``("i", x)`` inserts dart ``x`` and
``("l", k, x, y)`` makes ``y`` the explicit dimension-``k`` successor of
``x``.  Everything here (closures, the face permutation, components,
well-formedness, the file parser, the enumeration of small maps) is
written from the definitions and imports nothing from ``hmap``, so the
benchmark can check the program's answers against it.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Iterator

Step = tuple


def parse_steps(text: str) -> list[Step]:
    """Steps of a map file (``hmap 1`` header, ``i``/``l`` lines, ``#`` comments)."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != ["hmap", "1"]:
        raise ValueError("missing map header")
    out: list[Step] = []
    for ln in lines[1:]:
        if ln[0] == "i" and len(ln) == 2:
            out.append(("i", int(ln[1])))
        elif ln[0] == "l" and len(ln) == 4:
            out.append(("l", int(ln[1]), int(ln[2]), int(ln[3])))
        else:
            raise ValueError(f"bad map line {ln}")
    return out


def well_formed(steps: list[Step]) -> bool:
    """Every insert is new and positive; every link joins two open chains."""
    darts: set[int] = set()
    succ: tuple[dict, dict] = ({}, {})
    pred: tuple[dict, dict] = ({}, {})
    for s in steps:
        if s[0] == "i":
            if s[1] <= 0 or s[1] in darts:
                return False
            darts.add(s[1])
            continue
        _, k, x, y = s
        if x not in darts or y not in darts or x in succ[k] or y in pred[k]:
            return False
        bottom = x
        while bottom in pred[k]:
            bottom = pred[k][bottom]
        if bottom == y:
            return False
        succ[k][x] = y
        pred[k][y] = x
    return True


def closures(steps: list[Step]) -> tuple[list[int], list[dict], list[dict]]:
    """Darts, the two closed successor permutations, and the explicit links."""
    darts = [s[1] for s in steps if s[0] == "i"]
    succ: list[dict] = [{}, {}]
    pred: list[dict] = [{}, {}]
    for s in steps:
        if s[0] == "l":
            succ[s[1]][s[2]] = s[3]
            pred[s[1]][s[3]] = s[2]
    closed: list[dict] = [{}, {}]
    for k in (0, 1):
        for d in darts:
            nxt = succ[k].get(d)
            if nxt is None:  # the top of a chain wraps to its bottom
                nxt = d
                while nxt in pred[k]:
                    nxt = pred[k][nxt]
            closed[k][d] = nxt
    return darts, closed, succ


def face_perm(darts: list[int], closed: list[dict]) -> dict:
    """The face successor cA1^-1 o cA0^-1."""
    inv0 = {v: u for u, v in closed[0].items()}
    inv1 = {v: u for u, v in closed[1].items()}
    return {d: inv1[inv0[d]] for d in darts}


def cycles(perm: dict) -> int:
    seen: set[int] = set()
    n = 0
    for d in perm:
        if d not in seen:
            n += 1
            while d not in seen:
                seen.add(d)
                d = perm[d]
    return n


def components(darts: list[int], succ: list[dict]) -> dict:
    """Dart -> component label, by depth-first search over the explicit links."""
    adj: dict[int, list[int]] = {d: [] for d in darts}
    for k in (0, 1):
        for x, y in succ[k].items():
            adj[x].append(y)
            adj[y].append(x)
    label: dict[int, int] = {}
    for d in darts:
        if d in label:
            continue
        label[d] = d
        todo = [d]
        while todo:
            for z in adj[todo.pop()]:
                if z not in label:
                    label[z] = d
                    todo.append(z)
    return label


def count(steps: list[Step]) -> tuple[int, int, int, int, int, int, int]:
    """(nd, ne, nv, nf, nc, ec, genus) of a well-formed step list."""
    darts, closed, succ = closures(steps)
    nd = len(darts)
    ne, nv = cycles(closed[0]), cycles(closed[1])
    nf = cycles(face_perm(darts, closed))
    nc = len(set(components(darts, succ).values()))
    ec = nv + ne + nf - nd
    return nd, ne, nv, nf, nc, ec, nc - ec // 2


def genus(steps: list[Step]) -> int:
    return count(steps)[6]


def n_components(steps: list[Step]) -> int:
    return count(steps)[4]


def break_zero_links(steps: list[Step], darts: list[int]) -> list[Step]:
    """Steps with the most recent 0-link out of each listed dart removed."""
    out = list(steps)
    for x in darts:
        for i in range(len(out) - 1, -1, -1):
            if out[i][0] == "l" and out[i][1] == 0 and out[i][2] == x:
                del out[i]
                break
    return out


def path_systems(n: int) -> Iterator[dict]:
    """Every successor map on darts 1..n whose links form disjoint open chains."""
    def rec(x: int, succ: dict, preds: set) -> Iterator[dict]:
        if x > n:
            yield dict(succ)
            return
        yield from rec(x + 1, succ, preds)
        for y in range(1, n + 1):
            if y in preds:
                continue
            z = y  # linking x -> y closes a cycle iff y's chain leads to x
            while z in succ and z != x:
                z = succ[z]
            if z == x:
                continue
            succ[x] = y
            preds.add(y)
            yield from rec(x + 1, succ, preds)
            preds.discard(y)
            del succ[x]
    yield from rec(1, {}, set())


def small_maps(max_darts: int) -> Iterator[list[Step]]:
    """Step lists of every well-formed map on darts 1..n, n <= max_darts."""
    for n in range(max_darts + 1):
        inserts = [("i", d) for d in range(1, n + 1)]
        systems = list(path_systems(n))
        for s0 in systems:
            links0 = [("l", 0, x, y) for x, y in s0.items()]
            for s1 in systems:
                yield inserts + links0 + [("l", 1, x, y) for x, y in s1.items()]


def sets_of_lists(n: int) -> int:
    """OEIS A000262: ways to split n labelled darts into ordered chains."""
    if n == 0:
        return 1
    return sum(factorial(n) // factorial(k) * comb(n - 1, k - 1)
               for k in range(1, n + 1))


def map_count(max_darts: int) -> int:
    """Closed-form number of maps on darts 1..n, n <= max_darts."""
    return sum(sets_of_lists(n) ** 2 for n in range(max_darts + 1))
