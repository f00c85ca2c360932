"""Command-line surface.

Exit codes: 0 when the command succeeds (and any predicate it decides is
true), 1 when a decided predicate is false, 2 on usage, parse, or
precondition errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .fmap import ConstraintError, FreeMap, MapError, well_formed_violation
from .index import build_index, require_well_formed
from .io import parse_map, parse_ring, serialize_map, to_dot
from .jordan import (
    _length_tally,
    exhaustive_jordan,
    fuzz_jordan,
    jordan_check,
    random_planar_map,
)
from .orbits import OrbitKind, orbit
from .rings import break_ring, check_ring

_KINDS = [k.value for k in OrbitKind]


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MapError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise MapError(f"cannot read {path}: byte {exc.start} is not "
                       f"valid UTF-8") from exc


def _load_map(path: str) -> FreeMap:
    return parse_map(_read(path))


def _load_checked(path: str, build):
    """``build`` of the map in ``path``, where ``build`` (the index, or
    the term with its kernel) is the map's one checked replay; a map
    that is not well formed is an error naming ``path``."""
    m = _load_map(path)
    try:
        return build(m)
    except MapError as exc:
        raise ConstraintError(f"{path}: {exc}") from exc


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise MapError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``run_cli`` call.

    Parsing keeps no state in it: each call gets a new namespace, and
    usage errors go to the ``sys.stderr`` of that call."""
    p = argparse.ArgumentParser(
        prog="hmap",
        description="hypermap terms: checking, counting, rings, breaks")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="is the map well formed?")
    sp.add_argument("map")

    sp = sub.add_parser("stats", help="counts, characteristic, genus")
    sp.add_argument("map")

    sp = sub.add_parser("orbit", help="print one orbit of a dart")
    sp.add_argument("map")
    sp.add_argument("--kind", required=True, choices=_KINDS)
    sp.add_argument("--dart", required=True, type=int)

    sp = sub.add_parser("planar", help="is the map planar?")
    sp.add_argument("map")

    sp = sub.add_parser("ring-check", help="validate a candidate ring")
    sp.add_argument("map")
    sp.add_argument("ring")

    sp = sub.add_parser("break", help="break all ring links, write the result")
    sp.add_argument("map")
    sp.add_argument("ring")
    sp.add_argument("-o", "--out")

    sp = sub.add_parser("jordan", help="component count before/after break")
    sp.add_argument("map")
    sp.add_argument("ring")

    sp = sub.add_parser("gen", help="generate a random planar map")
    sp.add_argument("--darts", required=True, type=int)
    sp.add_argument("--links", required=True, type=int)
    sp.add_argument("--seed", required=True, type=int)
    sp.add_argument("-o", "--out")

    sp = sub.add_parser("fuzz", help="random ring-break law checking")
    sp.add_argument("--trials", required=True, type=int)
    sp.add_argument("--seed", required=True, type=int)
    sp.add_argument("--size", required=True, type=int)
    sp.add_argument("--witness-dir")

    sp = sub.add_parser("sweep", help="ring-break law on every small planar map")
    sp.add_argument("--darts", required=True, type=int)
    sp.add_argument("--ring-len", required=True, type=int)

    sp = sub.add_parser("dot", help="DOT rendering of the explicit links")
    sp.add_argument("map")
    sp.add_argument("-o", "--out")
    return p


def run_cli(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except MapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    cmd = args.command

    if cmd == "check":
        reason = well_formed_violation(_load_map(args.map))
        if reason is None:
            print("well-formed=true")
            return 0
        print(f"well-formed=false ({reason})")
        return 1

    if cmd == "stats":
        st = _load_checked(args.map, build_index).stats
        print(f"nd={st.n_darts}")
        print(f"ne={st.n_edges}")
        print(f"nv={st.n_vertices}")
        print(f"nf={st.n_faces}")
        print(f"nc={st.n_components}")
        print(f"ec={st.euler_characteristic}")
        print(f"genus={st.genus}")
        print(f"planar={_fmt_bool(st.planar)}")
        return 0

    if cmd == "orbit":
        idx = _load_checked(args.map, build_index)
        orb = orbit(idx, OrbitKind(args.kind), args.dart)
        print(" ".join(str(d) for d in orb.members))
        return 0

    if cmd == "planar":
        st = _load_checked(args.map, build_index).stats
        print(f"planar={_fmt_bool(st.planar)}")
        return 0 if st.planar else 1

    if cmd == "ring-check":
        idx = _load_checked(args.map, build_index)
        diag = check_ring(idx, parse_ring(_read(args.ring)))
        print(diag.summary())
        return 0 if diag.valid else 1

    if cmd == "break":
        m, _ = _load_checked(args.map, require_well_formed)
        broken = break_ring(m, parse_ring(_read(args.ring)))
        _write_out(serialize_map(broken), args.out)
        return 0

    if cmd == "jordan":
        idx = _load_checked(args.map, build_index)
        outcome = jordan_check(idx, parse_ring(_read(args.ring)))
        print(outcome.summary())
        return 0 if outcome.passed else 1

    if cmd == "gen":
        m = random_planar_map(args.seed, args.darts, args.links)
        _write_out(serialize_map(m), args.out)
        return 0

    if cmd == "fuzz":
        report = fuzz_jordan(args.trials, args.seed, args.size,
                             witness_dir=args.witness_dir)
        print(report.summary())
        return 0 if report.passed else 1

    if cmd == "sweep":
        report = exhaustive_jordan(args.darts, args.ring_len)
        print(report.summary())
        print(f"rings_by_length={_length_tally(report.rings_by_length)}")
        return 0 if report.passed else 1

    # "dot": the parser admits no other command
    _write_out(to_dot(_load_checked(args.map, build_index)), args.out)
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
