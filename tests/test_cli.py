"""CLI subcommands and the exit-code contract (0 true, 1 false, 2 error)."""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hmap import parse_map, serialize_map, serialize_ring, RingItem
from hmap.cli import _build_parser, main, run_cli

from conftest import build_digon, build_fixture15, build_two_dart_edge


@pytest.fixture
def files(tmp_path):
    """Write the standard fixtures to disk once per test."""
    paths = {}
    for name, m in [("digon", build_digon()),
                    ("edge", build_two_dart_edge()),
                    ("big", build_fixture15())]:
        p = tmp_path / f"{name}.map"
        p.write_text(serialize_map(m), encoding="utf-8")
        paths[name] = str(p)
    ring = tmp_path / "digon.ring"
    ring.write_text("1 t\n3 f\n", encoding="utf-8")
    paths["digon_ring"] = str(ring)
    single = tmp_path / "single.ring"
    single.write_text("1 t\n", encoding="utf-8")
    paths["single_ring"] = str(single)
    bad = tmp_path / "bad.map"
    bad.write_text("hmap 1\ni 1\ni 1\n", encoding="utf-8")
    paths["bad"] = str(bad)
    garbage = tmp_path / "garbage.map"
    garbage.write_text("not a map\n", encoding="utf-8")
    paths["garbage"] = str(garbage)
    return paths


def test_check_ok(files, capsys):
    assert run_cli(["check", files["digon"]]) == 0
    assert "well-formed=true" in capsys.readouterr().out


def test_check_bad_map_exits_1(files, capsys):
    assert run_cli(["check", files["bad"]]) == 1
    assert "well-formed=false" in capsys.readouterr().out


def test_check_garbage_exits_2(files, capsys):
    assert run_cli(["check", files["garbage"]]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert run_cli(["check", str(tmp_path / "nope.map")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, code", [
    (["check", "digon"], 0), (["check", "bad"], 1), (["check", "garbage"], 2),
    (["bogus"], 2), ([], 2)])
def test_main_exits_with_the_status(files, monkeypatch, capsys, command, code):
    # the parser refuses a command it does not list, with exit status 2
    argv = ["hmap", *(files.get(arg, arg) for arg in command)]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == code
    if command[:1] == ["bogus"]:
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_stats_fixed_order(files, capsys):
    assert run_cli(["stats", files["big"]]) == 0
    out = capsys.readouterr().out
    assert out == ("nd=15\nne=7\nnv=6\nnf=6\nnc=3\nec=4\ngenus=1\nplanar=false\n")


def test_stats_empty_map(tmp_path, capsys):
    p = tmp_path / "empty.map"
    p.write_text("hmap 1\n", encoding="utf-8")
    assert run_cli(["stats", str(p)]) == 0
    out = capsys.readouterr().out
    assert out == "nd=0\nne=0\nnv=0\nnf=0\nnc=0\nec=0\ngenus=0\nplanar=true\n"


def test_stats_on_ill_formed_exits_2(files, capsys):
    assert run_cli(["stats", files["bad"]]) == 2
    assert "not well formed" in capsys.readouterr().err


def test_orbit(files, capsys):
    assert run_cli(["orbit", files["big"], "--kind", "face", "--dart", "1"]) == 0
    assert capsys.readouterr().out == "1 5 2 11 12 7 6 4 9\n"


def test_orbit_missing_dart_exits_2(files, capsys):
    assert run_cli(["orbit", files["digon"], "--kind", "edge", "--dart", "9"]) == 2
    assert "error" in capsys.readouterr().err


def test_planar_true(files, capsys):
    assert run_cli(["planar", files["digon"]]) == 0
    assert "planar=true" in capsys.readouterr().out


def test_planar_false_exits_1(files, capsys):
    assert run_cli(["planar", files["big"]]) == 1
    assert "planar=false" in capsys.readouterr().out


def test_ring_check_valid(files, capsys):
    assert run_cli(["ring-check", files["digon"], files["digon_ring"]]) == 0
    assert "valid ring" in capsys.readouterr().out


def test_ring_check_invalid_exits_1(files, tmp_path, capsys):
    bad = tmp_path / "r.ring"
    bad.write_text("1 t\n1 f\n", encoding="utf-8")
    assert run_cli(["ring-check", files["digon"], str(bad)]) == 1
    assert "invalid ring" in capsys.readouterr().out


def test_break_writes_result(files, tmp_path, capsys):
    out = tmp_path / "broken.map"
    assert run_cli(["break", files["digon"], files["digon_ring"], "-o", str(out)]) == 0
    broken = parse_map(out.read_text(encoding="utf-8"))
    from hmap import counts
    assert counts(broken).n_components == 2


def test_break_to_stdout(files, capsys):
    assert run_cli(["break", files["edge"], files["single_ring"]]) == 0
    assert capsys.readouterr().out == "hmap 1\ni 1\ni 2\n"


def test_jordan_pass(files, capsys):
    assert run_cli(["jordan", files["edge"], files["single_ring"]]) == 0
    assert capsys.readouterr().out == "nc_before=1 nc_after=2 verdict=pass\n"


def test_jordan_invalid_ring_exits_2(files, tmp_path, capsys):
    bad = tmp_path / "r.ring"
    bad.write_text("1 t\n", encoding="utf-8")
    assert run_cli(["jordan", files["digon"], str(bad)]) == 2
    assert "not a valid ring" in capsys.readouterr().err


def test_jordan_nonplanar_exits_2(files, tmp_path, capsys):
    ring = tmp_path / "r.ring"
    ring.write_text("1 t\n", encoding="utf-8")
    assert run_cli(["jordan", files["big"], str(ring)]) == 2
    assert "not planar" in capsys.readouterr().err


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.map"
    b = tmp_path / "b.map"
    argv = ["gen", "--darts", "12", "--links", "14", "--seed", "5"]
    assert run_cli(argv + ["-o", str(a)]) == 0
    assert run_cli(argv + ["-o", str(b)]) == 0
    assert a.read_text() == b.read_text()
    from hmap import counts
    assert counts(parse_map(a.read_text())).planar


def test_gen_impossible_exits_2(capsys):
    assert run_cli(["gen", "--darts", "2", "--links", "9", "--seed", "1"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, blamed", [
    (["fuzz", "--trials", "-3", "--seed", "2", "--size", "10"], "trial count -3"),
    (["gen", "--darts", "5", "--links", "-2", "--seed", "1"], "link count -2"),
    (["gen", "--darts", "-4", "--links", "0", "--seed", "1"], "dart count -4"),
    (["fuzz", "--trials", "3", "--seed", "1", "--size", "-5"], "size bound -5"),
    (["fuzz", "--trials", "3", "--seed", "1", "--size", "0"], "size bound 0"),
    (["fuzz", "--trials", "3", "--seed", "1", "--size", "1"], "size bound 1"),
    (["sweep", "--darts", "-1", "--ring-len", "3"], "dart count -1"),
    (["sweep", "--darts", "3", "--ring-len", "0"], "ring length 0"),
    (["sweep", "--darts", "3", "--ring-len", "-2"], "ring length -2"),
])
def test_negative_counts_exit_2(argv, blamed, capsys):
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert blamed in captured.err


def test_fuzz_small(capsys):
    assert run_cli(["fuzz", "--trials", "20", "--seed", "2", "--size", "10"]) == 0
    out = capsys.readouterr().out
    assert "trials=20" in out
    assert "verdict=pass" in out


def test_sweep_prints_summary_and_ring_lengths(capsys):
    assert run_cli(["sweep", "--darts", "4", "--ring-len", "3"]) == 0
    assert capsys.readouterr().out == (
        "maps=5509 planar=4171 rings=5584 delta_failures=0 "
        "soundness_failures=0 verdict=pass\n"
        "rings_by_length=1:5200,2:384\n")


def test_sweep_failure_exits_1(monkeypatch, capsys):
    from hmap import jordan
    monkeypatch.setattr(jordan, "_recount", lambda base, maps, broken: [-1] * (1 + len(maps)))
    assert run_cli(["sweep", "--darts", "3", "--ring-len", "3"]) == 1
    out = capsys.readouterr().out
    assert "delta_failures=136 " in out and "verdict=FAIL" in out
    assert out.endswith("rings_by_length=1:136\n")


def test_dot(files, tmp_path):
    out = tmp_path / "g.dot"
    assert run_cli(["dot", files["digon"], "-o", str(out)]) == 0
    assert out.read_text().startswith("digraph")


@pytest.mark.parametrize("target", ["missing/x.out", "."])
@pytest.mark.parametrize("cmd", ["gen", "break", "dot"])
def test_unwritable_out_exits_2(files, tmp_path, capsys, cmd, target):
    # a file in a directory that does not exist, and a directory itself
    out = str(tmp_path / target)
    argv = {"gen": ["gen", "--darts", "3", "--links", "2", "--seed", "1"],
            "break": ["break", files["digon"], files["digon_ring"]],
            "dot": ["dot", files["digon"]]}[cmd]
    assert run_cli(argv + ["-o", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


def test_usage_errors_exit_2(capsys):
    assert run_cli([]) == 2
    assert run_cli(["frobnicate"]) == 2
    assert run_cli(["orbit", "x.map", "--kind", "nonsense", "--dart", "1"]) == 2


def test_one_parser_serves_every_call(files, tmp_path, capsys):
    # the parser is built once per process: no option, value or stream
    # of one call may carry over to the next
    assert _build_parser() is _build_parser()
    argv = ["orbit", files["digon"], "--kind", "nonsense", "--dart", "1"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: hmap orbit")
    assert "invalid choice: 'nonsense'" in captured.err

    out = tmp_path / "g.dot"
    assert run_cli(["dot", files["digon"], "-o", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert run_cli(["dot", files["digon"]]) == 0
    captured = capsys.readouterr()
    assert captured.out == out.read_text() and captured.out.startswith("digraph")
    assert captured.err == ""

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run_cli(argv) == 2
    assert err.getvalue().startswith("usage: hmap orbit")
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("content", [
    "hmap 1\ni ²\n".encode("utf-8"),   # a digit to str.isdigit, not to int()
    b"hmap 1\ni 1\xff\n",              # not UTF-8
])
def test_bad_map_bytes_exit_2(tmp_path, capsys, content):
    p = tmp_path / "m.map"
    p.write_bytes(content)
    for argv in (["check", str(p)], ["stats", str(p)]):
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("content", ["² t\n".encode("utf-8"), b"1 t\xff\n"])
def test_bad_ring_bytes_exit_2(files, tmp_path, capsys, content):
    p = tmp_path / "r.ring"
    p.write_bytes(content)
    assert run_cli(["ring-check", files["digon"], str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# Files that are mostly well formed reach past the parser into every
# command; raw bytes exercise decoding and the parser itself.
_DART = st.integers(-1, 6).map(str) | st.sampled_from(["²", "x", ""])
_MAP_LINE = st.one_of(
    st.just("hmap 1"),
    st.builds("i {}".format, _DART),
    st.builds("l {} {} {}".format, st.sampled_from(["0", "1", "2"]), _DART, _DART),
    st.text(max_size=8),
)
_RING_LINE = st.builds("{} {}".format, _DART, st.sampled_from(["t", "f", "x"]))
_MAP_BYTES = st.binary(max_size=64) | st.lists(_MAP_LINE, max_size=14).map(
    lambda lines: "\n".join(["hmap 1"] + lines).encode("utf-8"))
_RING_BYTES = st.binary(max_size=32) | st.lists(_RING_LINE, max_size=4).map(
    lambda lines: "\n".join(lines).encode("utf-8"))


@settings(max_examples=300, deadline=None)
@given(cmd=st.sampled_from(["check", "stats", "orbit", "planar", "dot",
                            "ring-check", "break", "jordan"]),
       map_bytes=_MAP_BYTES, ring_bytes=_RING_BYTES)
def test_any_file_bytes_exit_cleanly(cmd, map_bytes, ring_bytes):
    with tempfile.TemporaryDirectory() as d:
        mp, rp = Path(d) / "m.map", Path(d) / "r.ring"
        mp.write_bytes(map_bytes)
        rp.write_bytes(ring_bytes)
        argv = [cmd, str(mp)]
        if cmd in ("ring-check", "break", "jordan"):
            argv.append(str(rp))
        if cmd == "orbit":
            argv += ["--kind", "face", "--dart", "1"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = run_cli(argv)
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
