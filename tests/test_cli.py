import csv
import io
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from matchspec import cli, enumeration, graphs, matching, theorems
from matchspec.enumeration import sweep_theorem
from matchspec.families import build_named
from matchspec.graphs import cycle_graph, parse_graph6, to_graph6
from matchspec.spectral import spectral_radius


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed_stdin(monkeypatch, data: bytes, text: bool = False):
    """Stand in for stdin with data: a stream with a byte buffer, as a real
    stdin has, or with text=True an io.StringIO, which has none."""
    stream = (io.StringIO(data.decode()) if text
              else io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    monkeypatch.setattr("sys.stdin", stream)


def test_analyze_text(capsys, tmp_path):
    path = tmp_path / "g.g6"
    path.write_text(to_graph6(build_named("thm11-exc2", k=1)) + "\n")
    code, out, _ = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 0
    assert "n, m:             6, 12" in out
    assert "1-extendable:     False" in out
    assert "listed exception" in out
    assert "criterion agrees: True" in out


def test_analyze_json_matches_library(capsys, tmp_path):
    g = build_named("thm13-f3", n=10)
    path = tmp_path / "g.g6"
    path.write_text(to_graph6(g) + "\n")
    code, out, _ = run_cli(capsys, "analyze", "--input", str(path),
                           "--out", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 10 and doc["m"] == 31
    assert abs(doc["rho"] - spectral_radius(g).rho) < 1e-12
    assert doc["one_excludable"]["holds"] is False
    t13 = doc["theorems"]["t13"]
    assert t13["is_listed_exception"] and t13["threshold"] == 31
    t16 = doc["theorems"]["t16"]
    assert abs(t16["measured"] - t16["threshold"]) <= 1e-9


def test_analyze_eigensolves_the_graph_once(capsys, tmp_path, monkeypatch):
    # cmd_analyze and the t14 (k = 1, 2) and t16 verdicts all ask for rho
    path = tmp_path / "g.g6"
    path.write_text(to_graph6(build_named("thm13-f3", n=10)) + "\n")
    argv = ("analyze", "--input", str(path), "--k", "2", "--out", "json")
    first = run_cli(capsys, *argv)  # the thresholds are cached from here on
    spectral_radius.cache_clear()
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert run_cli(capsys, *argv) == first
    assert calls == [(10, 10)]


# an order-14 graph with 82 of its 91 pairs joined, drawn as analyze-dense draws
DENSE_N14 = "M~v~}{~Zv~~~Z~~~_"


def test_analyze_inverts_a_dense_graph_once(capsys, monkeypatch):
    # k = 1, k = 2 and 1-excludability, and the theorem verdicts that ask for
    # them again, all read one Tutte inverse, which leaves no k-matching to
    # the blossom search
    calls, searched = [], []
    eliminate, search = matching._tutte_eliminate, matching._perfect_after_deleting

    def counted(t):
        calls.append(t.shape)
        return eliminate(t)

    def recorded(adj, match, drop):
        searched.append(drop)
        return search(adj, match, drop)

    monkeypatch.setattr(matching, "_tutte_eliminate", counted)
    monkeypatch.setattr(matching, "_perfect_after_deleting", recorded)
    for cached in (matching.is_k_extendable, matching.is_1_excludable, matching._tutte_inverse):
        cached.cache_clear()
    feed_stdin(monkeypatch, DENSE_N14.encode() + b"\n")
    code, out, _ = run_cli(capsys, "analyze", "--k", "2", "--out", "json")
    doc = json.loads(out)
    assert code == 0 and doc["graph6"] == DENSE_N14 and doc["m"] == 82
    routes = list(doc["k_extendable"].values()) + [doc["one_excludable"]]
    assert all(r["holds"] and r["agrees_with_criterion"] for r in routes)
    assert calls == [(14, 14, 1)] and searched == []


@pytest.mark.parametrize("fmt, data, line", [
    ("g6", b"?\n", 1),
    ("g6", b"# no vertex\n\n?\nC~\n", 3),
    ("edgelist", b"0\n", 1),
    ("edgelist", b"# no vertex\n0\n", 2),
], ids=["g6", "g6-after-comment", "edgelist", "edgelist-after-comment"])
def test_analyze_refuses_a_graph_of_order_zero(capsys, tmp_path, monkeypatch, fmt, data, line):
    # order 0 is even, but there is no graph to analyze: a usage error that
    # names the source and line, as a graph that does not parse is
    path = tmp_path / "zero"
    path.write_bytes(data)
    message = f"{line}: vertex count must be at least 1, got 0\n"
    code, out, err = run_cli(capsys, "analyze", "--input", str(path), "--format", fmt)
    assert (code, out, err) == (2, "", f"error: file:{path}:{message}")
    feed_stdin(monkeypatch, data)
    code, out, err = run_cli(capsys, "analyze", "--format", fmt)
    assert (code, out, err) == (2, "", f"error: stdin:{message}")


def test_analyze_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\n"))
    code, out, _ = run_cli(capsys, "analyze")
    assert code == 0
    assert "n, m:             4, 6" in out


def test_analyze_edgelist_and_odd_order(capsys, tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    code, out, _ = run_cli(capsys, "analyze", "--input", str(path),
                           "--format", "edgelist")
    assert code == 0
    assert "N/A (odd order)" in out


@pytest.mark.parametrize("stdin, third, message", [
    (False, b"\xff\n", "'utf-8' codec can't decode byte 0xff"),
    (False, b"1 x\n", "invalid literal for int() with base 10: 'x'"),
    (True, b"1 \xff\n", "'utf-8' codec can't decode byte 0xff in position 2"),
    (True, b"1 x\n", "invalid literal for int() with base 10: 'x'"),
], ids=["not-utf8", "not-an-integer", "stdin-not-utf8", "stdin-not-an-integer"])
def test_analyze_edgelist_names_file_and_line(capsys, tmp_path, monkeypatch,
                                              stdin, third, message):
    data = b"4\n0 1\n" + third
    if stdin:
        feed_stdin(monkeypatch, data)
        path, where = "-", "stdin"
    else:
        path = tmp_path / "bad.edges"
        path.write_bytes(data)
        where = f"file:{path}"
    code, out, err = run_cli(capsys, "analyze", "--input", str(path),
                             "--format", "edgelist")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {where}:3: {message}")


def test_analyze_of_a_bare_graph6_header_is_a_parse_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(">>graph6<<\n"))
    code, out, err = run_cli(capsys, "analyze", "--input", "-")
    assert code == 2 and out == ""
    assert err == "error: no graph found in input\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(">>graph6<<\n>>graph6<<C~\n"))
    code, out, _ = run_cli(capsys, "analyze", "--input", "-")
    assert code == 0 and "graph6:           C~\n" in out


def test_analyze_names_the_line_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_bytes(b"C~\nCl\xff\n")
    code, out, err = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: file:{path}:2: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("stdin, data, message", [
    (None, b"# one graph\n\nC~x\n", "3: graph6 body has 2 chars, expected 1 for n=4"),
    ("text", b"# one graph\n\nC~x\n", "3: graph6 body has 2 chars, expected 1 for n=4"),
    ("bytes", b"C~\nCl\xff\n",
     "2: 'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"),
    ("bytes", b"C~\fCl\n", "1: graph6 body has 4 chars, expected 1 for n=4"),
    ("bytes", b"C~\rCl\n", "1: graph6 body has 4 chars, expected 1 for n=4"),
], ids=["file", "stdin", "stdin-not-utf8", "stdin-form-feed", "stdin-carriage-return"])
def test_analyze_names_the_line_of_a_bad_graph6(capsys, tmp_path, monkeypatch,
                                                stdin, data, message):
    if stdin:
        feed_stdin(monkeypatch, data, text=stdin == "text")
        path, where = "-", "stdin"
    else:
        path = tmp_path / "G"
        path.write_bytes(data)
        where = f"file:{path}"
    code, out, err = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {where}:{message}\n"


# the same bytes through --input FILE and through stdin: graph6 puts one graph
# on each b"\n"-ended line, and each line is decoded as UTF-8 on its own
PARITY_INPUTS = {
    "not-utf8": b"C~\nCl\xff\n",
    "form-feed": b"C~\fCl\n",
    "carriage-return": b"C~\rCl\n",
    "edgelist-not-utf8": b"4\n0 1\n1 \xff\n",
    "crlf": b"C~\r\nCl\r\n",
    "edgelist-crlf": b"4\r\n0 1\r\n1 2\r\n",
    "header": b">>graph6<<C~\n",
    "blank-and-comment": b"# two graphs\n\n  \nC~\n#\nCl\n",
    "edgelist-blank-and-comment": b"# a path\n4\n\n0 1\n# two more\n1 2\n2 3\n",
}


@pytest.mark.parametrize("fmt", ["g6", "edgelist"])
@pytest.mark.parametrize("data", PARITY_INPUTS.values(), ids=PARITY_INPUTS)
def test_analyze_reads_stdin_as_it_reads_a_file(capsys, tmp_path, monkeypatch,
                                                 data, fmt):
    path = tmp_path / "input"
    path.write_bytes(data)
    by_file = run_cli(capsys, "analyze", "--input", str(path), "--format", fmt)
    feed_stdin(monkeypatch, data)
    code, out, err = run_cli(capsys, "analyze", "--format", fmt)
    assert (code, out, err) == (by_file[0], by_file[1],
                                by_file[2].replace(f"file:{path}", "stdin"))
    if b"\xff" in data:  # the position counts from the start of the bad line
        assert code == 2 and "byte 0xff in position 2" in err


@pytest.mark.parametrize("text, message", [
    ("4\n0 9\n", "2: edge (0,9) out of range for n=4"),
    ("3\n0 0\n", "2: self-loop at vertex 0"),
    ("-3\n", "1: vertex count must be nonnegative"),
], ids=["out-of-range", "self-loop", "negative-order"])
def test_analyze_edgelist_names_the_line_of_a_bad_graph(capsys, tmp_path, text, message):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    code, out, err = run_cli(capsys, "analyze", "--input", str(path),
                             "--format", "edgelist")
    assert code == 2 and out == ""
    assert err == f"error: file:{path}:{message}\n"


def test_analyze_compares_the_routes_only_where_the_criterion_runs(capsys, monkeypatch):
    # K4 is too small for k = 2; the 1-excludability criterion needs a connected graph
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\n"))
    code, out, _ = run_cli(capsys, "analyze", "--k", "2", "--out", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["k_extendable"] == {
        "1": {"holds": True, "reason": None, "agrees_with_criterion": True},
        "2": {"holds": False, "reason": "too-few-vertices", "agrees_with_criterion": None}}
    assert list(doc["theorems"]) == ["t11(k=1)", "t14(k=1)"]
    monkeypatch.setattr("sys.stdin", io.StringIO("C`\n"))  # two disjoint edges
    code, out, _ = run_cli(capsys, "analyze", "--out", "json")
    doc = json.loads(out)
    assert code == 0 and doc["connected"] is False
    assert doc["k_extendable"]["1"]["agrees_with_criterion"] is True
    assert doc["one_excludable"] == {"holds": False, "reason": "edge-forced",
                                     "agrees_with_criterion": None}


def test_construct_variants(capsys):
    code, out, _ = run_cli(capsys, "construct", "thm13-f2")
    assert code == 0 and parse_graph6(out.strip()).m == 19
    code, _, err = run_cli(capsys, "construct")
    assert code == 2
    code, out, _ = run_cli(capsys, "construct", "K(3)+K(5)", "--edgelist")
    lines = out.strip().splitlines()
    assert code == 0 and lines[1] == "8" and len(lines) == 2 + 14
    code, out, err = run_cli(capsys, "construct", "w2:n=9")
    assert code == 2 and "even" in err


def test_verify_theorem_builtin(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "t11", "--k", "1",
                           "--n", "6")
    assert code == 0
    assert "counterexamples:   0" in out
    assert "exceptions found:  2" in out


def test_verify_theorem_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "t16", "--n", "6",
                           "--min-degree", "2", "--out", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["counterexamples"] == []
    assert [e["family"] for e in doc["exceptions_found"]] == ["thm13-f1"]


def test_verify_exit_one_on_counterexample(capsys, monkeypatch):
    # with the exception registry emptied, the true exceptions must surface
    # as counterexamples and flip the exit code
    monkeypatch.setattr(theorems, "exception_candidates", lambda t, n: [])
    code, out, _ = run_cli(capsys, "verify", "--theorem", "t11", "--k", "1",
                           "--n", "6")
    assert code == 1
    assert "COUNTEREXAMPLE" in out


def test_verify_fixture_via_env(capsys, monkeypatch, n8_fixture_path):
    import os
    monkeypatch.setenv(cli.FIXTURES_ENV, os.path.dirname(n8_fixture_path))
    code, out, _ = run_cli(capsys, "verify", "--theorem", "t11", "--k", "2",
                           "--n", "8")
    assert code == 0
    assert "graphs scanned:    11117" in out


def test_verify_missing_source(capsys, monkeypatch):
    monkeypatch.delenv(cli.FIXTURES_ENV, raising=False)
    code, _, err = run_cli(capsys, "verify", "--theorem", "t11", "--k", "1",
                           "--n", "10")
    assert code == 2 and "--input" in err


def test_verify_lemma_and_charpolys(capsys):
    code, out, _ = run_cli(capsys, "verify", "--lemma", "l2.4",
                           "--grid", "n=6..10")
    assert code == 0 and "0 violations" in out
    code, out, _ = run_cli(capsys, "verify", "--charpolys")
    assert code == 0 and "0 violations" in out
    code, out, _ = run_cli(capsys, "verify", "--lemma", "l2.1",
                           "--grid", "trials=20,seed=3")
    assert code == 0 and "20 instances" in out


def test_verify_option_validation(capsys):
    code, _, err = run_cli(capsys, "verify", "--lemma", "l2.4",
                           "--theorem", "t11")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--theorem", "t14", "--n", "6")
    assert code == 2 and "--k" in err


@pytest.mark.parametrize("n", ["0", "-2"])
def test_verify_order_below_one_is_a_usage_error(capsys, n):
    code, out, err = run_cli(capsys, "verify", "--theorem", "t11", "--k", "1", "--n", n)
    assert code == 2 and out == ""
    assert err == f"error: there are no graphs of order n={n}; --n takes an order >= 1\n"


@pytest.mark.parametrize("lemma, grid, message", [
    ("l2.1", "trials=abc", "grid key 'trials' takes an integer, got 'abc'"),
    ("l2.1", "seed=1.5", "grid key 'seed' takes an integer, got '1.5'"),
    ("l2.4", "n=4..x", "grid key 'n' takes a range LO..HI, got '4..x'"),
])
def test_verify_grid_names_the_key_of_a_bad_value(capsys, lemma, grid, message):
    code, out, err = run_cli(capsys, "verify", "--lemma", lemma, "--grid", grid)
    assert code == 2 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("lemma, grid, message", [
    ("l2.11", "l=4..16", "the bridged-completes grid is capped at l <= 14, got 16"),
    ("l2.4", "n=6..16", "the spectral family grid is capped at n <= 14, got 16"),
    ("l2.9", "n=4..10", "the exhaustive subset-scan suite is capped at n <= 8, got 10"),
])
def test_verify_grid_cap_names_its_own_key(capsys, lemma, grid, message):
    # the bridged-completes grid is one of l, not of n
    code, out, err = run_cli(capsys, "verify", "--lemma", lemma, "--grid", grid)
    assert code == 2 and out == "" and err == f"error: {message}\n"


def test_verify_l210_names_an_order_without_an_attaining_family(capsys):
    # the attaining family K1 v (K_{n-3} u 2K1) needs n >= 4; the refusal
    # names the suite and the order, not only the family's requirement
    code, out, err = run_cli(capsys, "verify", "--lemma", "l2.10", "--grid", "n=2..8")
    assert code == 2 and out == ""
    assert err == "error: l2.10 has no attaining family at n=2: requires even n >= 4\n"


def test_verify_lemma_rejects_options_the_suite_does_not_take(capsys):
    # exit 2 is a usage error; exit 1 would claim a violation was found
    code, _, err = run_cli(capsys, "verify", "--lemma", "l2.1",
                           "--grid", "foo=3")
    assert code == 2 and "'foo'" in err and "trials, seed" in err
    code, _, err = run_cli(capsys, "verify", "--lemma", "l2.1",
                           "--grid", "n=6..8")
    assert code == 2 and "'n_values'" in err


@pytest.mark.parametrize("lemma, grid", [
    ("l2.9", "sources=3"), ("l2.9", "n_values=8"), ("l2.11", "l_values=8"),
    ("l2.2", "tol=1"), ("l2.11", "tol=5"), ("l2.4", "n=6"),
])
def test_verify_grid_takes_only_its_documented_keys(capsys, lemma, grid):
    # exit 2 is a usage error; exit 1 would claim a violation was found
    code, out, err = run_cli(capsys, "verify", "--lemma", lemma, "--grid", grid)
    assert code == 2 and out == ""
    key = grid.split("=")[0]
    assert f"grid key {key!r}" in err and "LO..HI" in err


@pytest.mark.parametrize("lemma, grid", [
    ("l2.1", "trials=0"), ("l2.4", "n=-4..2"), ("l2.9", "n=2..2"),
])
def test_verify_lemma_that_checks_nothing_is_a_usage_error(capsys, lemma, grid):
    # "0 instances" is no evidence; l2.1 also used to print a non-JSON Infinity
    code, out, err = run_cli(capsys, "verify", "--lemma", lemma, "--grid", grid,
                             "--out", "json")
    assert code == 2 and out == ""
    assert f"{lemma} checks no instance on the grid" in err


def test_verify_lemma_csv_and_json(capsys, monkeypatch):
    # a negative tolerance makes every quotient-root comparison a violation
    monkeypatch.setattr(enumeration, "LEMMA_TOL", -1.0)
    monkeypatch.setattr(enumeration, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    report = enumeration.verify_lemma("l2.4", n_values=(6, 8))
    assert report.instances > 0 and len(report.violations) == report.instances
    argv = ("verify", "--lemma", "l2.4", "--grid", "n=6..8", "--out")
    code, out, _ = run_cli(capsys, *argv, "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 1
    assert rows[0] == ["lemma", "instances", "violations", "max_equality_gap"]
    assert rows[1] == ["l2.4", str(report.instances), str(len(report.violations)),
                       str(report.max_equality_gap)]
    assert rows[2:] == [["violation", v, "", ""] for v in report.violations]
    code, out, _ = run_cli(capsys, *argv, "json")
    assert code == 1 and out == report.to_json() + "\n"


def test_verify_deficiency_lemma_reads_its_input_once(capsys, monkeypatch,
                                                      n8_fixture_path):
    reads = []
    opened = open

    def counted(*args, **kwargs):
        reads.append(args[0])
        return opened(*args, **kwargs)

    monkeypatch.setattr("builtins.open", counted)
    for lemma in ("l2.9", "l2.10"):
        reads.clear()
        code, out, _ = run_cli(capsys, "verify", "--lemma", lemma,
                               "--input", n8_fixture_path)
        assert code == 0 and "0 violations" in out
        assert reads == [n8_fixture_path]


def test_verify_deficiency_lemma_grid_must_hold_the_input_order(capsys,
                                                               n8_fixture_path):
    for lemma in ("l2.9", "l2.10"):
        code, out, err = run_cli(capsys, "verify", "--lemma", lemma, "--grid", "n=4..6",
                                 "--input", n8_fixture_path)
        assert code == 2 and out == ""
        assert n8_fixture_path in err and "order 8" in err and "4, 6" in err


def test_verify_refuses_an_uncovered_order_when_min_degree_keeps_nothing(capsys,
                                                                          n8_fixture_path):
    # no graph of order 8 has minimum degree 9; t11(k=5) needs n >= 12 either way
    argv = ("verify", "--theorem", "t11", "--k", "5", "--input", n8_fixture_path)
    refusals = [run_cli(capsys, *argv), run_cli(capsys, *argv, "--min-degree", "9")]
    assert refusals[0] == refusals[1] == (
        2, "", "error: extension thresholds need even n >= 2k+2, got n=8, k=5\n")


def test_verify_deficiency_lemma_on_empty_input(capsys, tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("# no graphs\n")
    for lemma in ("l2.9", "l2.10"):
        code, _, err = run_cli(capsys, "verify", "--lemma", lemma,
                               "--input", str(path))
        assert code == 2 and f"empty graph source: {path}" in err


def test_verify_deficiency_lemma_on_odd_order_input(capsys, tmp_path):
    # a usage error that names the file and the order it read
    path = tmp_path / "odd.g6"
    path.write_text(to_graph6(cycle_graph(7)) + "\n")
    for lemma in ("l2.9", "l2.10"):
        code, out, err = run_cli(capsys, "verify", "--lemma", lemma,
                                 "--input", str(path))
        assert code == 2 and out == ""
        assert err == (f"error: file:{path}: the deficiency bound suites "
                       "need even n, got n=7\n")


def test_verify_sweep_names_an_empty_or_odd_input(capsys, tmp_path):
    # the sweep's source errors name the file, as the deficiency suites' do
    empty = tmp_path / "empty.g6"
    empty.write_text("# no graphs\n")
    odd = tmp_path / "odd.g6"
    odd.write_text(to_graph6(cycle_graph(7)) + "\n")
    for path, message in ((empty, f"empty graph source: {empty}"),
                          (odd, f"file:{odd}: sweeps need even n, got n=7")):
        code, out, err = run_cli(capsys, "verify", "--theorem", "t11", "--k", "1",
                                 "--input", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, needs", [
    (("--theorem", "t11", "--k", "1"), "sweeps"),
    (("--theorem", "t13"), "sweeps"),
    (("--theorem", "t14", "--k", "1"), "sweeps"),
    (("--theorem", "t16"), "sweeps"),
    (("--lemma", "l2.9"), "the deficiency bound suites"),
    (("--lemma", "l2.10"), "the deficiency bound suites"),
], ids=["t11", "t13", "t14", "t16", "l2.9", "l2.10"])
def test_verify_refuses_an_input_of_order_zero(capsys, tmp_path, argv, needs):
    # '?' is the graph6 line of the graph with no vertex: a usage error that
    # names the file, not a crash and not the exit code of a counterexample
    path = tmp_path / "zero.g6"
    path.write_text("?\n")
    code, out, err = run_cli(capsys, "verify", *argv, "--input", str(path))
    assert code == 2 and out == ""
    assert err == f"error: file:{path}: {needs} need n >= 1, got n=0\n"


@pytest.mark.parametrize("lemma, grid, low", [
    ("l2.9", "n=0..0", 0), ("l2.10", "n=0..2", 0), ("l2.10", "n=-2..4", -2),
])
def test_verify_lemma_grid_below_order_one_names_it(capsys, lemma, grid, low):
    # before, l2.9 said "n must be a non-negative integer" (from math.comb)
    # and l2.10 named only the cap of the built-in enumeration
    code, out, err = run_cli(capsys, "verify", "--lemma", lemma, "--grid", grid)
    assert code == 2 and out == ""
    assert err == f"error: the deficiency bound suites need n >= 1, got n={low}\n"


def test_verify_refuses_n_together_with_input(capsys, n8_fixture_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--theorem", "t11", "--k", "1", "--n", "6",
                  "--input", n8_fixture_path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--n" in err and "--input" in err and "not allowed" in err


def test_successive_calls_share_no_parsed_state(capsys, monkeypatch, n8_fixture_path):
    # main builds its argparse tree once per process; each call still
    # parses from the defaults, and refusals stay refusals
    assert cli.build_parser() is cli.build_parser()
    for argv, ks in ((("--k", "2"), ["1", "2"]), ((), ["1"])):
        monkeypatch.setattr("sys.stdin", io.StringIO("E~~?\n"))
        code, out, _ = run_cli(capsys, "analyze", "--out", "json", *argv)
        assert code == 0 and list(json.loads(out)["k_extendable"]) == ks
    for _ in range(2):
        code, out, err = run_cli(capsys, "verify", "--charpolys", "--grid", "n=6..8")
        assert code == 2 and out == "" and err == "error: --grid is not read by --charpolys\n"
        code, out, _ = run_cli(capsys, "verify", "--theorem", "t11", "--k", "1",
                               "--input", n8_fixture_path, "--out", "json")
        assert code == 0 and json.loads(out)["hypothesis_count"] == 44
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--theorem", "t11", "--k", "1", "--n", "6",
                      "--input", n8_fixture_path])
        assert exc.value.code == 2 and "not allowed" in capsys.readouterr().err


def test_import_starts_no_process_machinery():
    # sweeps run in one process, so importing the package and its CLI
    # pulls in neither multiprocessing nor the process-pool executor
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, matchspec, matchspec.cli; "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} "
            "& set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("lines, where, message", [
    (["E~~?", "# note", "G~~~~{"], 3,
     "mixed vertex counts in source: expected n=6, found n=8 in 'G~~~~{'"),
    (["E~~?", "E~~"], 2, "graph6 body has 2 chars, expected 3 for n=6"),
    (["", "E~~", "E~~?"], 2, "graph6 body has 2 chars, expected 3 for n=6"),
    # lines of one width: all but the last file are decoded from their bytes
    (["C~", "Bw"], 2, "mixed vertex counts in source: expected n=4, found n=3 in 'Bw'"),
    (["C~", "D~"], 2, "graph6 body has 1 chars, expected 2 for n=5"),
    (["E?Bw", "E?Bx"], 2, "nonzero padding bits in graph6 body"),
    (["C~", "C\x7f"], 2, "graph6 char '\\x7f' out of range"),
])
def test_verify_deficiency_lemma_names_file_and_line(capsys, tmp_path,
                                                     lines, where, message):
    path = tmp_path / "bad.g6"
    path.write_text("\n".join(lines) + "\n")
    for lemma in ("l2.9", "l2.10"):
        code, out, err = run_cli(capsys, "verify", "--lemma", lemma,
                                 "--input", str(path))
        assert code == 2 and out == ""
        assert err == f"error: file:{path}:{where}: {message}\n"


@pytest.mark.parametrize("bad, message", [
    ("G~~~~", "graph6 body has 4 chars, expected 5 for n=8"),
    ("E~~?", "mixed vertex counts in source: expected n=8, found n=6 in 'E~~?'"),
])
def test_verify_names_file_and_line_of_a_bad_graph(capsys, monkeypatch, tmp_path,
                                                   n8_fixture_path, bad, message):
    with open(n8_fixture_path) as fh:
        good = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    # the bad line follows comments and blank lines, in the first chunk of
    # the sweep or in the second, of 4096 lines each
    monkeypatch.setattr(graphs, "SOURCE_ENTRIES", 4096 * 8)
    head = ["# header", "", good[0], "# note", good[1]]
    path = tmp_path / "bad.g6"
    for skip in (0, enumeration._chunk_rows(8)):
        where = len(head) + skip + 1
        lines = head + good[2:2 + skip] + [bad] + good[2 + skip:skip + 3000]
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "verify", "--theorem", "t13",
                                 "--input", str(path))
        assert code == 2 and out == ""
        assert err == f"error: file:{path}:{where}: {message}\n"


@pytest.mark.parametrize("at, bad, message", [
    (None, None, "mixed vertex counts in source: expected n=8, found n=4 in 'C~'"),
    (5000, "G~~~~~", "nonzero padding bits in graph6 body"),
    (5000, "H~~~~{", "graph6 body has 5 chars, expected 6 for n=9"),
], ids=["other-width", "padding", "header"])
def test_verify_decodes_a_file_of_two_widths_in_batches(capsys, monkeypatch, tmp_path,
                                                        n8_fixture_path, at, bad, message):
    # a line of order 4 at the end leaves the file without cells; the lines
    # before it are decoded in chunks of 4096, and only the first line and
    # the one at fault, line `at` if one of the order's width is, are read
    # one by one
    with open(n8_fixture_path) as fh:
        lines = fh.read().split()
    if at:
        lines[at - 1] = bad
    path = tmp_path / "two_widths.g6"
    path.write_text("\n".join(lines + ["C~"]) + "\n")
    monkeypatch.setattr(graphs, "SOURCE_ENTRIES", 4096 * 8)
    read = []
    from_text = graphs._from_graph6_text

    def recording(line):
        read.append(line)
        return from_text(line)

    monkeypatch.setattr(graphs, "_from_graph6_text", recording)
    code, out, err = run_cli(capsys, "verify", "--theorem", "t13", "--input", str(path))
    assert code == 2 and out == ""
    assert err == f"error: file:{path}:{at or len(lines) + 1}: {message}\n"
    assert read == [lines[0], bad or "C~"]


def test_verify_names_the_line_that_is_not_utf8(capsys, tmp_path, n8_fixture_path):
    with open(n8_fixture_path, "rb") as fh:
        good = [ln for ln in fh if ln.strip() and not ln.startswith(b"#")]
    path = tmp_path / "bad.g6"
    path.write_bytes(good[0] + b"G\xff" + good[1] + b"".join(good[2:50]))
    for argv in (("--theorem", "t11", "--k", "1"), ("--lemma", "l2.9")):
        code, out, err = run_cli(capsys, "verify", *argv, "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: file:{path}:2: 'utf-8' codec can't decode byte 0xff")


def test_verify_skips_a_bare_graph6_header_line(capsys, tmp_path, n8_fixture_path):
    with open(n8_fixture_path) as fh:
        text = fh.read()
    path = tmp_path / "headed.g6"
    path.write_text(">>graph6<<\n" + text)
    for argv in (("--theorem", "t13", "--min-degree", "2"), ("--lemma", "l2.9")):
        runs = [run_cli(capsys, "verify", *argv, "--input", source, "--out", "json")
                for source in (n8_fixture_path, str(path))]
        (plain_code, plain, _), (code, headed, err) = runs
        assert code == plain_code == 0 and err == ""
        plain, headed = json.loads(plain), json.loads(headed)
        for doc in (plain, headed):
            doc.pop("wall_time")
            doc.pop("source", None)
        assert headed == plain


def test_deficiency_lemma_reports_are_the_same_on_either_read_path(capsys, tmp_path,
                                                                   n8_fixture_variants):
    # the plain fixture and a copy without its last newline are views of
    # their bytes; CRLF, '#' and >>graph6<< copies are read as lines first,
    # then decoded from the same bytes
    path = tmp_path / "copy.g6"
    for lemma in ("l2.9", "l2.10"):
        texts = set()
        for data in n8_fixture_variants.values():
            path.write_bytes(data)
            code, out, err = run_cli(capsys, "verify", "--lemma", lemma, "--grid", "n=4..8",
                                     "--input", str(path), "--out", "json")
            doc = json.loads(out)
            doc.pop("wall_time")
            assert code == 0 and err == "" and doc["instances"] == 838
            texts.add(enumeration.json_text(doc))
        assert len(texts) == 1, lemma


def test_verify_accepts_jobs_and_ignores_it(capsys, n8_fixture_path):
    # the benchmark and older callers still pass jobs; the report is the same
    source, t = enumeration.File(n8_fixture_path), theorems.TheoremId("t16")
    expected = sweep_theorem(source, t, min_degree=2).to_json(include_timing=False)
    report = sweep_theorem(source, t, min_degree=2, jobs=2)
    assert report.to_json(include_timing=False) == expected
    for jobs in ("1", "2"):
        code, out, err = run_cli(capsys, "verify", "--theorem", "t16", "--min-degree", "2",
                                 "--input", n8_fixture_path, "--jobs", jobs, "--out", "json")
        doc = json.loads(out)
        doc.pop("wall_time")
        assert code == 0 and err == "" and enumeration.json_text(doc) == expected


@pytest.mark.parametrize("argv, message", [
    (("--charpolys", "--grid", "n=6..8"), "--grid is not read by --charpolys"),
    (("--theorem", "t13", "--n", "6", "--grid", "n=4..6"), "--grid is not read by --theorem"),
    (("--lemma", "l2.4", "--n", "8", "--min-degree", "3", "--k", "2"),
     "--n is not read by --lemma"),
    (("--lemma", "l2.4", "--k", "2"), "--k is not read by --lemma"),
    (("--lemma", "l2.4", "--min-degree", "3"), "--min-degree is not read by --lemma"),
    (("--charpolys", "--n", "6"), "--n is not read by --charpolys"),
    (("--charpolys", "--k", "1"), "--k is not read by --charpolys"),
    (("--charpolys", "--min-degree", "2"), "--min-degree is not read by --charpolys"),
])
def test_verify_refuses_an_option_its_mode_does_not_read(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == "" and err == f"error: {message}\n"


def test_verify_lemma_accepts_jobs_and_ignores_it(capsys):
    code, out, _ = run_cli(capsys, "verify", "--lemma", "l2.4", "--grid", "n=6..8",
                           "--jobs", "2")
    assert code == 0 and "0 violations" in out


def test_verify_empty_lemma_grid_is_a_usage_error(capsys):
    for grid, key in (("n=8..6", "n"), ("n=5..5", "n"), ("l=7..7", "l")):
        lemma = "l2.11" if key == "l" else "l2.4"
        code, _, err = run_cli(capsys, "verify", "--lemma", lemma, "--grid", grid)
        assert code == 2 and f"even {key}" in err and f"{key}_values=()" in err


def test_verify_rejects_input_it_would_ignore(capsys, n8_fixture_path):
    for argv in (("--lemma", "l2.4"), ("--lemma", "l2.11"), ("--charpolys",)):
        code, out, err = run_cli(capsys, "verify", *argv, "--input", n8_fixture_path)
        assert code == 2 and out == "" and "--input" in err


@pytest.mark.parametrize("argv", [
    ("analyze", "--input", "-", "--k", "0"),
    ("analyze", "--input", "-", "--k", "-1"),
    ("thresholds", "--n", "6..10", "--k", "0"),
    ("verify", "--theorem", "t11", "--k", "0", "--n", "6"),
])
def test_k_below_one_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "--k must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [("--theorem", "t11", "--k", "1", "--n", "6"),
                                  ("--lemma", "l2.4", "--grid", "n=6..8")])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_a_usage_error(capsys, mode, jobs):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *mode, "--jobs", jobs])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: --jobs must be >= 1\n")


@pytest.mark.parametrize("argv, message", [
    (("--theorem", "c12", "--k", "3"), "c12 stands for t11 with k=1"),
    (("--theorem", "c15", "--k", "2"), "c15 stands for t14 with k=1"),
    (("--theorem", "t13", "--k", "2"), "t13 takes no k"),
    (("--theorem", "t16", "--k", "1"), "t16 takes no k"),
])
def test_verify_k_the_theorem_does_not_take_is_a_usage_error(capsys, argv, message):
    # a k that would be dropped is refused rather than ignored
    code, out, err = run_cli(capsys, "verify", *argv, "--n", "6")
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("argv", [
    ("verify", "--theorem", "t16", "--n", "6"),
    ("analyze", "--input", "-"),
])
def test_tolerance_is_not_an_option(capsys, argv):
    # the spectral tie band is the constant theorems.SPECTRAL_TOL
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--tolerance", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance 1e-9" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ("verify", "--theorem", "t16", "--n", "6"),
    ("analyze", "--input", "-"),
])
def test_non_finite_tolerance_is_a_usage_error(capsys, argv, value):
    # with the flag gone, argparse refuses these before any value is read
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, f"--tolerance={value}"])  # "-inf" alone reads as an option
    assert exc.value.code == 2
    assert f"unrecognized arguments: --tolerance={value}" in capsys.readouterr().err


def test_thresholds_text_and_row(capsys):
    code, out, _ = run_cli(capsys, "thresholds", "--n", "6..12", "--k", "1")
    assert code == 0
    row = next(l for l in out.splitlines() if l.startswith("6 "))
    assert "12" in row and "4.201472" in row and "10" in row and "3.626198" in row


def test_thresholds_k2_rows_respect_order_floor(capsys):
    # k=2 needs n >= 2k+2 = 6; nothing below the floor appears
    code, out, _ = run_cli(capsys, "thresholds", "--n", "2..10", "--k", "2")
    assert code == 0
    lines = [l for l in out.splitlines()[1:] if l.strip()]
    assert [int(l.split()[0]) for l in lines] == [6, 8, 10]
    code, _, err = run_cli(capsys, "thresholds", "--n", "2..4", "--k", "2")
    assert code == 2


def test_thresholds_json_and_csv_agree(capsys):
    code, json_out, _ = run_cli(capsys, "thresholds", "--n", "6..10",
                                "--k", "1", "--out", "json")
    assert code == 0
    doc = json.loads(json_out)
    assert doc["schema"] == cli.THRESHOLDS_SCHEMA
    code, csv_out, _ = run_cli(capsys, "thresholds", "--n", "6..10",
                               "--k", "1", "--out", "csv")
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(rows) == len(doc["rows"])
    for row, ref in zip(rows, doc["rows"]):
        assert int(row["n"]) == ref["n"]
        assert int(row["size_extendable"]) == ref["size_extendable"]
        assert abs(float(row["spectral_extendable"]) - ref["spectral_extendable"]) < 1e-9


def test_thresholds_bad_range(capsys):
    code, _, err = run_cli(capsys, "thresholds", "--n", "12..6")
    assert code == 2


@pytest.mark.parametrize("value", ["6..x", "x", "6..", "..8"])
def test_thresholds_names_n_on_a_bad_value(capsys, value):
    code, out, err = run_cli(capsys, "thresholds", "--n", value)
    assert code == 2 and out == ""
    assert err == f"error: --n takes an order or a range LO..HI, got {value!r}\n"
