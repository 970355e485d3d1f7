"""Command-line interface: analyze, construct, verify, thresholds.

Exit codes are a stable contract for CI: 0 = success/verified,
1 = a counterexample or violation was found, 2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from functools import cache

from . import enumeration, families, graphs, matching, spectral, theorems
from .enumeration import BuiltIn, File, sweep_theorem, verify_charpoly_identities, verify_lemma
from .theorems import TheoremId

FIXTURES_ENV = "MATCHSPEC_FIXTURES"
THRESHOLDS_SCHEMA = "matchspec/thresholds/1"
ANALYZE_SCHEMA = "matchspec/analyze/1"
# the lemma suites that take their graphs from a graph6 file
INPUT_LEMMAS = ("l2.9", "l2.10")
# the verify options each mode leaves unread, refused rather than dropped
UNREAD = {"--theorem": ("grid",), "--lemma": ("n", "k", "min_degree"),
          "--charpolys": ("n", "k", "min_degree", "grid")}


def _emit(out: str, doc: dict, rows: list[list] | None, print_text) -> None:
    """Print a command's output: doc as JSON, rows as CSV, or print_text()."""
    if out == "json":
        print(enumeration.json_text(doc))
    elif out == "csv":
        csv.writer(sys.stdout).writerows(rows)
    else:
        print_text()


def _load_graph(args) -> graphs.Graph:
    """The input's first graph; stdin and a file give their bytes to one reader.
    A graph of order 0 is refused with its line, as a line that does not parse."""
    if args.input == "-":  # an io.StringIO standing in for stdin has no buffer
        stdin, where = sys.stdin, "stdin"
        data = stdin.buffer.read() if hasattr(stdin, "buffer") else stdin.read().encode()
    else:
        where = File(args.input).describe()
        with open(args.input, "rb") as fh:
            data = fh.read()
    lines = enumeration.decode_lines(data, where)
    if args.format == "edgelist":
        return graphs.parse_edge_list(lines, where)
    for number, line in enumerate(map(graphs.graph6_text, lines), 1):
        if line:
            try:
                g = graphs._from_graph6_text(line)
                if not g.n:
                    raise ValueError("vertex count must be at least 1, got 0")
                return g
            except ValueError as exc:
                raise ValueError(f"{where}:{number}: {exc}") from None
    raise ValueError("no graph found in input")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    g = _load_graph(args)
    doc: dict = {
        "schema": ANALYZE_SCHEMA,
        "graph6": graphs.to_graph6(g) if g.n <= 62 else None,
        "n": g.n,
        "m": g.m,
        "min_degree": graphs.min_degree(g),
        "connected": graphs.is_connected(g),
    }
    sr = spectral.spectral_radius(g)
    doc["rho"] = sr.rho
    doc["rho_residual"] = sr.residual
    doc["matching_number"] = matching.matching_number(g)
    doc["has_perfect_matching"] = 2 * doc["matching_number"] == g.n

    if g.n % 2 == 0:
        doc["k_extendable"] = {
            k: _routes(g, matching.is_k_extendable, matching.is_k_extendable_chen, k)
            for k in range(1, args.k + 1)}
        doc["one_excludable"] = _routes(g, matching.is_1_excludable,
                                        matching.is_1_excludable_criterion,
                                        compare=doc["connected"])
    else:
        doc["k_extendable"] = None  # undefined off even orders
        doc["one_excludable"] = None
    # a verdict's fields are JSON as they stand (vars: dataclasses.asdict is slow)
    doc["theorems"] = {str(t): vars(theorems.theorem_verdict(g, t))
                       for t in theorems.statements(g.n, args.k)}
    _emit(args.out, doc, None, lambda: _print_analysis(doc))
    return 0


def _routes(g, direct, criterion, *args, compare: bool = True) -> dict:
    """The direct route's verdict, and whether the criterion route agrees where
    it runs: on an order the statement covers, up to SUBSET_SCAN_CAP vertices."""
    verdict = direct(g, *args)
    agrees = None
    if compare and verdict.reason != "too-few-vertices" and g.n <= matching.SUBSET_SCAN_CAP:
        agrees = criterion(g, *args).holds == verdict.holds
    return {"holds": verdict.holds, "reason": verdict.reason,
            "agrees_with_criterion": agrees}


def _print_analysis(doc: dict) -> None:
    print(f"graph6:           {doc['graph6']}")
    print(f"n, m:             {doc['n']}, {doc['m']}")
    print(f"min degree:       {doc['min_degree']}")
    print(f"connected:        {doc['connected']}")
    print(f"rho:              {doc['rho']:.6f}  (residual {doc['rho_residual']:.1e})")
    print(f"matching number:  {doc['matching_number']}")
    print(f"perfect matching: {doc['has_perfect_matching']}")
    if doc.get("k_extendable") is None:
        print("k-extendable:     N/A (odd order)")
        print("1-excludable:     N/A (odd order)")
    else:
        routes = [(f"{k}-extendable", entry) for k, entry in doc["k_extendable"].items()]
        for name, entry in routes + [("1-excludable", doc["one_excludable"])]:
            agree = entry["agrees_with_criterion"]
            agree_txt = "" if agree is None else f"  [criterion agrees: {agree}]"
            print(f"{name}:     {entry['holds']}{agree_txt}")
    for name, v in doc["theorems"].items():
        if v["is_listed_exception"]:
            status = "listed exception"
        elif not v["hypothesis_met"]:
            status = "hypothesis not met"
        else:
            status = "conclusion holds" if v["conclusion_met"] else "COUNTEREXAMPLE"
        print(f"{name}:  threshold={_fmt(v['threshold'])} measured={_fmt(v['measured'])}"
              f" -> {status}")


def _fmt(x) -> str:
    return f"{x:.6f}" if isinstance(x, float) else str(x)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def cmd_construct(args) -> int:
    if not args.family:
        raise ValueError("no family specification given")
    spec = families.parse_family_text(args.family)
    g = families.build(spec)
    print(graphs.to_graph6(g))
    if args.edgelist:
        print(g.n)
        for u, v in g.edges():
            print(u, v)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _source_for(args, n: int | None):
    if args.input:
        return File(args.input)
    if n is None:
        raise ValueError("either --n or --input is required")
    if n < 1:
        raise ValueError(f"there are no graphs of order n={n}; --n takes an order >= 1")
    if n <= enumeration.ENUMERATION_CAP:
        return BuiltIn(n)
    fixtures = os.environ.get(FIXTURES_ENV)
    if fixtures:
        path = os.path.join(fixtures, f"connected_n{n}.g6")
        if os.path.exists(path):
            return File(path)
        raise ValueError(f"no fixture connected_n{n}.g6 under {FIXTURES_ENV}={fixtures}")
    raise ValueError(
        f"n={n} exceeds the built-in enumeration cap; pass --input FILE or set "
        f"{FIXTURES_ENV} to a directory containing connected_n{n}.g6")


def _parse_grid(text: str | None) -> dict:
    """Parse '--grid n=6..14,trials=200' into verifier options: n=LO..HI and
    l=LO..HI keep the range's even values; trials and seed take integers."""
    if not text:
        return {}
    options: dict = {}
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"bad grid item {item!r} (expected key=value)")
        key, val = (p.strip() for p in item.split("=", 1))
        if key not in ("n", "l", "trials", "seed"):
            raise ValueError(f"unknown grid key {key!r}; the keys are n, l (ranges "
                             "LO..HI) and trials, seed (integers)")
        try:
            if key in ("n", "l"):
                lo, hi = (int(x) for x in val.split("..", 1))
                options[f"{key}_values"] = tuple(v for v in range(lo, hi + 1) if v % 2 == 0)
            else:
                options[key] = int(val)
        except ValueError:
            kind = "a range LO..HI" if key in ("n", "l") else "an integer"
            raise ValueError(f"grid key {key!r} takes {kind}, got {val!r}") from None
    return options


def cmd_verify(args) -> int:
    picked = sum(bool(x) for x in (args.theorem, args.lemma, args.charpolys))
    if picked != 1:
        raise ValueError("pick exactly one of --theorem, --lemma, --charpolys")
    mode = "--theorem" if args.theorem else "--lemma" if args.lemma else "--charpolys"
    for option in UNREAD[mode]:
        if getattr(args, option) is not None:
            raise ValueError(f"--{option.replace('_', '-')} is not read by {mode}")

    if args.theorem:
        t = theorems.parse_theorem_token(args.theorem, args.k)
        source = _source_for(args, args.n)
        report = sweep_theorem(source, t, min_degree=args.min_degree)
        _emit(args.out, report.to_json_dict(), report.csv_rows(),
              lambda: _print_sweep(report))
        return 0 if not report.counterexamples else 1

    if args.input and (args.charpolys or args.lemma.lower() not in INPUT_LEMMAS):
        raise ValueError(
            f"--input is read only by --theorem and by --lemma "
            f"{' / '.join(INPUT_LEMMAS)}")
    if args.charpolys:
        report = verify_charpoly_identities()
    else:
        options = _parse_grid(args.grid)
        if args.input:
            src = File(args.input)
            n = next(src.row_chunks(enumeration.NO_PM_SUITES)).shape[1]  # the file's order
            options.setdefault("n_values", (n,))
            options["sources"] = {n: src}
        report = verify_lemma(args.lemma, **options)
    _emit(args.out, report.to_json_dict(), report.csv_rows(),
          lambda: _print_lemma(report))
    return 0 if report.ok else 1


def _print_sweep(report) -> None:
    print(f"theorem {report.theorem} over {report.source}"
          f" (min_degree={report.min_degree})")
    print(f"graphs scanned:    {report.graphs_scanned}")
    print(f"hypothesis met:    {report.hypothesis_count}")
    print(f"counterexamples:   {len(report.counterexamples)}")
    for g6 in report.counterexamples:
        print(f"  COUNTEREXAMPLE {g6}")
    print(f"exceptions found:  {len(report.exceptions_found)}")
    for g6, fam, params in report.exceptions_found:
        tag = f"{fam} {params}" if fam else "UNRECOGNIZED"
        print(f"  {g6}  ->  {tag}")
    print(f"wall time:         {report.wall_time:.3f}s")


def _print_lemma(report) -> None:
    print(f"{report.lemma}: {report.instances} instances, "
          f"{len(report.violations)} violations "
          f"(gap {report.max_equality_gap:.4g}, {report.wall_time:.3f}s)")
    for nt in report.notes:
        print(f"  note: {nt}")
    for v in report.violations:
        print(f"  VIOLATION: {v}")


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..", 1) if ".." in text else (text, text)
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"--n takes an order or a range LO..HI, got {text!r}") from None


def cmd_thresholds(args) -> int:
    lo, hi = _parse_range(args.n)
    if lo > hi:
        raise ValueError(f"empty order range {args.n!r}")
    k = args.k
    extension, exclusion = TheoremId("t11", k), TheoremId("t13")
    rows = []
    for n in filter(extension.covers, range(lo, hi + 1)):
        excludable = exclusion.covers(n)
        rows.append({
            "n": n,
            "k": k,
            "size_extendable": theorems.size_threshold_extendable(n, k),
            "spectral_extendable": theorems.spectral_threshold_extendable(n, k),
            "size_excludable": theorems.size_threshold_excludable(n) if excludable else None,
            "spectral_excludable":
                theorems.spectral_threshold_excludable(n) if excludable else None,
        })
    if not rows:
        raise ValueError(f"no even n >= {2 * k + 2} in range {args.n!r}")
    header = list(rows[0])
    table = [header] + [[row[h] for h in header] for row in rows]
    _emit(args.out, {"schema": THRESHOLDS_SCHEMA, "rows": rows}, table,
          lambda: _print_thresholds(table))
    return 0


def _print_thresholds(table: list[list]) -> None:
    for row in table:
        print("".join(("-" if val is None else _fmt(val)).ljust(w)
                      for val, w in zip(row, (4, 3, 16, 20, 16, 20))))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="matchspec",
        description="matching extension/exclusion thresholds and sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a single graph")
    p.add_argument("--input", default="-", help="path or '-' for stdin")
    p.add_argument("--format", choices=("g6", "edgelist"), default="g6")
    p.add_argument("--k", type=int, default=1,
                   help="check k-extendability for k=1..K")
    p.add_argument("--out", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("construct", help="build a named or textual family")
    p.add_argument("family", nargs="?", default=None,
                   help="e.g. 'thm13-f2', 'w2:n=10', 'K(2) v (K(3) u K1)'")
    p.add_argument("--edgelist", action="store_true",
                   help="also print the edge-list form")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run a sweep or a lemma/identity suite")
    p.add_argument("--theorem", help="t11, t13, t14, t16 (aliases c12, c15)")
    p.add_argument("--lemma", help="l2.1, l2.2, l2.4, l2.5, l2.8, l2.9, l2.10, l2.11")
    p.add_argument("--charpolys", action="store_true",
                   help="check the displayed quotient polynomial formulas")
    p.add_argument("--k", type=int, help="k for t11/t14")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--n", type=int, help="order for built-in/fixture sources")
    source.add_argument("--input", help="graph6 file source")
    p.add_argument("--min-degree", type=int, default=None)
    p.add_argument("--grid", help="e.g. 'n=6..14' or 'trials=200,seed=7'")
    # ignored (sweeps run in one process); parsed so command lines passing it work
    p.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    p.add_argument("--out", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("thresholds", help="tabulate size/spectral thresholds")
    p.add_argument("--n", required=True, help="order or range, e.g. 6..12")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_thresholds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be >= 1")
    if getattr(args, "k", None) is not None and args.k < 1:
        parser.error("--k must be >= 1")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
