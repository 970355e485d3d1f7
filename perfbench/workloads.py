"""The four benchmark workloads: seeded inputs, operations and output checks.

Each workload is built by `build(name, seed)`, which imports matchspec and
prepares every input, so its wall time is the benchmark's set-up time.  A
workload is a list of rounds; a round is a list of operations, and the
timed loop only stops between rounds so every run holds the same mix.

An operation has two halves: its named `steps` call into matchspec (through
the in-process CLI `matchspec.cli.main`, or the public API where the CLI
has no entry point) and are the only part that is timed; `check(raws)`
compares the steps' raw outputs with the expected ones and returns them in
a canonical form (timing fields removed) so traced and untraced runs can be
compared byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from dataclasses import dataclass
from functools import partial
from random import Random
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")

# Relative to the checkout root (the benchmark's working directory), so the
# `source` field of a sweep report is the same in every checkout.
FIXTURE = os.path.join("tests", "fixtures", "connected_n8.g6")
WORK_DIR = ".perfbench_work"
SHUFFLED_N8 = f"{WORK_DIR}/connected_n8.g6"
N8_GRAPHS = 11117

SWEEP_ARGS = {
    "t11-k1": ["--theorem", "t11", "--k", "1"],
    "t13": ["--theorem", "t13", "--min-degree", "2"],
    "t14-k1": ["--theorem", "t14", "--k", "1"],
    "t16": ["--theorem", "t16", "--min-degree", "2"],
}

# analyze-dense: one graph per (order, edge density) cell in every round.
# An order-14 graph costs three to four times an order-12 graph of the same
# density, so order 14 gets one cell, at density 0.9.  That keeps a round
# near 2 s and a run above 100 operations, and puts the 90th percentile
# among dense graphs whose cost varies little.
ANALYZE_CELLS = [(n, d / 10) for n in (10, 12) for d in range(3, 10)] + [(14, 0.9)]
ANALYZE_ROUNDS = 40  # pre-generated; the loop cycles if it needs more
ANALYZE_VERDICTS = 6  # t11 and t14 at k = 1, 2, then t13 and t16

# verify-suites: the acceptance grids; l2.1 / l2.5 / l2.8 take the seed.
SEEDED_LEMMAS = {"l2.1": "trials=100", "l2.5": "trials=100", "l2.8": "trials=60"}
FIXED_LEMMAS = {
    "l2.2": [],
    "l2.4": ["--grid", "n=6..14"],
    "l2.9": ["--grid", "n=4..8", "--input", SHUFFLED_N8],
    "l2.10": ["--grid", "n=4..8", "--input", SHUFFLED_N8],
    "l2.11": [],
}
LEMMA_ORDER = ("l2.1", "l2.2", "l2.4", "l2.5", "l2.8", "l2.9", "l2.10", "l2.11")
# Graphs one verify-suites operation takes from exhaustive sources:
# l2.9 and l2.10 each read n = 4, 6, 8 (6 + 112 + 11117), and the oracle
# equivalences read every connected graph with n <= 7 (996).
SUITE_GRAPHS = 2 * (6 + 112 + N8_GRAPHS) + 996


class OutputMismatch(Exception):
    """The program's output differs from the expected one."""


@dataclass
class Op:
    steps: list[tuple[str, Callable[[], Any]]]  # (kind, call) pairs
    check: Callable[[list], str]
    graphs: int


@dataclass
class Workload:
    rounds: list[list[Op]]
    cleanup: Callable[[], None]


def run_cli(argv: list[str], stdin_text: str | None = None) -> tuple[int, str]:
    """Run `matchspec.cli.main(argv)` in process; return (exit code, stdout)."""
    from matchspec import cli
    out = io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _without_timing(text: str) -> str:
    doc = json.loads(text)
    doc.pop("wall_time", None)
    return json.dumps(doc, indent=2, sort_keys=True)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise OutputMismatch(message)


def load_golden(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        return fh.read()


def write_shuffled_fixture(seed: int, path: str = SHUFFLED_N8) -> None:
    """The n = 8 fixture with its line order shuffled by the seed."""
    with open(FIXTURE) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    Random(seed).shuffle(lines)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _remove(path: str) -> Callable[[], None]:
    def cleanup() -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    return cleanup


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweeps_op(theorems: tuple[str, ...]) -> Op:
    """One sweep per theorem over the shuffled fixture, in order.

    The two sweeps of a workload form one operation: they differ in cost, so
    a median over single sweeps would fall between two clusters.
    """
    steps = []
    for theorem in theorems:
        argv = ["verify", *SWEEP_ARGS[theorem], "--input", SHUFFLED_N8,
                "--jobs", "1", "--out", "json"]
        steps.append((theorem, partial(run_cli, argv)))

    def check(raws) -> str:
        canon = []
        for theorem, (code, out) in zip(theorems, raws):
            _expect(code == 0, f"{theorem}: exit code {code}")
            canon.append(_without_timing(out))
            _expect(canon[-1] == load_golden(f"sweep-{theorem}.json"),
                    f"{theorem}: report differs from golden")
        return "\n".join(canon)

    return Op(steps, check, len(theorems) * N8_GRAPHS)


def _sweep_workload(theorems: tuple[str, str], seed: int) -> Workload:
    write_shuffled_fixture(seed)
    return Workload([[sweeps_op(theorems)]], _remove(SHUFFLED_N8))


# ---------------------------------------------------------------------------
# analyze-dense
# ---------------------------------------------------------------------------

def random_connected_graph6(rng: Random, n: int, density: float) -> str:
    """A connected graph with exactly round(density * C(n, 2)) edges.

    A fixed edge count, rather than independent edges, keeps the cost of
    graphs in one cell closer together, so runs vary less between seeds.
    """
    from matchspec.graphs import from_edge_list, is_connected, to_graph6
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = round(density * len(pairs))
    while True:
        g = from_edge_list(n, rng.sample(pairs, m))
        if is_connected(g):
            return to_graph6(g)


def analyze_op(g6: str, n: int) -> Op:
    argv = ["analyze", "--input", "-", "--k", "2", "--out", "json"]

    def check(raws) -> str:
        code, out = raws[0]
        _expect(code == 0, f"analyze {g6}: exit code {code}")
        doc = json.loads(out)
        _expect(doc["graph6"] == g6 and doc["n"] == n and doc["connected"] is True,
                f"analyze {g6}: wrong graph echoed")
        routes = list(doc["k_extendable"].values()) + [doc["one_excludable"]]
        _expect(len(routes) == 3 and all(r["agrees_with_criterion"] is True
                                         for r in routes),
                f"analyze {g6}: direct and criterion routes disagree")
        verdicts = doc["theorems"].values()
        _expect(len(verdicts) == ANALYZE_VERDICTS
                and all(v["consistent"] is True for v in verdicts),
                f"analyze {g6}: inconsistent theorem verdict")
        return out

    return Op([(f"analyze-n{n}", partial(run_cli, argv, g6 + "\n"))], check, 1)


def _analyze_workload(seed: int) -> Workload:
    rng = Random(seed)
    rounds = [[analyze_op(random_connected_graph6(rng, n, d), n)
               for n, d in ANALYZE_CELLS]
              for _ in range(ANALYZE_ROUNDS)]
    return Workload(rounds, lambda: None)


# ---------------------------------------------------------------------------
# verify-suites
# ---------------------------------------------------------------------------

def oracle_equivalences() -> dict:
    """Acceptance criterion 9: both routes agree on every connected n <= 7."""
    from matchspec import enumeration, graphs, matching
    counts = {"graphs": 0, "extendability_pairs": 0, "excludability_graphs": 0,
              "disagreements": 0}
    for n in range(1, 8):
        for g in enumeration.enumerate_connected(n):
            d, _ = matching.berge_tutte_deficiency(g)
            if matching.matching_number(g) != (g.n - d) // 2:
                counts["disagreements"] += 1
            counts["graphs"] += 1
            if n % 2 == 0:
                for k in (1, 2):
                    if (matching.is_k_extendable(g, k).holds
                            != matching.is_k_extendable_chen(g, k).holds):
                        counts["disagreements"] += 1
                    counts["extendability_pairs"] += 1
                if graphs.min_degree(g) >= 2:
                    if (matching.is_1_excludable(g).holds
                            != matching.is_1_excludable_criterion(g).holds):
                        counts["disagreements"] += 1
                    counts["excludability_graphs"] += 1
    return counts


def suite_argvs(seed: int) -> dict[str, list[str]]:
    """CLI arguments of `verify --charpolys` and the eight lemma suites."""
    rng = Random(seed)
    argvs = {"charpolys": ["verify", "--charpolys", "--out", "json"]}
    for lemma in LEMMA_ORDER:
        if lemma in SEEDED_LEMMAS:
            grid = f"{SEEDED_LEMMAS[lemma]},seed={rng.randrange(1 << 31)}"
            extra = ["--grid", grid]
        else:
            extra = FIXED_LEMMAS[lemma]
        argvs[lemma] = ["verify", "--lemma", lemma, *extra, "--out", "json"]
    return argvs


def suites_op(seed: int, cache_clear: Callable[[], None]) -> Op:
    """One step per suite; the first clears the enumeration cache."""
    argvs = suite_argvs(seed)

    def first():
        cache_clear()
        return run_cli(argvs["charpolys"])

    steps = [("charpolys", first)]
    steps += [(lemma, partial(run_cli, argvs[lemma])) for lemma in LEMMA_ORDER]
    steps.append(("oracle", oracle_equivalences))

    def check(raws) -> str:
        golden = json.loads(load_golden("verify-suites.json"))
        *outputs, oracle = raws
        canon = {}
        for name, (code, out) in zip(argvs, outputs):
            doc = json.loads(out)
            _expect(code == 0 and not doc["violations"],
                    f"{name}: exit code {code}, violations {doc['violations']}")
            _expect(doc["instances"] == golden["instances"][name],
                    f"{name}: {doc['instances']} instances, expected "
                    f"{golden['instances'][name]}")
            canon[name] = _without_timing(out)
        _expect(oracle == golden["oracle"], f"oracle equivalences: {oracle}")
        canon["oracle"] = oracle
        return json.dumps(canon, sort_keys=True)

    return Op(steps, check, SUITE_GRAPHS)


def _suites_workload(seed: int) -> Workload:
    from matchspec import enumeration
    write_shuffled_fixture(seed)
    op = suites_op(seed, enumeration.enumerate_connected.cache_clear)
    return Workload([[op]], _remove(SHUFFLED_N8))


WORKLOADS = ("sweep-spectral-n8", "sweep-size-n8", "analyze-dense", "verify-suites")


def build(name: str, seed: int) -> Workload:
    """Import matchspec and prepare every input of the named workload."""
    import matchspec  # noqa: F401  (the import is part of set-up time)
    if name == "sweep-spectral-n8":
        return _sweep_workload(("t14-k1", "t16"), seed)
    if name == "sweep-size-n8":
        return _sweep_workload(("t11-k1", "t13"), seed)
    if name == "analyze-dense":
        return _analyze_workload(seed)
    if name == "verify-suites":
        return _suites_workload(seed)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
