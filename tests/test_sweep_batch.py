"""The batched sweep path against the per-graph one, on every graph with n <= 8.

A sweep decodes a whole chunk of graph6 lines into one array of neighbour
bit rows, drops graphs whose Hong-Shu-Fang spectral-radius bound is already below a
spectral threshold, decides most of the rest from Collatz-Wielandt bounds,
eigensolves the graphs tied with the threshold in one call, and certifies the
conclusion of the graphs that meet the hypothesis from one batched Tutte
matrix elimination.  These tests check each of those steps against an
independent graph6 decoder, `spectral_radius`, `hypothesis_status`, an
unpruned eigensolver and `conclusion_holds`, graph by graph, and whole
sweeps against `theorem_verdict`.
"""

import os
import random
import re
import shutil
import tracemalloc
from math import comb

import numpy as np
import pytest

from matchspec import enumeration, families, graphs, matching, spectral, theorems
from matchspec.enumeration import BuiltIn, File, enumerate_connected, sweep_theorem
from matchspec.graphs import (Graph, complete_graph, cycle_graph, disjoint_union,
                              from_edge_list, is_connected, join, parse_graph6, to_graph6)
from matchspec.theorems import TheoremId
from oracles import reference_graph6_decode, source_graph6_lines, spectral_mask_reference

THEOREMS = [TheoremId("t11", 1), TheoremId("t11", 2), TheoremId("t13"),
            TheoremId("t14", 1), TheoremId("t14", 2), TheoremId("t16")]
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "golden")
GOLDEN = {"t11-k1": (TheoremId("t11", 1), None), "t13": (TheoremId("t13"), 2),
          "t14-k1": (TheoremId("t14", 1), None), "t16": (TheoremId("t16"), 2)}
# every graph with n <= 8 whose rho is within 1e-6 of a spectral threshold
SPECTRAL_TIES = {TheoremId("t14", 1): {"C}", "E~~?", "GTm~~{", "GUz~~{"},
                 TheoremId("t14", 2): {"E~~o", "GT~~~{"},
                 TheoremId("t16"): {"E~r?", "G?b~~{"}}
# the graphs with n <= 8 a spectral statement leaves to the eigensolver
BRACKET_TIES = {**SPECTRAL_TIES, TheoremId("t14", 3): {"G^~~~{"}}
SPECTRAL_CASES = [(TheoremId("t14", k), None) for k in (1, 2, 3)] + [
    (TheoremId("t16"), None), (TheoremId("t16"), 2)]
# the statements whose conclusion the Tutte inverse certifies
CERTIFIED = [TheoremId("t11", 1), TheoremId("t14", 1), TheoremId("t13"), TheoremId("t16")]


def _cells(lines):
    """graph6 lines as the (N, width) uint8 cells the batch decoder reads."""
    return graphs._graph6_cells("\n".join(lines).encode())


@pytest.fixture(scope="module")
def by_order(n8_fixture_path):
    """order -> (lines, graphs, batched neighbour bit rows) for n = 4, 6, 8."""
    out = {}
    for source in (BuiltIn(4), BuiltIn(6), File(n8_fixture_path)):
        lines = source_graph6_lines(source)
        gs = [parse_graph6(line) for line in lines]
        rows, bad = graphs._decode_cells(_cells(lines), gs[0].n)
        assert bad.size == 0
        out[gs[0].n] = (lines, gs, rows)
    return out


def test_batched_decode_matches_reference_decoder(by_order):
    decoded = {n: (lines, rows) for n, (lines, _, rows) in by_order.items()}
    for n in (1, 2, 3, 5, 7):
        lines = source_graph6_lines(BuiltIn(n))
        rows, bad = graphs._decode_cells(_cells(lines), n)
        assert bad.size == 0
        decoded[n] = lines, rows
    for n, (lines, rows) in decoded.items():
        assert rows.dtype == np.min_scalar_type((1 << n) - 1)
        for line, row in zip(lines, rows.tolist()):
            rn, edges = reference_graph6_decode(line)
            expected = [0] * n
            for i, j in edges:
                expected[i] |= 1 << j
                expected[j] |= 1 << i
            assert rn == n and row == expected, line
    for lines, gs, _ in by_order.values():
        assert [g.edges() for g in gs] == [reference_graph6_decode(line)[1] for line in lines]


@pytest.mark.parametrize("t", THEOREMS, ids=str)
def test_batched_hypothesis_matches_per_graph(by_order, t):
    for _, gs, rows in by_order.values():
        try:
            expected = [theorems.hypothesis_status(g, t)[0] for g in gs]
        except ValueError as exc:  # order outside the statement's range
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                theorems._hypothesis_mask(rows, t)
            continue
        batched = theorems._hypothesis_mask(rows, t)
        assert batched.tolist() == expected


def test_radius_bound_holds_on_every_connected_graph(by_order):
    for _, gs, _ in by_order.values():
        connected = [g for g in gs if is_connected(g)]
        rho = np.array([spectral.spectral_radius(g).rho for g in connected])
        bound = spectral.radius_upper_bound([g.m for g in connected], gs[0].n,
                                            [graphs.min_degree(g) for g in connected])
        # equality (regular graphs, stars) up to eigensolver rounding
        assert np.all(rho <= bound + 1e-12)


def _wheel(n):
    """A hub joined to the cycle on the other n - 1 vertices."""
    return join(complete_graph(1), cycle_graph(n - 1))


@pytest.mark.parametrize("g", [
    complete_graph(2), complete_graph(5), complete_graph(8), cycle_graph(5),
    cycle_graph(8), from_edge_list(6, [(u, v) for u in range(3) for v in range(3, 6)]),
    from_edge_list(8, [(u, u | (1 << b)) for u in range(8) for b in range(3) if not u >> b & 1]),
    _wheel(7), _wheel(8),
], ids=["K2", "K5", "K8", "C5", "C8", "K33", "Q3", "W7", "W8"])
def test_radius_bound_is_exact_on_its_equality_cases(g):
    # regular graphs, and graphs whose degrees are the minimum and n - 1
    # only (the wheel's are 3 and n - 1), meet the bound with equality
    low = graphs.min_degree(g)
    bound = spectral.radius_upper_bound(g.m, g.n, low)
    assert abs(spectral.spectral_radius(g).rho - bound) <= 1e-12
    if low > 1 and low < g.n - 1:  # where Hong's bound is strictly weaker
        assert spectral.radius_upper_bound(g.m, g.n, 1) > bound + 0.1


def test_radius_bound_at_minimum_degree_one_is_hongs_bit_for_bit():
    for n in range(1, 63):
        m = np.arange(n - 1, n * (n - 1) // 2 + 1)
        hong = np.sqrt(2.0 * m - n + 1.0)
        assert np.array_equal(spectral.radius_upper_bound(m, n, 1), hong), n


def test_eigensolve_counts_at_n8(by_order, monkeypatch):
    # the graphs the mask sends on to the bracket: with the statement's
    # minimum degree, and not ruled out by the bound; a weaker cut changes
    # these counts.  The fixture holds connected graphs only, so the mask
    # needs no connectivity test to send these
    _, gs, rows = by_order[8]
    assert all(is_connected(g) for g in gs)
    deg = np.array([[g.degree(v) for v in range(8)] for g in gs])
    low, m = deg.min(axis=1), deg.sum(axis=1) // 2
    bound = spectral.radius_upper_bound(m, 8, low) + theorems.PRUNE_MARGIN
    sent = []
    bracket = theorems._radius_bracket
    monkeypatch.setattr(theorems, "_radius_bracket",
                        lambda rows, *rest: sent.append(len(rows)) or bracket(rows, *rest))
    counts = []
    for t, min_deg in (GOLDEN["t14-k1"], GOLDEN["t16"]):
        floor = theorems.hypothesis_threshold(t, 8) - theorems.SPECTRAL_TOL
        counts.append(int(((low >= (min_deg or 0)) & (bound >= floor)).sum()))
        theorems._hypothesis_mask(rows, t, min_deg)
    assert counts == sent == [23, 900]


def _disconnected_graphs(n):
    """One graph of each isomorphism class of disconnected graphs of order
    n: the disjoint union of each multiset of connected classes of order
    below n, from `enumerate_connected`, whose orders add up to n."""
    pool = [g for order in range(1, n) for g in enumerate_connected(order)]

    def unions(rest, last):
        # the unions of total order rest of pool entries at index <= last
        if rest == 0:
            yield None
        for i, g in enumerate(pool[:last + 1]):
            if g.n > rest:
                break
            for tail in unions(rest - g.n, i):
                yield g if tail is None else disjoint_union(g, tail)

    return list(unions(n, len(pool) - 1))


@pytest.mark.parametrize("n, count", [(4, 5), (6, 44), (8, 1229)])
def test_no_disconnected_graph_meets_a_hypothesis(n, count):
    # the batch tests no connectivity, because every threshold excludes
    # every disconnected graph by its measure alone (`_hypothesis_mask`).
    # Class counts: graphs less connected graphs (OEIS A000088 - A001349)
    gs = _disconnected_graphs(n)
    assert len(gs) == count and not any(is_connected(g) for g in gs)
    rows = np.array([g.adj for g in gs], dtype=np.min_scalar_type((1 << n) - 1))
    low = [graphs.min_degree(g) for g in gs]
    for t in theorems.statements(n, 3):
        threshold = theorems.hypothesis_threshold(t, n)
        statuses = [theorems.hypothesis_status(g, t) for g in gs]
        for min_deg in (None, 2):
            expected = [met and (min_deg is None or d >= min_deg)
                        for (met, _, _), d in zip(statuses, low)]
            assert theorems._hypothesis_mask(rows, t, min_deg).tolist() == expected, t
        # the lemma itself: connectivity granted, the measure still fails
        assert not any(theorems._meets(t, threshold, measured, True, d)
                       for (_, _, measured), d in zip(statuses, low)), t


def test_every_threshold_excludes_disconnected_graphs_by_measure():
    # at each even n <= 62 and every k a statement covers, its threshold
    # clears the largest measure a disconnected graph can have: C(n-1, 2)
    # edges (t11), C(n-3, 2) + 3 at minimum degree 2 (t13), rho n - 2 (t14)
    # and rho n - 4 at minimum degree 2 (t16)
    gaps = []
    for n in range(4, 63, 2):
        for k in range(1, (n - 2) // 2 + 1):
            assert theorems.size_threshold_extendable(n, k) > comb(n - 1, 2)
            gaps.append(theorems.spectral_threshold_extendable(n, k) - (n - 2))
        if n >= 6:
            assert theorems.size_threshold_excludable(n) > comb(n - 3, 2) + 3
            gaps.append(theorems.spectral_threshold_excludable(n) - (n - 4))
    # far above the band a spectral batch leaves to the eigensolver
    assert min(gaps) > 1e-3 > theorems.SPECTRAL_TOL + theorems.PRUNE_MARGIN


def test_sweep_of_disconnected_graphs_matches_verdicts(tmp_path):
    # K7 u K1 has 21 edges and K5 u K3 minimum degree 2; K61 u K1 and
    # K59 u K3 are as close to t14 and t16 as a disconnected graph gets
    unions = {8: [(7, 1), (5, 3)], 62: [(61, 1), (59, 3)]}
    for n, sizes in unions.items():
        gs = [disjoint_union(complete_graph(a), complete_graph(b)) for a, b in sizes]
        path = tmp_path / f"disconnected_n{n}.g6"
        path.write_text("".join(to_graph6(g) + "\n" for g in gs))
        if n == 8:
            assert path.read_text().split() == ["G~~~w?", "G~{?GK"]
        for t in theorems.statements(n, 3):
            verdicts = [theorems.theorem_verdict(g, t) for g in gs]
            for min_deg in (None, 2):
                report = sweep_theorem(File(str(path)), t, min_degree=min_deg)
                kept = [v for g, v in zip(gs, verdicts)
                        if min_deg is None or graphs.min_degree(g) >= min_deg]
                assert report.hypothesis_count == sum(v.hypothesis_met for v in kept) == 0
                assert report.counterexamples == report.exceptions_found == ()


def test_hypothesis_counts_at_n8(by_order):
    _, _, rows = by_order[8]
    counts = [int(theorems._hypothesis_mask(rows, t, min_deg).sum())
              for t, min_deg in GOLDEN.values()]
    assert counts == [44, 812, 16, 334]


@pytest.mark.parametrize("t", SPECTRAL_TIES, ids=str)
def test_spectral_tie_band_holds_only_graphs_at_the_threshold(by_order, t):
    # the fixed band SPECTRAL_TOL decides nothing but exact ties: every other
    # graph is at least 1e-4 from the threshold, and a tied graph is the
    # attaining family or meets the conclusion (GUz~~{ is 1-extendable)
    tied = set()
    for n, (lines, gs, rows) in by_order.items():
        try:
            threshold = theorems.hypothesis_threshold(t, n)
        except ValueError:  # order outside the statement's range
            continue
        adj = np.array([spectral.adjacency_matrix(g) for g in gs])
        gap = np.abs(np.linalg.eigvalsh(adj)[:, -1] - threshold)
        near = gap < 1e-6
        assert gap[~near].min() >= 1e-4 > theorems.SPECTRAL_TOL
        for i in np.flatnonzero(near):
            v = theorems.theorem_verdict(gs[i], t)
            assert v.hypothesis_met and (
                v.conclusion_met or v.recognized == theorems.exception_candidates(t, n)[0])
            tied.add(lines[i])
    assert tied == SPECTRAL_TIES[t]


def _record_eigensolves(monkeypatch) -> list[str]:
    """The graph6 strings of the graphs `spectral._radii` is given, from now on."""
    solved = []
    radii = spectral._radii

    def recording(rows):
        solved.extend(to_graph6(Graph(rows.shape[1], tuple(row))) for row in rows.tolist())
        return radii(rows)

    monkeypatch.setattr(spectral, "_radii", recording)
    return solved


@pytest.mark.parametrize("t, min_deg", SPECTRAL_CASES,
                         ids=[f"{t}-{min_deg}" for t, min_deg in SPECTRAL_CASES])
def test_bracket_matches_the_unpruned_eigensolver(by_order, monkeypatch, t, min_deg):
    # the bound and the bracket decide every graph the eigensolver would
    # decide alike, and leave to it only the graphs tied with the threshold
    solved = _record_eigensolves(monkeypatch)
    for _, gs, rows in by_order.values():
        try:
            expected = spectral_mask_reference(gs, t, min_deg)
        except ValueError:  # order outside the statement's range
            continue
        assert theorems._hypothesis_mask(rows, t, min_deg).tolist() == expected
    assert sorted(solved) == sorted(BRACKET_TIES[t])


@pytest.mark.parametrize("t", [TheoremId("t14", 1), TheoremId("t16")], ids=str)
def test_bracket_near_the_threshold_at_large_orders(monkeypatch, t):
    # the attaining exception has rho equal to the threshold, so it is met
    # and only the eigensolver can tell; deleting one edge drops rho below
    # it.  Edges with the same pair of end degrees lie in one orbit of
    # these families, so one edge of each pair is deleted.
    solved = _record_eigensolves(monkeypatch)
    for n in range(10, 63, 2):
        (family, params), = theorems.exception_candidates(t, n)
        g = families.build_named(family, **params)
        ends = {tuple(sorted((g.degree(u), g.degree(v)))): (u, v) for u, v in g.edges()}
        batch = [g] + [from_edge_list(n, [e for e in g.edges() if e != uv])
                       for uv in ends.values()]
        rows = np.array([h.adj for h in batch], dtype=np.min_scalar_type((1 << n) - 1))
        mask = theorems._hypothesis_mask(rows, t).tolist()
        assert mask == [theorems.hypothesis_status(h, t)[0] for h in batch]
        assert mask[0] and not any(mask[1:]), n
        assert to_graph6(g) in solved, n


def test_bracket_walk_counts_stay_below_2_to_the_53():
    # K_n has the most walks of any order-n graph: (A + I)^p 1 is n^p.  Every
    # x and y the bracket forms at n = 62 is an exact float64 integer, and
    # one more pass would not be
    n = 62
    x = [n] * n  # (A + I) 1
    for _ in range(theorems._bracket_passes(n)):
        y = [sum(x) - v for v in x]
        x = [v + w for v, w in zip(x, y)]
        assert max(x) < 1 << 53
    assert theorems._bracket_passes(n) == 7 and n * max(x) >= 1 << 53
    assert theorems._bracket_passes(8) == 16


@pytest.mark.parametrize("p", [1, 2, 3])
def test_bracket_closes_on_bipartite_graphs(p):
    # iterating A alone, the bounds of a bipartite graph swing between its
    # two sides for ever; with A + I they close on rho
    g = from_edge_list(8, [(u, v) for u in range(p) for v in range(p, 8)])
    rho = spectral.spectral_radius(g).rho
    rows = np.array([g.adj], dtype=np.uint8)
    upper = theorems._radius_bracket(rows, rho + 0.01)[0]  # not met
    lower = theorems._radius_bracket(rows, rho - 0.01)[0]  # met
    assert rho <= upper < rho + 0.01 - theorems.PRUNE_MARGIN
    assert rho - 0.01 + theorems.PRUNE_MARGIN <= lower <= rho


@pytest.mark.parametrize("t", THEOREMS, ids=str)
def test_sweep_matches_per_graph_verdicts(by_order, n8_fixture_path, t):
    # a sweep and `theorem_verdict` share the conclusion and exception
    # helpers; both routes must agree end to end on every graph
    sources = {4: BuiltIn(4), 6: BuiltIn(6), 8: File(n8_fixture_path)}
    for n, (_, gs, _) in by_order.items():
        source = sources[n]
        try:
            met = [(g6, g) for g6, g in zip(source_graph6_lines(source), gs)
                   if theorems.hypothesis_status(g, t)[0]]
        except ValueError as exc:  # order outside the statement's range
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                sweep_theorem(source, t)
            continue
        verdicts = [(g6, theorems.theorem_verdict(g, t)) for g6, g in met]
        assert all(v.hypothesis_met for _, v in verdicts)
        failing = sorted((g6, v.recognized) for g6, v in verdicts
                         if not v.conclusion_met)
        report = sweep_theorem(source, t)
        assert report.hypothesis_count == len(met)
        assert [(g6, (fam, params) if fam else None)
                for g6, fam, params in report.exceptions_found] == failing
        assert report.counterexamples == tuple(g6 for g6, rec in failing if rec is None)


def test_sweep_takes_lines_with_the_graph6_header(tmp_path):
    # File drops the prefix, so the reports name the graphs without it
    lines = source_graph6_lines(BuiltIn(6))
    path = tmp_path / "header.g6"
    path.write_text("".join(f">>graph6<<{ln}\n" if i % 3 else f"{ln}\n"
                            for i, ln in enumerate(lines)))
    plain = sweep_theorem(BuiltIn(6), TheoremId("t13"), min_degree=2)
    headed = sweep_theorem(File(str(path)), TheoremId("t13"), min_degree=2)
    assert headed.graphs_scanned == plain.graphs_scanned == len(lines)
    assert headed.hypothesis_count == plain.hypothesis_count > 0
    assert headed.exceptions_found == plain.exceptions_found


def test_reports_match_golden_for_any_chunk_size(tmp_path, monkeypatch, n8_fixture_path):
    # the golden reports name the fixture by the benchmark's relative path
    monkeypatch.chdir(tmp_path)
    os.mkdir(".perfbench_work")
    shutil.copy(n8_fixture_path, os.path.join(".perfbench_work", "connected_n8.g6"))
    source = File(os.path.join(".perfbench_work", "connected_n8.g6"))
    for name, (t, min_deg) in GOLDEN.items():
        with open(os.path.join(GOLDEN_DIR, f"sweep-{name}.json")) as fh:
            golden = fh.read()
        for chunk_size in (1024, 1500):  # lines of order 8 per chunk
            monkeypatch.setattr(graphs, "SOURCE_ENTRIES", chunk_size * 8)
            report = sweep_theorem(source, t, min_degree=min_deg)
            assert report.to_json(include_timing=False) == golden
    for t in (TheoremId("t11", 2), TheoremId("t14", 2)):
        texts = []
        for chunk_size in (1024, 1500):
            monkeypatch.setattr(graphs, "SOURCE_ENTRIES", chunk_size * 8)
            texts.append(sweep_theorem(source, t).to_json(include_timing=False))
        assert texts[0] == texts[1]


def test_reports_match_golden_on_either_read_path(tmp_path, monkeypatch,
                                                  n8_fixture_variants):
    # every copy has cells, from its bytes or from its lines; each sits at
    # the benchmark's path, so its reports are the golden ones byte for
    # byte, source included
    monkeypatch.chdir(tmp_path)
    os.mkdir(".perfbench_work")
    path = os.path.join(".perfbench_work", "connected_n8.g6")
    for name, data in n8_fixture_variants.items():
        with open(path, "wb") as fh:
            fh.write(data)
        source = File(path)
        assert source.graph6_cells is not None, name
        for golden, (t, min_deg) in GOLDEN.items():
            with open(os.path.join(GOLDEN_DIR, f"sweep-{golden}.json")) as fh:
                expected = fh.read()
            report = sweep_theorem(source, t, min_degree=min_deg)
            assert report.to_json(include_timing=False) == expected, (name, golden)


def test_conclusion_certificate_is_sound(by_order):
    # every graph the batch certifies meets the conclusion by the direct
    # route; the counts of graphs that meet it are observed data, and the
    # certificate leaves none of them open at n = 6 and 8 (t13 and t16 do
    # not cover n = 4, so nothing is certified there)
    k2 = source_graph6_lines(BuiltIn(2))
    orders = {2: (k2, graphs._decode_cells(_cells(k2), 2)[0]),
              **{n: (lines, rows) for n, (lines, _, rows) in by_order.items()}}
    counts = {}
    for n, (lines, rows) in orders.items():
        gs = [parse_graph6(line) for line in lines]
        for t in CERTIFIED:
            certified = theorems._conclusion_mask(rows, t)
            holds = np.array([theorems.conclusion_holds(g, t) for g in gs])
            assert not (certified & ~holds).any(), (n, t)
            counts[n, str(t)] = (int(holds.sum()), int((holds & ~certified).sum()))
    assert counts == {
        (2, "t11(k=1)"): (0, 0), (2, "t14(k=1)"): (0, 0), (2, "t13"): (0, 0), (2, "t16"): (0, 0),
        (4, "t11(k=1)"): (2, 0), (4, "t14(k=1)"): (2, 0), (4, "t13"): (3, 3), (4, "t16"): (3, 3),
        (6, "t11(k=1)"): (24, 0), (6, "t14(k=1)"): (24, 0), (6, "t13"): (48, 0),
        (6, "t16"): (48, 0), (8, "t11(k=1)"): (3144, 0), (8, "t14(k=1)"): (3144, 0),
        (8, "t13"): (6505, 0), (8, "t16"): (6505, 0)}


def test_conclusion_certificate_stays_off_orders_and_k_it_does_not_cover(by_order):
    # K2 minus its edge's ends is empty, so the inverse alone would pass it,
    # but 1-extendability needs 4 vertices; k >= 2 is never certified
    k2 = np.array([complete_graph(2).adj], dtype=np.uint8)
    assert matching._tutte_certified(k2, excludable=False).all()
    assert not theorems._conclusion_mask(k2, TheoremId("t11", 1)).any()
    _, _, rows = by_order[8]
    for t in (TheoremId("t11", 2), TheoremId("t14", 3)):
        assert not theorems._conclusion_mask(rows, t).any()


def _near_complete(rng: random.Random, n: int, most: int | None = None):
    """A connected graph: K_n less fewer than `most` edges (3n by default)
    drawn at random."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        drop = set(rng.sample(range(len(pairs)), rng.randrange(most or 3 * n)))
        g = from_edge_list(n, [e for i, e in enumerate(pairs) if i not in drop])
        if is_connected(g):
            return g


def _relabelled(g, rng: random.Random):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@pytest.mark.parametrize("n, count, most, t, min_deg, family", [
    (62, 150, None, TheoremId("t13"), 2, ("thm13-f3", {"n": 62})),
    (40, 50, None, TheoremId("t11", 1), None, ("thm11-exc1", {"n": 40, "k": 1})),
    (62, 150, 62, TheoremId("t14", 1), None, ("thm11-exc1", {"n": 62, "k": 1})),
    (62, 150, 124, TheoremId("t16"), 2, ("thm13-f3", {"n": 62})),
], ids=["t13-n62", "t11-n40", "t14-n62", "t16-n62"])
def test_sweep_at_large_order_matches_verdicts_in_bounded_memory(monkeypatch, tmp_path, n,
                                                                 count, most, t, min_deg,
                                                                 family):
    # dense graphs, about half or more of which meet the hypothesis, and a
    # relabelled listed exception, each line three times, in one chunk: the
    # certificate eliminates at most max(1, SOURCE_ENTRIES // 4n^2) graphs
    # at once, where the 95 met graphs of t13 at once would peak at about
    # 22 MB, and the bracket expands at most max(1, SOURCE_ENTRIES // n^2)
    # at once, where the 234 or 252 of t14 or t16 at once would peak at
    # about 15 MB
    rng = random.Random(n)
    gs = [_near_complete(rng, n, most) for _ in range(count)]
    gs.append(_relabelled(families.build_named(family[0], **family[1]), rng))
    path = tmp_path / f"n{n}.g6"
    path.write_text("".join(to_graph6(g) + "\n" for g in gs) * 3)
    bracketed = []
    bracket = theorems._radius_bracket

    def recording(rows, floor):
        bracketed.append(len(rows))
        return bracket(rows, floor)

    monkeypatch.setattr(theorems, "_radius_bracket", recording)
    tracemalloc.start()
    try:
        report = sweep_theorem(File(str(path)), t, min_degree=min_deg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 << 20
    assert t.uses_size or max(bracketed) > max(1, graphs.SOURCE_ENTRIES // (n * n))
    # the same report from one batch per kernel
    monkeypatch.setattr(graphs, "SOURCE_ENTRIES", n * n * 3 * len(gs))
    whole = sweep_theorem(File(str(path)), t, min_degree=min_deg)
    assert whole.to_json(include_timing=False) == report.to_json(include_timing=False)
    kept = [g for g in gs if min_deg is None or graphs.min_degree(g) >= min_deg]
    verdicts = [(to_graph6(g), theorems.theorem_verdict(g, t)) for g in kept]
    failing = sorted((g6, v.recognized) for g6, v in verdicts
                     if v.hypothesis_met and not v.conclusion_met)
    met = sum(v.hypothesis_met for _, v in verdicts)
    assert report.hypothesis_count == 3 * met and met > count // 4
    assert [(g6, (fam, params) if fam else None)
            for g6, fam, params in report.exceptions_found] == sorted(failing * 3)
    assert [rec for _, rec in failing] == [family]
    assert report.counterexamples == ()


def test_sweep_at_large_order_builds_its_decode_state_in_bounded_memory(tmp_path):
    # the order-62 decode state is built inside the traced sweep, and counts
    # towards the same bound as the test above
    rng = random.Random(62)
    path = tmp_path / "n62.g6"
    path.write_text("".join(to_graph6(_near_complete(rng, 62)) + "\n" for _ in range(150)))
    graphs._graph6_tables.cache_clear()
    tracemalloc.start()
    try:
        report = sweep_theorem(File(str(path)), TheoremId("t13"), min_degree=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 << 20
    assert report.graphs_scanned == 150 and report.hypothesis_count > 0
