import hashlib
import json
import random
import tracemalloc
from itertools import permutations
from math import prod

import numpy as np
import pytest

from matchspec.enumeration import (BuiltIn, File, decode_lines, default_identity_grid,
                                   enumerate_connected, sweep_theorem,
                                   verify_charpoly_identities, verify_lemma)
from matchspec.graphs import (Graph, all_pairs, are_isomorphic, complete_graph,
                              from_edge_list, graph6_text, is_connected, parse_graph6,
                              to_graph6)
from matchspec.matching import has_perfect_matching
from matchspec.spectral import spectral_radius
from matchspec.theorems import TheoremId
from matchspec import enumeration, graphs, spectral

from oracles import (CONNECTED_GRAPH_COUNTS, decode_lines_reference,
                     graphs_without_pm_reference, perfect_matchings_reference,
                     source_graph6_lines)


# --- built-in enumeration ---------------------------------------------------

def test_connected_counts():
    for n, count in CONNECTED_GRAPH_COUNTS.items():
        got = enumerate_connected(n)
        assert len(got) == count, n
        assert all(g.n == n and is_connected(g) for g in got)
        assert len({to_graph6(g) for g in got}) == count


def test_enumeration_pairwise_non_isomorphic():
    for n in (3, 4, 5):
        reps = enumerate_connected(n)
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                assert not are_isomorphic(a, b)


def test_representatives_are_min_bitstrings():
    # each representative's edge bit-string is minimal over all relabelings
    pairs = all_pairs(5)
    slot = {p: i for i, p in enumerate(pairs)}
    for g in enumerate_connected(5):
        mask = 0
        for u, v in g.edges():
            mask |= 1 << slot[(u, v)]
        for perm in permutations(range(5)):
            relabeled = 0
            for u, v in g.edges():
                a, b = sorted((perm[u], perm[v]))
                relabeled |= 1 << slot[(a, b)]
            assert relabeled >= mask


def test_representatives_are_orbit_minima_n_le_7():
    # weight[a, b] = 2^slot(a, b), graph6 slot j(j-1)/2 + i of i < j, zero on
    # the diagonal; half of sum(A * weight[p][:, p]) is the bit-string of the
    # graph relabeled by p (v -> p[v]), for every one of the n! permutations
    for n in range(2, 8):
        labels = np.arange(n)
        i, j = np.minimum.outer(labels, labels), np.maximum.outer(labels, labels)
        weight = np.where(i == j, 0.0, 2.0 ** (j * (j - 1) // 2 + i))
        perms = np.array(list(permutations(range(n))))
        relabel = weight[perms[:, :, None], perms[:, None, :]].reshape(len(perms), -1)
        reps = enumerate_connected(n)
        adj = np.array([[[g.adj[u] >> v & 1 for v in range(n)] for u in range(n)]
                        for g in reps], dtype=float).reshape(len(reps), -1)
        bits = (adj @ weight.ravel() / 2).astype(np.int64)
        minima = np.concatenate([(block @ relabel.T / 2).min(axis=1)
                                 for block in np.array_split(adj, -(-len(reps) // 64))])
        assert np.array_equal(minima.astype(np.int64), bits), n
        assert len(set(bits.tolist())) == len(reps) == CONNECTED_GRAPH_COUNTS[n], n


# sha256 of the newline-joined graph6 lines of enumerate_connected(n)
ENUMERATION_DIGESTS = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f",
    3: "ff300d6b5191490a6a2d507279c750a00c4d53fb98b6e1b3e8b59ef7894631ec",
    4: "eb3044c0e6b719df19467100993dfd0583066994461626084eb3e46eeb29efe6",
    5: "bad40746036227cbfdceea3e505f039a6eb2972939b9a2c507f14c088f3ea56e",
    6: "c727f559e01cb751f9f685b87dea4ce7ba7c7771420f2db80467b8399d689317",
    7: "b6b2dbb7f539a6e2c86548111920a3ab24e409b4c32f603d87b444536be4c463",
}


def test_enumeration_output_is_pinned():
    # the n <= 7 reports take their bytes from these lists, in this order
    for n, digest in ENUMERATION_DIGESTS.items():
        text = "\n".join(to_graph6(g) for g in enumerate_connected(n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, n


def test_enumeration_memory_at_n7():
    # a cold sieve keeps one bool per labeled graph (2 MiB), not a row table
    enumerate_connected.cache_clear()
    tracemalloc.start()
    try:
        assert len(enumerate_connected(7)) == CONNECTED_GRAPH_COUNTS[7]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * (1 << 20)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_connected(8)
    with pytest.raises(ValueError):
        enumerate_connected(0)


# --- sources ----------------------------------------------------------------

def test_file_source(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("# a comment\nC~\n\nCl\n")
    lines = File(str(path)).graph6_lines()
    assert lines == ["C~", "Cl"]
    assert parse_graph6(lines[0]).m == 6


def test_file_source_reads_once_and_hands_out_copies(tmp_path, monkeypatch):
    path = tmp_path / "graphs.g6"
    path.write_text(">>graph6<<\n# a comment\n>>graph6<<C~\n\nCl\n")
    source = File(str(path))
    reads = []
    opened = open

    def counted(*args, **kwargs):
        reads.append(args[0])
        return opened(*args, **kwargs)

    monkeypatch.setattr("builtins.open", counted)
    lines = source.graph6_lines()
    assert lines == ["C~", "Cl"]
    lines.clear()
    assert source.graph6_lines() == ["C~", "Cl"]
    assert [source.line_number(i) for i in (0, 1)] == [3, 5]
    assert reads == [str(path)]


def test_decode_lines_matches_the_per_line_loop():
    # random byte strings of ASCII, multi-byte characters whole and cut,
    # 0xff, lone continuation bytes, CR, FF and newlines, often without a
    # final newline: the same lines, or the same `where:K:` message
    rng = random.Random(22)
    pieces = [b"C~", b"Cl", b"\n", b"\n", b"\r", b"\f", b" ", b"#", b"\xff", b"\x80",
              b"\xbf", "\xe9".encode(), "\u20ac".encode(), "\U0001f600".encode(),
              "\u20ac".encode()[:2], "\U0001f600".encode()[:3], b"\xed\xa0\x80", b"\x00"]
    outcomes = set()
    for _ in range(3000):
        data = b"".join(rng.choice(pieces) for _ in range(rng.randrange(10)))
        if rng.random() < 0.2:
            data += bytes(rng.randrange(256) for _ in range(rng.randrange(4)))
        try:
            expected = decode_lines_reference(data, "f")
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                decode_lines(data, "f")
            assert str(err.value) == str(exc), data
            outcomes.add("error")
        else:
            assert decode_lines(data, "f") == expected, data
            outcomes.add("lines")
    assert outcomes == {"error", "lines"}


@pytest.mark.parametrize("data", [
    b"C~\r\nCl\r\n", b"C~\r\n\r\n  Cl \r\n\n", b"C~\nCl", b"# comment\r\nC~\r\n#\r\nCl\r\n",
    b">>graph6<<C~\r\n>>graph6<<\r\nCl\r\n", b" >>graph6<<C~\n\t#x\n\n>>graph6<<",
    b"C~ # not a comment\r\n", "\x85C~\u2028\n".encode(), b"\r\n\r\n",
])
def test_file_lines_equal_graph6_text_of_every_line(tmp_path, data):
    # File strips every line and applies the comment and header rule
    path = tmp_path / "lines.g6"
    path.write_bytes(data)
    source = File(str(path))
    assert source._lines == list(map(graph6_text, decode_lines_reference(data, "f")))


@pytest.mark.parametrize("data, width", [
    (b"C~\nCl\n", 2), (b"C~\nCl", 2), (b"E?Bw\n", 4), (b"?", 1),
    (b"C~\r\nCl\r\n", None), (b"C~\n\nCl\n", None), (b"C~\nE~~?\n", None),
    (b"C~\nCl\n\n", None), (b"# c\nC~\n", None), (b">>graph6<<C~\n", None),
    (b" C~\n", None), (b"C~\nC\x7f\n", None), (b"C~\nC\xc3\xa9\n", None),
    (b"C~\nC>\n", None), (b"", None), (b"\n", None),
])
def test_file_cells_are_its_lines_when_they_have_one_width(tmp_path, monkeypatch,
                                                          data, width):
    # a file whose lines are all `width` characters 63..126, each ended by a
    # newline but perhaps the last, is viewed from its bytes, never read as
    # lines; any other has the cells of its graph6 lines, unless those
    # differ in width or hold another character, or are none
    path = tmp_path / "lines.g6"
    path.write_bytes(data)
    source = File(str(path))
    if width is not None:
        monkeypatch.setattr(enumeration, "decode_lines", _refuse_lines)
    cells = source.graph6_cells
    monkeypatch.undo()
    if data in (b"C~\nE~~?\n", b"C~\nC\x7f\n", b"C~\nC\xc3\xa9\n", b"C~\nC>\n", b"", b"\n"):
        assert cells is None
    else:
        assert width is None or cells.shape[1] == width
        assert cells.dtype == np.uint8 and not cells.flags.writeable
        assert [row.tobytes().decode() for row in cells] == source.graph6_lines()


def _refuse_lines(data, where):
    raise AssertionError(f"{where} was read as lines")


def test_a_one_width_file_is_swept_from_its_bytes(monkeypatch, n8_fixture_path):
    # the lines-as-text reader is never reached, for a sweep or the l2.9
    # and l2.10 suites, and the reports are those it would give
    expected = [sweep_theorem(File(n8_fixture_path), TheoremId("t13"), min_degree=2),
                verify_lemma("l2.9", n_values=(8,), sources={8: File(n8_fixture_path)})]
    monkeypatch.setattr(enumeration, "decode_lines", _refuse_lines)
    got = [sweep_theorem(File(n8_fixture_path), TheoremId("t13"), min_degree=2),
           verify_lemma("l2.9", n_values=(8,), sources={8: File(n8_fixture_path)})]
    assert [r.to_json(include_timing=False) for r in got] == [
        r.to_json(include_timing=False) for r in expected]
    assert got[0].hypothesis_count == 812


def test_a_file_read_as_lines_is_decoded_from_uint8_cells(tmp_path, monkeypatch,
                                                          n8_fixture_variants):
    # its graph6 lines are joined into bytes first, so the one batch decoder
    # sees only uint8 cells
    decode, dtypes = graphs._decode_cells, []
    monkeypatch.setattr(graphs, "_decode_cells",
                        lambda cells, *rest: dtypes.append(cells.dtype) or decode(cells, *rest))
    for name in ("crlf", "comment"):
        path = tmp_path / f"{name}.g6"
        path.write_bytes(n8_fixture_variants[name])
        report = sweep_theorem(File(str(path)), TheoremId("t13"), min_degree=2)
        assert (report.graphs_scanned, report.hypothesis_count) == (11117, 812)
    assert dtypes and set(dtypes) == {np.dtype(np.uint8)}


def test_a_one_width_file_of_another_order_fails_at_its_first_line(n8_fixture_path):
    # the suite asks for order 6, whose lines are 4 characters; the file's
    # are 6, so every line fails and the first is named
    with pytest.raises(ValueError) as err:
        verify_lemma("l2.9", n_values=(4, 6), sources={6: File(n8_fixture_path)})
    assert str(err.value) == (f"file:{n8_fixture_path}:1: mixed vertex counts in source: "
                              "expected n=6, found n=8 in 'G???F{'")


def test_builtin_source():
    assert len(next(BuiltIn(6).row_chunks("sweeps"))) == 112


def test_builtin_rows_are_the_decoded_rows_of_its_graph6_lines():
    # the built-in source hands out the enumerator's rows as they are; they
    # are the rows the decoder reads from their graph6 lines, in the same
    # order and dtype, so a sweep names each graph as a file of those lines would
    for n in range(1, 8):
        lines = source_graph6_lines(BuiltIn(n))
        decoded, bad = graphs._decode_cells(graphs._graph6_cells("\n".join(lines).encode()), n)
        assert bad.size == 0 and len(decoded) == CONNECTED_GRAPH_COUNTS[n]
        if n % 2:
            with pytest.raises(ValueError, match=f"^builtin:n={n}: sweeps need even n, got n={n}$"):
                next(BuiltIn(n).row_chunks("sweeps"))
            chunks = [graphs._rows(n, [g.adj for g in enumerate_connected(n)])]
        else:
            chunks = list(BuiltIn(n).row_chunks("sweeps"))
        assert len(chunks) == 1 and chunks[0].dtype == decoded.dtype, n
        assert np.array_equal(chunks[0], decoded), n


def test_each_line_of_a_file_is_the_graph6_of_its_rows(tmp_path, n8_fixture_variants):
    # a line the decoder accepts is the one graph6 encoding of its rows, so
    # a sweep names a graph by `to_graph6` of its row and gets the line back
    path = tmp_path / "copy.g6"
    for name, data in n8_fixture_variants.items():
        path.write_bytes(data)
        source = File(str(path))
        rows = np.concatenate(list(source.row_chunks("sweeps")))
        assert [to_graph6(Graph(8, tuple(row))) for row in rows.tolist()] == \
            source.graph6_lines(), name


# --- the deficiency suites' perfect-matching filter ------------------------

def test_perfect_matching_filter_agrees_with_blossom(n8_fixture_path):
    # covered iff blossom finds a perfect matching; odd orders are never covered
    batches = [enumerate_connected(n) for n in range(1, 8)]
    batches.append([parse_graph6(line)
                    for line in File(n8_fixture_path).graph6_lines()])
    for batch in batches:
        rows = np.array([g.adj for g in batch], dtype=np.uint8)
        covered = enumeration._covered_by_perfect_matching(rows)
        assert covered.tolist() == [has_perfect_matching(g) for g in batch]


def test_complete_perfect_matchings_are_every_pairing_once():
    for n in range(1, 13):
        pairs = enumeration._complete_perfect_matchings(n)
        assert not pairs.flags.writeable
        rows = pairs.tolist()
        found = {frozenset(map(tuple, row)) for row in rows}
        count = prod(range(n - 1, 0, -2)) if n % 2 == 0 else 0  # (n-1)!!
        assert len(found) == len(rows) == count, n
        assert all(sorted(sum(row, [])) == list(range(n)) for row in rows), n
        assert found == perfect_matchings_reference(n), n


def test_graphs_without_pm_match_the_blossom_loop(n8_fixture_path):
    for n, source in ((4, BuiltIn(4)), (6, BuiltIn(6)), (8, File(n8_fixture_path))):
        rows = enumeration._graphs_without_pm(source, n)
        got = [to_graph6(Graph(n, tuple(row))) for row in rows.tolist()]
        assert got == graphs_without_pm_reference(source_graph6_lines(source))
        assert got, n


def test_batched_radii_equal_spectral_radius(n8_fixture_path):
    # l2.10 takes rho from one eigh over its qualifying graphs; its report's
    # max_equality_gap needs each value bit for bit, not to a tolerance
    for n, source in ((4, BuiltIn(4)), (6, BuiltIn(6)), (8, File(n8_fixture_path))):
        rows = enumeration._graphs_without_pm(source, n)
        lines = [to_graph6(Graph(n, tuple(row))) for row in rows.tolist()]
        radii = spectral._radii(rows).tolist()
        assert radii == [spectral_radius(parse_graph6(line)).rho for line in lines] != []


def test_graphs_without_pm_gather_in_bounded_memory(tmp_path):
    # at n = 12 the filter gathers 10395 * 6 entries per graph, a 22 MB peak
    # for these 301 graphs at once; the star has no perfect matching
    rng = random.Random(12)
    gs = [enumeration._random_connected(rng, 12) for _ in range(300)]
    gs.append(from_edge_list(12, [(0, v) for v in range(1, 12)]))
    path = tmp_path / "n12.g6"
    path.write_text("".join(to_graph6(g) + "\n" for g in gs))
    enumeration._complete_perfect_matchings(12)  # cached, not counted
    tracemalloc.start()
    try:
        rows = enumeration._graphs_without_pm(File(str(path)), 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20
    got = [to_graph6(Graph(12, tuple(row))) for row in rows.tolist()]
    lines = File(str(path)).graph6_lines()
    assert got == graphs_without_pm_reference(lines) != []


# --- sweeps -----------------------------------------------------------------

def test_sweep_t11_n6():
    report = sweep_theorem(BuiltIn(6), TheoremId("t11", 1))
    assert report.graphs_scanned == 112
    assert report.counterexamples == ()
    assert len(report.exceptions_found) == 2
    assert sorted(e[1] for e in report.exceptions_found) == ["thm11-exc1",
                                                             "thm11-exc2"]
    for g6, fam, params in report.exceptions_found:
        assert parse_graph6(g6).m == 12


def test_sweep_t13_t16_n6():
    r13 = sweep_theorem(BuiltIn(6), TheoremId("t13"), min_degree=2)
    assert r13.counterexamples == ()
    assert [e[1] for e in r13.exceptions_found] == ["thm13-f1"]
    assert parse_graph6(r13.exceptions_found[0][0]).m == 10
    r16 = sweep_theorem(BuiltIn(6), TheoremId("t16"), min_degree=2)
    assert [e[1] for e in r16.exceptions_found] == ["thm13-f1"]


def test_sweep_t14_n6():
    report = sweep_theorem(BuiltIn(6), TheoremId("t14", 1))
    assert report.counterexamples == ()
    assert [e[1] for e in report.exceptions_found] == ["thm11-exc1"]


def test_sweep_errors(tmp_path):
    with pytest.raises(ValueError):
        sweep_theorem(BuiltIn(5), TheoremId("t11", 1))  # odd order
    mixed = tmp_path / "mixed.g6"
    mixed.write_text("C~\nE~~?\n")
    with pytest.raises(ValueError, match="mixed"):
        sweep_theorem(File(str(mixed)), TheoremId("t11", 1))
    empty = tmp_path / "empty.g6"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="empty"):
        sweep_theorem(File(str(empty)), TheoremId("t11", 1))


def test_sweep_refuses_an_uncovered_order_whatever_min_degree_keeps(n8_fixture_path):
    # no graph of order 8 has minimum degree 9, so the batch is empty, but
    # t11(k=5) says nothing about n = 8
    for t in (TheoremId("t11", 5), TheoremId("t14", 5)):
        for min_degree in (None, 9):
            with pytest.raises(ValueError, match="need even n >= 2k\\+2, got n=8, k=5"):
                sweep_theorem(File(n8_fixture_path), t, min_degree=min_degree)
    report = sweep_theorem(File(n8_fixture_path), TheoremId("t16"), min_degree=9)
    assert (report.graphs_scanned, report.hypothesis_count) == (11117, 0)


def test_default_chunk_holds_at_most_the_entry_budget(tmp_path, n8_fixture_path):
    for n in range(2, 63):
        # a chunk: as many lines as the budget holds bytes of their rows,
        # one at least; a matrix kernel: as many graphs as it holds entries
        rows, line = enumeration._chunk_rows(n), n * np.min_scalar_type((1 << n) - 1).itemsize
        assert 1 <= rows and rows * line <= graphs.SOURCE_ENTRIES < (rows + 1) * line, n
        matrices = max(1, graphs.SOURCE_ENTRIES // (n * n))
        assert 1 <= matrices and matrices * n * n <= graphs.SOURCE_ENTRIES < (matrices + 1) * n * n, n
    # a source read with the default: the n = 8 fixture is one chunk (32768
    # lines at most), and so are 69 lines at n = 62 (528 at most)
    chunks = File(n8_fixture_path).row_chunks("sweeps")
    assert [rows.shape for rows in chunks] == [(11117, 8)]
    path = tmp_path / "k62.g6"
    path.write_text((to_graph6(complete_graph(62)) + "\n") * 69)
    chunks = File(str(path)).row_chunks("sweeps")
    assert [rows.shape for rows in chunks] == [(69, 62)]


def test_sweep_report_independent_of_chunk_size(monkeypatch):
    reports = []
    for size in (1024, 8):  # lines of order 6 per chunk
        monkeypatch.setattr(graphs, "SOURCE_ENTRIES", size * 6)
        reports.append(sweep_theorem(BuiltIn(6), TheoremId("t11", 1)))
    whole, chunked = (r.to_json(include_timing=False) for r in reports)
    assert whole == chunked


def test_sweep_json_and_csv_shape():
    report = sweep_theorem(BuiltIn(6), TheoremId("t13"), min_degree=2)
    doc = json.loads(report.to_json())
    assert doc["schema"] == enumeration.SWEEP_SCHEMA
    assert doc["graphs_scanned"] == 112
    assert doc["exceptions_found"][0]["family"] == "thm13-f1"
    rows = report.csv_rows()
    assert rows[0] == ["graph6", "status", "family", "params"]
    assert any(r[1] == "exception" for r in rows[1:])


# --- lemma suites -----------------------------------------------------------

@pytest.mark.parametrize("lemma", ["l2.1", "l2.2", "l2.4", "l2.5", "l2.8",
                                   "l2.9", "l2.10", "l2.11"])
def test_lemma_suites_pass(lemma):
    report = verify_lemma(lemma)
    assert report.ok, report.violations
    assert report.instances > 0


def test_lemma_unknown():
    with pytest.raises(ValueError):
        verify_lemma("l9.9")


def test_lemma_options_thread_through():
    report = verify_lemma("l2.1", trials=25, seed=7)
    assert report.instances == 25 and report.ok
    report = verify_lemma("l2.11", l_values=(6, 8))
    assert report.ok
    report = verify_lemma("l2.4", n_values=(6, 8))
    assert report.ok


def test_lemma_refuses_a_source_the_grid_leaves_out(n8_fixture_path, monkeypatch):
    read = []
    monkeypatch.setattr(File, "graph6_lines", lambda self: read.append(self) or [])
    for lemma in ("l2.9", "l2.10"):
        with pytest.raises(ValueError) as err:
            verify_lemma(lemma, n_values=(4, 6), sources={8: File(n8_fixture_path)})
        assert str(err.value) == (
            f"file:{n8_fixture_path} holds graphs of order 8, which the grid "
            f"leaves out (its orders: 4, 6)")
    assert read == []  # refused before any source is read


def test_deficiency_suites_name_each_violating_graph_by_its_line(n8_fixture_path, monkeypatch):
    # with the bounds below every qualifying graph, the violations are the
    # reference graphs without a perfect matching, each named by its line
    sources = {8: File(n8_fixture_path)}
    grid = {n: graphs_without_pm_reference(source_graph6_lines(source))
            for n, source in ((4, BuiltIn(4)), (6, BuiltIn(6)), (8, sources[8]))}
    monkeypatch.setattr(enumeration, "_no_pm_size_bound", lambda n: 0)
    report = verify_lemma("l2.9", n_values=(4, 6, 8), sources=sources)
    assert report.violations == tuple(f"n={n}: {line} has m={parse_graph6(line).m} > bound 0"
                                      for n, lines in grid.items() for line in lines)
    real = enumeration.families._quotient_root
    monkeypatch.setattr(enumeration.families, "_quotient_root",
                        lambda spec: (real(spec)[0], -1.0))
    report = verify_lemma("l2.10", n_values=(4, 6, 8), sources=sources)
    named = [v for v in report.violations if "attaining family" not in v]
    assert named == [f"n={n}: {line} has rho={spectral_radius(parse_graph6(line)).rho} "
                     f"> bound -1.0" for n, lines in grid.items() for line in lines]
    assert len(report.violations) - len(named) == len(grid)  # one attaining family each


def test_lemma_report_json():
    doc = json.loads(verify_lemma("l2.9").to_json())
    assert doc["schema"] == enumeration.LEMMA_SCHEMA
    assert doc["violations"] == []


# --- characteristic polynomial identities -----------------------------------

def test_charpoly_identities_pass():
    report = verify_charpoly_identities()
    assert report.instances >= 20
    assert report.ok, report.violations
    assert report.max_equality_gap <= 1e-9


def test_charpoly_identity_grid_covers_all_displayed_formulas():
    names = {name for name, _ in default_identity_grid()}
    assert names == {"bridged", "bridged-q3", "thm11-exc1", "thm11-exc2",
                     "thm11-extremal", "hub-pendant-clique", "thm13-f3",
                     "w1", "thm13-fact3-split", "thm13-fact3-pendant", "w2"}


def test_charpoly_roots_are_compared_with_lemma_tol(monkeypatch):
    # a negative tolerance makes every quotient-root comparison a violation
    monkeypatch.setattr(enumeration, "LEMMA_TOL", -1.0)
    report = verify_charpoly_identities()
    assert report.instances > 0 and len(report.violations) == report.instances
    assert all("formula root" in v for v in report.violations)


def test_charpoly_mismatch_is_reported(monkeypatch):
    # a deliberately corrupted formula must surface verbatim, not pass silently
    import matchspec.enumeration as enum_mod
    real = enum_mod._IDENTITIES["thm13-f3"]

    def corrupted(**params):
        spec, coeffs = real(**params)
        return spec, tuple(c + 1 for c in coeffs)

    monkeypatch.setitem(enum_mod._IDENTITIES, "thm13-f3", corrupted)
    report = verify_charpoly_identities(grid=[("thm13-f3", {"n": 10})])
    assert not report.ok
    assert "thm13-f3" in report.violations[0]
    assert "!=" in report.violations[0]


def test_charpoly_identities_need_a_grid_point():
    with pytest.raises(ValueError, match="at least one grid point"):
        verify_charpoly_identities(grid=[])
