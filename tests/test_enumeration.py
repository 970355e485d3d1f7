import json
from itertools import permutations

import pytest

from matchspec.enumeration import (CONNECTED_GRAPH_COUNTS, BuiltIn, File,
                                   default_identity_grid, enumerate_connected,
                                   sweep_theorem, verify_charpoly_identities,
                                   verify_lemma)
from matchspec.graphs import (all_pairs, are_isomorphic, is_connected,
                              parse_graph6, to_graph6)
from matchspec.theorems import TheoremId
from matchspec import enumeration


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


def test_builtin_source():
    assert len(BuiltIn(6).graph6_lines()) == 112


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


def test_sweep_deterministic_across_jobs():
    serial = sweep_theorem(BuiltIn(6), TheoremId("t11", 1), jobs=1, chunk_size=8)
    parallel = sweep_theorem(BuiltIn(6), TheoremId("t11", 1), jobs=2, chunk_size=8)
    assert serial.to_json(include_timing=False) == parallel.to_json(include_timing=False)


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
