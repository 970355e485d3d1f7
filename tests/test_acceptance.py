"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here, not configured elsewhere.
"""

import math
import os
import time
from random import Random

import pytest

from matchspec import graphs
from matchspec.enumeration import (BuiltIn, File, enumerate_connected,
                                   sweep_theorem, verify_charpoly_identities,
                                   verify_lemma)
from matchspec.families import build, build_named, named_spec
from matchspec.graphs import (are_isomorphic, from_edge_list, is_connected,
                              min_degree, parse_graph6, to_graph6)
from matchspec.matching import (berge_tutte_deficiency, is_1_excludable,
                                is_1_excludable_criterion, is_k_extendable,
                                is_k_extendable_chen, matching_number)
from matchspec.spectral import spectral_radius, theta
from matchspec.theorems import TheoremId

SPECTRAL_TOL = 1e-9
CONSTANT_TOL = 5e-4


def report(num, ok, detail):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_t11_sweep_n6():
    r = sweep_theorem(BuiltIn(6), TheoremId("t11", 1))
    ok = (r.graphs_scanned == 112 and not r.counterexamples
          and len(r.exceptions_found) == 2)
    expected = [build_named("thm11-exc1", n=6, k=1), build_named("thm11-exc2", k=1)]
    found = [parse_graph6(g6) for g6, _, _ in r.exceptions_found]
    ok = ok and all(any(are_isomorphic(f, e) for f in found) for e in expected)
    ok = ok and all(g.m == 12 for g in found)  # C(5,2) + 2
    ok = ok and r.wall_time < 1.0
    report(1, ok, f"t11(k=1) n=6: {r.graphs_scanned} graphs, "
                  f"{len(r.counterexamples)} counterexamples, "
                  f"2 exceptions at m=12, wall={r.wall_time:.3f}s")


def test_criterion_2_t11_sweep_n8(n8_fixture_path):
    src = File(n8_fixture_path)
    r1 = sweep_theorem(src, TheoremId("t11", 1))
    r2 = sweep_theorem(src, TheoremId("t11", 2))
    ok = r1.graphs_scanned == r2.graphs_scanned == 11117
    ok = ok and not r1.counterexamples and not r2.counterexamples
    found1 = [parse_graph6(g6) for g6, _, _ in r1.exceptions_found]
    ok = ok and len(found1) == 1 and are_isomorphic(
        found1[0], build_named("thm11-exc1", n=8, k=1))
    found2 = [parse_graph6(g6) for g6, _, _ in r2.exceptions_found]
    expected2 = [build_named("thm11-exc1", n=8, k=2), build_named("thm11-exc2", k=2)]
    ok = ok and len(found2) == 2
    ok = ok and all(any(are_isomorphic(f, e) for f in found2) for e in expected2)
    total = r1.wall_time + r2.wall_time
    ok = ok and total < 60.0
    report(2, ok, f"t11 n=8 over 11117 graphs: k=1 -> 1 exception, "
                  f"k=2 -> 2 exceptions (order-2k+4 case active), "
                  f"0 counterexamples, wall={total:.1f}s single-threaded")


def _battery_n10(tmp_path):
    """Deterministic n=10 candidate battery: the two claimed exceptional
    graphs plus assorted connected min-degree-2 graphs straddling m=31."""
    lines = [to_graph6(build_named("thm13-fact3-split", n=10, s=4)),
             to_graph6(build_named("thm13-f3", n=10)),
             to_graph6(build_named("w2", n=10))]
    rng = Random(101)
    pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    while len(lines) < 240:
        holes = rng.randint(8, 20)
        chosen = set(rng.sample(range(len(pairs)), holes))
        edges = [pairs[i] for i in range(len(pairs)) if i not in chosen]
        g = from_edge_list(10, edges)
        if is_connected(g) and min_degree(g) >= 2:
            lines.append(to_graph6(g))
    lines = list(dict.fromkeys(lines))
    path = tmp_path / "battery10.g6"
    path.write_text("\n".join(lines) + "\n")
    return str(path), len(lines)


def test_criterion_3_t13_sweeps(tmp_path, n8_fixture_path, monkeypatch):
    r6 = sweep_theorem(BuiltIn(6), TheoremId("t13"), min_degree=2)
    ok = not r6.counterexamples and len(r6.exceptions_found) == 1
    g6 = parse_graph6(r6.exceptions_found[0][0])
    ok = ok and g6.m == 10 and are_isomorphic(g6, build_named("thm13-f1"))

    r8 = sweep_theorem(File(n8_fixture_path), TheoremId("t13"), min_degree=2)
    ok = ok and not r8.counterexamples and len(r8.exceptions_found) == 1
    g8 = parse_graph6(r8.exceptions_found[0][0])
    ok = ok and g8.m == 19 and are_isomorphic(g8, build_named("thm13-f2"))

    # order-10 equality case: the pendant-shaped variant has odd order and
    # can never occur; both buildable candidates attain m=31 and fail directly
    split = build_named("thm13-fact3-split", n=10, s=4)
    hub = build_named("thm13-f3", n=10)
    ok = ok and split.m == hub.m == 31
    ok = ok and not is_1_excludable(split).holds and not is_1_excludable(hub).holds
    pendant_variant = build_named("thm13-fact3-pendant", n=11, s=4)
    ok = ok and pendant_variant.n == 11  # odd order: excluded from even sweeps

    battery_path, battery_size = _battery_n10(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(graphs, "SOURCE_ENTRIES", 640)  # 32 lines of order 10 (uint16 rows)
        r10 = sweep_theorem(File(battery_path), TheoremId("t13"), min_degree=2, jobs=2)
    ok = ok and not r10.counterexamples
    fams = sorted(e[1] for e in r10.exceptions_found)
    ok = ok and fams == ["thm13-f3", "thm13-fact3-split"]
    ok = ok and all(parse_graph6(e[0]).m == 31 for e in r10.exceptions_found)

    full_note = "full n=10 sweep: SKIPPED (no connected_n10.g6 fixture; see README)"
    fixtures = os.environ.get("MATCHSPEC_FIXTURES", "")
    full_path = os.path.join(fixtures, "connected_n10.g6") if fixtures else ""
    if full_path and os.path.exists(full_path):
        rfull = sweep_theorem(File(full_path), TheoremId("t13"), min_degree=2,
                              jobs=os.cpu_count() or 2)
        ok = ok and not rfull.counterexamples
        fams = sorted(e[1] for e in rfull.exceptions_found)
        ok = ok and fams == ["thm13-f3", "thm13-fact3-split"]
        full_note = (f"full n=10 sweep over {rfull.graphs_scanned} graphs: "
                     f"exceptions {fams}, wall={rfull.wall_time:.0f}s")
    report(3, ok, f"t13: n=6 unique exception at m=10; n=8 unique at m=19; "
                  f"n=10 battery ({battery_size} graphs, jobs=2) -> exceptions "
                  f"thm13-fact3-split + thm13-f3 at m=31, resolving the "
                  f"odd-order pendant variant; {full_note}")


def test_criterion_4_t14_sweeps(n8_fixture_path):
    ok = True
    details = []
    for n, src in ((6, BuiltIn(6)), (8, File(n8_fixture_path))):
        r = sweep_theorem(src, TheoremId("t14", 1))
        ok = ok and not r.counterexamples and len(r.exceptions_found) == 1
        g = parse_graph6(r.exceptions_found[0][0])
        ok = ok and are_isomorphic(g, build_named("thm11-exc1", n=n, k=1))
        from matchspec.theorems import spectral_threshold_extendable
        gap = abs(spectral_radius(g).rho - spectral_threshold_extendable(n, 1))
        ok = ok and gap <= SPECTRAL_TOL
        details.append(f"n={n}: unique exception, |rho-threshold|={gap:.1e}")
    report(4, ok, "t14(k=1): " + "; ".join(details))


def test_criterion_5_t16_sweeps(n8_fixture_path):
    ok = True
    details = []
    expected = {6: "thm13-f1", 8: "thm13-f2"}
    for n, src in ((6, BuiltIn(6)), (8, File(n8_fixture_path))):
        r = sweep_theorem(src, TheoremId("t16"), min_degree=2)
        ok = ok and not r.counterexamples and len(r.exceptions_found) == 1
        g6, fam, _ = r.exceptions_found[0]
        ok = ok and fam == expected[n]
        g = parse_graph6(g6)
        from matchspec.theorems import spectral_threshold_excludable
        gap = abs(spectral_radius(g).rho - spectral_threshold_excludable(n))
        ok = ok and gap <= SPECTRAL_TOL
        details.append(f"n={n}: {fam}, |rho-threshold|={gap:.1e}")
    report(5, ok, "t16: " + "; ".join(details))


REFERENCE_CONSTANTS = [
    ("K(2) v 4K1", (1 + math.sqrt(33)) / 2),
    ("K(2) v (K(2) u 2K1)", 3.6262),
    ("K(3) v (K(2) u 3K1)", 5.1757),
    ("K(1) v (K(5) u 2K1)", 5.0695),
    ("K(1) v (K(2) u K(5))", 5.0874),
    ("K(2) v (K(2) u K(3) u K1)", 4.7131),
    ("K(3)+K(5)", 4.0615),
    ("K(3)+K(3)", 1 + math.sqrt(2)),
    ("K(1) v (K(3)^+ u K(3))", 3.8704),
]


def test_criterion_6_reference_spectral_constants():
    from matchspec.families import parse_family_text
    ok = True
    worst_err = 0.0
    worst_time = 0.0
    for text, expected in REFERENCE_CONSTANTS:
        g = build(parse_family_text(text))
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            rho = spectral_radius(g).rho
            best = min(best, time.perf_counter() - t0)
        err = abs(rho - expected)
        worst_err = max(worst_err, err)
        worst_time = max(worst_time, best)
        if err > CONSTANT_TOL or best >= 0.010:
            ok = False
    report(6, ok, f"9 constants reproduced, worst |err|={worst_err:.2e} "
                  f"(tol {CONSTANT_TOL}), slowest call {worst_time * 1000:.2f}ms")


def test_criterion_7_theta_identity():
    ok = abs(theta(4) - math.sqrt(3)) <= 1e-12
    worst = 0.0
    for n in (4, 8, 10, 12, 14, 16, 18, 20):
        fam = build_named("lem210", n=n)
        gap = abs(theta(n) - spectral_radius(fam).rho)
        worst = max(worst, gap)
        ok = ok and gap <= SPECTRAL_TOL
    report(7, ok, f"theta(n) matches the attaining family for n=4..20, "
                  f"worst gap {worst:.1e} (tol 1e-9); theta(4)=sqrt(3)")


def test_criterion_8_charpoly_identities():
    r = verify_charpoly_identities()
    for violation in r.violations:
        print(f"  IDENTITY MISMATCH: {violation}")
    ok = r.instances >= 20 and not r.violations
    report(8, ok, f"{r.instances} grid instances, exact coefficient match on "
                  f"all displayed polynomials, {len(r.violations)} mismatches")


def test_criterion_9_oracle_equivalences():
    t0 = time.perf_counter()
    matchings_checked = 0
    ext_checked = 0
    excl_checked = 0
    ok = True
    for n in range(1, 8):
        for g in enumerate_connected(n):
            d, _ = berge_tutte_deficiency(g)
            if matching_number(g) != (g.n - d) // 2:
                ok = False
            matchings_checked += 1
            if n % 2 == 0:
                for k in (1, 2):
                    if is_k_extendable(g, k).holds != is_k_extendable_chen(g, k).holds:
                        ok = False
                    ext_checked += 1
                if min_degree(g) >= 2:
                    if is_1_excludable(g).holds != is_1_excludable_criterion(g).holds:
                        ok = False
                    excl_checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report(9, ok, f"all connected n<=7: blossom=Berge-Tutte on "
                  f"{matchings_checked} graphs, extendability routes agree on "
                  f"{ext_checked} (graph,k) pairs, excludability routes agree "
                  f"on {excl_checked} graphs, in {elapsed:.1f}s")


def test_criterion_10_lemma_suites(n8_fixture_path):
    sources = {8: File(n8_fixture_path)}
    suites = [
        ("l2.1", {"trials": 100}),
        ("l2.2", {}),
        ("l2.4", {"n_values": (6, 8, 10, 12, 14)}),
        ("l2.5", {"trials": 100}),
        ("l2.8", {}),
        ("l2.9", {"n_values": (4, 6, 8), "sources": sources}),
        ("l2.10", {"n_values": (4, 6, 8), "sources": sources}),
        ("l2.11", {}),
    ]
    ok = True
    parts = []
    for lemma, options in suites:
        r = verify_lemma(lemma, **options)
        for violation in r.violations:
            print(f"  {lemma} VIOLATION: {violation}")
        ok = ok and r.ok
        parts.append(f"{lemma}:{r.instances}")
    report(10, ok, "lemma suites all green (" + ", ".join(parts) + ")")
