import json
import os
from dataclasses import replace

import numpy as np
import pytest

from matchspec import spectral
from matchspec.families import build_named
from matchspec.graphs import cycle_graph, complete_graph, join, empty_graph
from matchspec.matching import is_1_excludable, is_k_extendable
from matchspec.spectral import Polynomial, largest_real_root, spectral_radius
from matchspec.theorems import (THEOREM_KINDS, TheoremId, exception_candidates,
                                hypothesis_status, hypothesis_threshold,
                                parse_theorem_token,
                                size_threshold_excludable,
                                size_threshold_extendable,
                                spectral_threshold_excludable,
                                spectral_threshold_extendable, statements,
                                theorem_verdict)

THRESHOLDS_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                                  "thresholds.json")


def test_size_thresholds():
    assert size_threshold_extendable(6, 1) == 12
    assert size_threshold_extendable(8, 2) == 25
    assert size_threshold_extendable(4, 1) == 5
    assert size_threshold_excludable(6) == 10
    assert size_threshold_excludable(8) == 19
    assert size_threshold_excludable(10) == 31


def _threshold_rows():
    # one row per size/spectral pair of statements(n, 4) at every even
    # n <= 62: t11/t13 as ints, t14/t16 as float.hex so a change in the
    # last bit shows
    rows = []
    for n in range(4, 63, 2):
        ts = statements(n, 4)
        for size, spec in zip(ts[::2], ts[1::2]):
            rows.append({"n": n, "k": size.k,
                         size.kind: hypothesis_threshold(size, n),
                         spec.kind: hypothesis_threshold(spec, n).hex()})
    return rows


def test_thresholds_match_the_pinned_values():
    with open(THRESHOLDS_FIXTURE) as fh:
        pinned = json.load(fh)
    assert len(pinned) == 143
    assert _threshold_rows() == pinned


def test_threshold_range_errors():
    with pytest.raises(ValueError):
        size_threshold_extendable(7, 1)
    with pytest.raises(ValueError):
        size_threshold_extendable(4, 2)
    with pytest.raises(ValueError):
        size_threshold_excludable(4)
    with pytest.raises(ValueError):
        spectral_threshold_extendable(6, 0)


@pytest.mark.parametrize("kind", THEOREM_KINDS)
def test_covers_is_where_the_threshold_exists(kind):
    for k in range(1, 6) if kind in ("t11", "t14") else (None,):
        t = TheoremId(kind, k)
        for n in range(31):
            try:
                hypothesis_threshold(t, n)
                defined = True
            except ValueError:
                defined = False
            assert t.covers(n) == defined, (t, n)


def test_statements_in_order_over_even_orders():
    listed = {n: statements(n, (n - 2) // 2) for n in range(4, 31, 2)}
    assert sum(map(len, listed.values())) == 236
    for n, ts in listed.items():
        by_k = [TheoremId(kind, k) for k in range(1, (n - 2) // 2 + 1)
                for kind in ("t11", "t14")]
        assert ts == by_k + ([TheoremId("t13"), TheoremId("t16")] if n >= 6 else [])
    assert statements(7, 3) == [] and statements(8, 5) == statements(8, 3)


def test_spectral_threshold_extendable_values():
    # two-path agreement is enforced inside the function; pin the values
    assert abs(spectral_threshold_extendable(6, 1) - 4.2014723382) < 1e-9
    ref = max(x.real for x in np.roots([1, -5, -8, 8]) if abs(x.imag) < 1e-9)
    assert abs(spectral_threshold_extendable(8, 1) - ref) < 1e-9
    # degenerate order n = 2k+2: the family is a join of K_{2k} with 2K1
    for k in (1, 2, 3):
        got = spectral_threshold_extendable(2 * k + 2, k)
        direct = spectral_radius(join(complete_graph(2 * k), empty_graph(2))).rho
        assert abs(got - direct) < 1e-9


def test_spectral_threshold_excludable_values():
    assert abs(spectral_threshold_excludable(6) - 3.6262) < 5e-4
    assert abs(spectral_threshold_excludable(8) - 5.1757) < 5e-4
    ref = max(x.real for x in np.roots([1, -7, -3, 19]) if abs(x.imag) < 1e-9)
    assert abs(spectral_threshold_excludable(10) - ref) < 1e-9


def test_spectral_threshold_excludable_small_orders_are_exact_roots():
    # thm13-f1 and thm13-f2 have the quotient polynomials
    # x^3 - 2x^2 - 7x + 4 and x^3 - 3x^2 - 13x + 9
    f1 = largest_real_root(Polynomial((4, -7, -2, 1)), 0.0, 6.0)
    f2 = largest_real_root(Polynomial((9, -13, -3, 1)), 0.0, 8.0)
    assert spectral_threshold_excludable(6) == f1 == 3.6261980685272936
    assert spectral_threshold_excludable(8) == f2 == 5.175747650082821


@pytest.mark.parametrize("n, family_id", [(6, "thm13-f1"), (8, "thm13-f2")])
def test_spectral_threshold_excludable_checks_the_eigensolver(monkeypatch, n,
                                                               family_id):
    # a second route exists at n = 6 and 8: an eigensolver that drifts from
    # the exact root is caught, not returned
    target = build_named(family_id)
    original = spectral.spectral_radius

    def drifting(g):
        result = original(g)
        return replace(result, rho=result.rho + 1e-6) if g == target else result

    monkeypatch.setattr(spectral, "spectral_radius", drifting)
    spectral_threshold_excludable.cache_clear()
    try:
        with pytest.raises(AssertionError, match=family_id):
            spectral_threshold_excludable(n)
    finally:
        spectral_threshold_excludable.cache_clear()


def test_threshold_monotonicity():
    for k in (1, 2):
        sizes = [size_threshold_extendable(n, k) for n in range(2 * k + 2, 21, 2)]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        rhos = [spectral_threshold_extendable(n, k) for n in range(2 * k + 2, 21, 2)]
        assert all(a < b for a, b in zip(rhos, rhos[1:]))
    sizes = [size_threshold_excludable(n) for n in range(6, 21, 2)]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    rhos = [spectral_threshold_excludable(n) for n in range(6, 21, 2)]
    assert all(a < b for a, b in zip(rhos, rhos[1:]))


def test_theorem_id_validation():
    assert str(TheoremId("t11", 2)) == "t11(k=2)"
    assert TheoremId("c12") == TheoremId("t11", 1)
    assert TheoremId("c15") == TheoremId("t14", 1)
    with pytest.raises(ValueError):
        TheoremId("t11")
    with pytest.raises(ValueError):
        TheoremId("t13", 1)
    with pytest.raises(ValueError):
        TheoremId("t99")
    assert TheoremId("c12", 1) == TheoremId("t11", 1)
    with pytest.raises(ValueError, match="c12"):
        TheoremId("c12", 3)  # an alias takes no other k than its own
    with pytest.raises(ValueError):
        parse_theorem_token("c15", 2)
    assert parse_theorem_token("T16").kind == "t16"
    with pytest.raises(ValueError):
        parse_theorem_token("t14")  # k required


def test_verdict_size_exception():
    g = build_named("thm11-exc1", n=6, k=1)
    v = theorem_verdict(g, TheoremId("t11", 1))
    assert v.hypothesis_met and not v.conclusion_met
    assert v.is_listed_exception and v.consistent
    assert v.measured == 12 == v.threshold
    assert v.recognized == ("thm11-exc1", {"n": 6, "k": 1})


def test_verdict_vacuous():
    v = theorem_verdict(cycle_graph(6), TheoremId("t13"))
    assert not v.hypothesis_met and v.consistent
    assert v.conclusion_met  # C6 happens to be 1-excludable anyway


def test_verdict_spectral_equality_exception():
    g = build_named("thm13-f2")
    v = theorem_verdict(g, TheoremId("t16"))
    assert v.hypothesis_met and not v.conclusion_met and v.is_listed_exception
    assert abs(v.measured - v.threshold) <= 1e-9


def test_verdict_range_errors():
    with pytest.raises(ValueError):
        theorem_verdict(cycle_graph(4), TheoremId("t13"))
    with pytest.raises(ValueError):
        theorem_verdict(complete_graph(5), TheoremId("t11", 1))
    with pytest.raises(ValueError):
        theorem_verdict(cycle_graph(4), TheoremId("t11", 2))  # n < 2k+2


def test_registered_exceptions_attain_and_fail():
    # every registered exception family satisfies the hypothesis (with the
    # size/spectral bound attained exactly) and genuinely fails the conclusion
    cases = []
    for n in (6, 8, 10):
        for k in (1, 2):
            if n >= 2 * k + 2:
                cases.append((TheoremId("t11", k), n))
                cases.append((TheoremId("t14", k), n))
        cases.append((TheoremId("t13"), n))
        cases.append((TheoremId("t16"), n))
    checked = 0
    for t, n in cases:
        for fid, params in exception_candidates(t, n):
            try:
                g = build_named(fid, **params)
            except ValueError:
                continue
            if g.n != n:
                continue  # the odd-order printed variant can never apply
            met, threshold, measured = hypothesis_status(g, t)
            assert met, (str(t), n, fid)
            if t.uses_size:
                assert measured == threshold, (str(t), n, fid)
            else:
                assert abs(measured - threshold) <= 1e-9, (str(t), n, fid)
            if t.about_extension:
                assert not is_k_extendable(g, t.k).holds, (str(t), n, fid)
            else:
                assert not is_1_excludable(g).holds, (str(t), n, fid)
            checked += 1
    assert checked >= 14


def test_consistency_flag_logic():
    for g, t in [(build_named("thm11-exc1", n=6, k=1), TheoremId("t11", 1)),
                 (cycle_graph(6), TheoremId("t16")),
                 (complete_graph(8), TheoremId("t13"))]:
        v = theorem_verdict(g, t)
        assert v.consistent == ((not v.hypothesis_met) or v.conclusion_met
                                or v.is_listed_exception)
