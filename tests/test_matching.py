import random
import tracemalloc
from collections import Counter
from itertools import combinations
from math import isqrt

import numpy as np
import pytest

from matchspec.enumeration import enumerate_connected
from matchspec.families import BridgedCompletes, build, build_named
from matchspec.graphs import (_component_masks, complete_graph, cycle_graph,
                              delete_vertices,
                              disjoint_union, empty_graph, from_edge_list,
                              is_connected, join, min_degree, odd_components,
                              parse_graph6, path_graph)
from matchspec import graphs, matching
from matchspec.matching import (SUBSET_SCAN_CAP, _odd_component_table,
                                berge_tutte_deficiency,
                                find_odd_bridges, has_perfect_matching,
                                is_1_excludable, is_1_excludable_criterion,
                                is_k_extendable, is_k_extendable_chen,
                                matching_number, max_matching)
from oracles import (brute_force_matching_number, odd_bridges_reference,
                     odd_component_table_reference, tutte_eliminate_reference)

PETERSEN = from_edge_list(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                               (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                               (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])


def random_graph(rng, n, p=0.45):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                              if rng.random() < p])


# --- maximum matching -------------------------------------------------------

def test_max_matching_examples():
    assert matching_number(path_graph(4)) == 2
    assert matching_number(PETERSEN) == brute_force_matching_number(PETERSEN) == 5
    g = join(complete_graph(3), empty_graph(3))
    assert matching_number(g) == brute_force_matching_number(g) == 3
    assert has_perfect_matching(g)


def test_matching_result_is_a_matching():
    rng = random.Random(23)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 10))
        result = max_matching(g)
        seen = set()
        for u, v in result.edges:
            assert g.has_edge(u, v)
            assert u not in seen and v not in seen
            seen.update((u, v))
        assert result.size == len(result.edges)


def test_blossom_vs_brute_force_random():
    rng = random.Random(29)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9), rng.choice((0.2, 0.45, 0.7)))
        assert matching_number(g) == brute_force_matching_number(g)


def test_blossom_vs_berge_tutte_random():
    rng = random.Random(31)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 10))
        d, witness = berge_tutte_deficiency(g)
        assert matching_number(g) == (g.n - d) // 2
        assert odd_components(g, witness) - len(witness) == d


def test_blossom_vs_berge_tutte_larger():
    # the subset scan stays exact up to the cap; push the blossom harder
    rng = random.Random(33)
    for _ in range(30):
        n = rng.randint(11, 15)
        g = random_graph(rng, n, rng.choice((0.15, 0.3, 0.6)))
        d, _ = berge_tutte_deficiency(g)
        assert matching_number(g) == (g.n - d) // 2


def test_perfect_matching_examples():
    assert has_perfect_matching(complete_graph(4))
    hub = join(complete_graph(1), disjoint_union(complete_graph(5), empty_graph(2)))
    assert hub.n == 8 and not has_perfect_matching(hub)
    assert odd_components(hub, {0}) == 3  # Tutte violation at the hub
    assert not has_perfect_matching(complete_graph(5))


def test_berge_tutte_examples():
    assert berge_tutte_deficiency(complete_graph(4)) == (0, frozenset())
    hub = join(complete_graph(1), disjoint_union(complete_graph(5), empty_graph(2)))
    assert berge_tutte_deficiency(hub) == (2, frozenset({0}))
    star = join(complete_graph(1), empty_graph(3))
    assert berge_tutte_deficiency(star) == (2, frozenset({0}))
    with pytest.raises(ValueError):
        berge_tutte_deficiency(empty_graph(SUBSET_SCAN_CAP + 1))


# --- odd-component table against the bit-by-bit reference -------------------

def _random_connected_graph(rng, n, p):
    while True:
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g


def test_odd_component_table_matches_reference(n8_fixture_path):
    graphs = [g for n in range(1, 8) for g in enumerate_connected(n)]
    with open(n8_fixture_path) as fh:
        graphs += [parse_graph6(line) for line in fh if line.strip()]
    assert len(graphs) == 12113
    rng = random.Random(41)
    graphs += [_random_connected_graph(rng, n, p)
               for n in range(10, 17) for p in (0.25, 0.6)]
    graphs += [empty_graph(0), empty_graph(1), empty_graph(2), empty_graph(9),
               disjoint_union(complete_graph(3), path_graph(4)),
               disjoint_union(PETERSEN, disjoint_union(cycle_graph(5), empty_graph(2))),
               cycle_graph(20)]
    for g in graphs:
        assert _odd_component_table(g).tobytes() == odd_component_table_reference(g), g.adj


def test_cached_tables_are_read_only():
    # every reader of a cached table shares one array: a write must fail
    # rather than corrupt the next reader's verdict
    g = cycle_graph(8)
    for table in (_odd_component_table(g), matching._tutte_inverse(g)):
        with pytest.raises(ValueError):
            table[0] = 1
    assert berge_tutte_deficiency(g) == (0, frozenset())


def test_berge_tutte_deficiency_returns_first_maximiser():
    ties = 0
    graphs = [g for n in range(1, 8) for g in enumerate_connected(n)]
    graphs += [empty_graph(6), PETERSEN, disjoint_union(complete_graph(3), path_graph(4))]
    for g in graphs:
        table = odd_component_table_reference(g)
        excess = [table[s] - s.bit_count() for s in range(len(table))]
        best = excess.index(max(excess))
        ties += excess.count(excess[best]) > 1
        expected = frozenset(v for v in range(g.n) if best >> v & 1)
        assert berge_tutte_deficiency(g) == (excess[best], expected), g.adj
    assert ties > 0
    assert berge_tutte_deficiency(empty_graph(6)) == (6, frozenset())
    assert berge_tutte_deficiency(path_graph(3)) == (1, frozenset())  # ties with {1}


def test_odd_component_table_memory_at_n18():
    # a cold table build keeps its work arrays within 32 bytes per subset mask
    g = cycle_graph(18)
    _odd_component_table.cache_clear()
    tracemalloc.start()
    try:
        assert is_k_extendable_chen(g, 1).holds
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * (1 << 18)


# --- batched subset scan ----------------------------------------------------

def _batched_tables(gs):
    # one scan of same-order graphs; row i is graph i's table, indexed by S
    rows = np.array([g.adj for g in gs], dtype=np.uint8)
    return matching._odd_component_counts(rows)


def test_batched_scan_matches_reference_on_connected_n_le_7():
    total = 0
    for n in range(1, 8):
        gs = enumerate_connected(n)
        for g, row in zip(gs, _batched_tables(gs), strict=True):
            assert row.tobytes() == odd_component_table_reference(g), g.adj
        total += len(gs)
    assert total == 996


@pytest.mark.parametrize("n", range(9, 13))
def test_batched_scan_matches_reference_past_16_bit_addresses(n):
    # uint16 rows, connected and disconnected, and a batch whose addresses
    # i << n | R pass 2^16
    rng = random.Random(n)
    gs = [random_graph(rng, n, rng.choice((0.15, 0.3, 0.5))) for _ in range((1 << 16 >> n) + 2)]
    assert {is_connected(g) for g in gs} == {False, True}
    rows = np.array([g.adj for g in gs], dtype=np.uint16)
    tables = matching._odd_component_counts(rows)
    assert tables.shape == (len(gs), 1 << n)
    for g, row in zip(gs, tables, strict=True):
        assert row.tobytes() == odd_component_table_reference(g), g.adj


def test_batched_deficiency_matches_per_graph_on_n8_fixture(n8_fixture_path):
    with open(n8_fixture_path) as fh:
        gs = [parse_graph6(line) for line in fh if line.strip()]
    rows = np.array([g.adj for g in gs], dtype=np.uint8)
    assert len(rows) > graphs.SOURCE_ENTRIES // (4 << 8)  # several scans
    assert matching._berge_tutte_deficiencies(rows) == [berge_tutte_deficiency(g) for g in gs]


def test_batched_deficiency_splits_a_batch_over_the_budget(monkeypatch):
    rng = random.Random(43)
    gs = [random_graph(rng, 10, rng.choice((0.15, 0.3))) for _ in range(150)]
    rows = np.array([g.adj for g in gs], dtype=np.uint16)
    step = graphs.SOURCE_ENTRIES // (4 << 10)
    scan = matching._odd_component_counts
    sizes = []

    def counted(batch):
        sizes.append(len(batch))
        return scan(batch)

    monkeypatch.setattr(matching, "_odd_component_counts", counted)
    got = matching._berge_tutte_deficiencies(rows)
    assert sizes == [step] * (len(gs) // step) + [len(gs) % step]
    monkeypatch.undo()
    assert got == [berge_tutte_deficiency(g) for g in gs]
    assert any(d > 0 for d, _ in got)
    assert matching._berge_tutte_deficiencies(rows[:1]) == got[:1]  # an array batch of one


def test_batched_deficiency_edge_cases():
    assert matching._berge_tutte_deficiencies(np.zeros((0, 6), dtype=np.uint8)) == []
    assert matching._berge_tutte_deficiencies(np.zeros((3, 0), dtype=np.uint8)) == [
        (0, frozenset())] * 3
    assert matching._berge_tutte_deficiencies(np.zeros((2, 1), dtype=np.uint8)) == [
        (1, frozenset())] * 2
    assert berge_tutte_deficiency(empty_graph(0)) == (0, frozenset())
    assert berge_tutte_deficiency(empty_graph(1)) == (1, frozenset())


# --- k-extendability --------------------------------------------------------

def test_k_extendable_examples():
    assert is_k_extendable(complete_graph(4), 1).holds
    exc1 = build_named("thm11-exc1", n=6, k=1)
    v = is_k_extendable(exc1, 1)
    assert not v.holds and v.method == "direct"
    exc2 = build_named("thm11-exc2", k=1)
    assert not is_k_extendable(exc2, 1).holds
    assert is_k_extendable(cycle_graph(6), 1).holds


def test_k_extendable_definition_edge_cases():
    assert is_k_extendable(complete_graph(5), 1).reason == "odd-order"
    assert is_k_extendable(complete_graph(2), 1).reason == "too-few-vertices"
    no_pm = join(complete_graph(1), empty_graph(3))
    v = is_k_extendable(no_pm, 1)
    assert not v.holds and v.reason == "no-perfect-matching"
    assert v.witness == frozenset()
    with pytest.raises(ValueError):
        is_k_extendable(complete_graph(4), 0)


def test_k_extendable_witness_revalidates():
    # the reported matching really is size k and really fails to extend
    for fid, params, k in [("thm11-exc1", {"n": 6, "k": 1}, 1),
                           ("thm11-exc2", {"k": 1}, 1),
                           ("thm11-exc1", {"n": 8, "k": 2}, 2),
                           ("thm11-exc2", {"k": 2}, 2)]:
        g = build_named(fid, **params)
        v = is_k_extendable(g, k)
        assert not v.holds and v.reason == "non-extendable-matching"
        matching = v.witness
        assert len(matching) == k
        covered = [x for e in matching for x in e]
        assert len(set(covered)) == 2 * k
        assert all(g.has_edge(u, w) for u, w in matching)
        rest, _ = delete_vertices(g, covered)
        d, _ = berge_tutte_deficiency(rest)
        assert d > 0  # no perfect matching on the rest, by the subset-scan route


def test_chen_criterion_examples():
    g = build_named("thm11-exc2", k=1)  # join of a triangle with 3 singletons
    v = is_k_extendable_chen(g, 1)
    assert not v.holds and v.witness == frozenset({0, 1, 2})
    assert odd_components(g, v.witness) == 3 > len(v.witness) - 2
    assert is_k_extendable_chen(complete_graph(4), 1).holds
    assert is_k_extendable_chen(cycle_graph(6), 1).holds


def test_chen_witness_revalidates():
    g = build_named("thm11-exc1", n=8, k=1)
    v = is_k_extendable_chen(g, 1)
    assert not v.holds
    s = v.witness
    sub_edges = [(u, w) for u in s for w in s if u < w and g.has_edge(u, w)]
    assert sub_edges  # contains at least one independent edge (k=1)
    assert odd_components(g, s) > len(s) - 2


def test_chen_cap():
    with pytest.raises(ValueError):
        is_k_extendable_chen(empty_graph(SUBSET_SCAN_CAP + 2), 1)


def test_criterion_routes_decide_order_and_connectivity_before_the_scan(monkeypatch):
    # odd order and too few vertices are the direct route's O(1) verdicts:
    # past the cap they are given, not refused, and below it no
    # odd-component table is built for them
    def no_scan(g):
        raise AssertionError(f"subset scan of an order-{g.n} graph")

    for cases in ([(complete_graph(SUBSET_SCAN_CAP + 1), 1, "odd-order"),
                   (complete_graph(SUBSET_SCAN_CAP + 2), 11, "too-few-vertices")],
                  [(complete_graph(19), 1, "odd-order"), (complete_graph(8), 4, "too-few-vertices")]):
        for g, k, reason in cases:
            v = is_k_extendable_chen(g, k)
            assert (v.holds, v.method, v.witness, v.reason) == (
                False, "criterion", frozenset(), reason), (g.n, k)
            assert is_k_extendable(g, k).reason == reason
        monkeypatch.setattr(matching, "_odd_component_table", no_scan)
    # a disconnected graph is refused as such, past the cap too
    for g in (empty_graph(SUBSET_SCAN_CAP + 1), disjoint_union(complete_graph(2), complete_graph(2))):
        with pytest.raises(ValueError, match="requires a connected graph"):
            is_1_excludable_criterion(g)


# --- 1-excludability --------------------------------------------------------

def test_one_excludable_examples():
    # C4: both edge-orbits checked directly
    c4 = cycle_graph(4)
    assert is_1_excludable(c4).holds
    for u, v in c4.edges():
        edges = [e for e in c4.edges() if e != (u, v)]
        assert has_perfect_matching(from_edge_list(4, edges))
    f1 = build_named("thm13-f1")
    v = is_1_excludable(f1)
    assert not v.holds and v.reason == "edge-forced"
    u, w = v.witness
    edges = [e for e in f1.edges() if e != (u, w)]
    assert not has_perfect_matching(from_edge_list(f1.n, edges))


def test_pendant_edge_never_excludable():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.choice((4, 6, 8))
        core = random_graph(rng, n - 1, 0.6)
        edges = core.edges() + [(0, n - 1)]
        g = from_edge_list(n, edges)
        assert not is_1_excludable(g).holds


def test_one_excludable_criterion_examples():
    f1 = build_named("thm13-f1")
    v = is_1_excludable_criterion(f1)
    assert not v.holds and v.reason == "criterion-i"
    assert v.witness == frozenset({0, 1})  # the joined pair
    assert is_1_excludable_criterion(cycle_graph(6)).holds
    f3 = build_named("thm13-f3", n=10)
    assert not is_1_excludable_criterion(f3).holds
    assert not is_1_excludable(f3).holds


def test_one_excludable_criterion_errors():
    with pytest.raises(ValueError):
        is_1_excludable_criterion(disjoint_union(complete_graph(2), complete_graph(2)))
    with pytest.raises(ValueError):
        is_1_excludable_criterion(empty_graph(SUBSET_SCAN_CAP + 1))


def test_one_excludable_odd_order():
    v = is_1_excludable(complete_graph(5))
    assert not v.holds and v.reason == "odd-order" and v.witness == frozenset()


# --- odd bridges ------------------------------------------------------------

def test_find_odd_bridges():
    k3k5 = build(BridgedCompletes(3, 5))
    assert find_odd_bridges(k3k5) == frozenset({(2, 3)})
    assert find_odd_bridges(cycle_graph(4)) == frozenset()
    k5_plus = build(BridgedCompletes(5, 1))
    assert find_odd_bridges(k5_plus) == frozenset({(4, 5)})
    # evaluated per component on disconnected input
    two = disjoint_union(build(BridgedCompletes(1, 1)), build(BridgedCompletes(3, 3)))
    assert find_odd_bridges(two) == frozenset({(0, 1), (4, 5)})
    # even split bridge is not an odd-bridge
    p4 = path_graph(4)
    assert (1, 2) not in find_odd_bridges(p4)
    assert find_odd_bridges(p4) == frozenset({(0, 1), (2, 3)})


def test_find_odd_bridges_matches_reference(n8_fixture_path):
    graphs = [g for n in range(1, 8) for g in enumerate_connected(n)]
    with open(n8_fixture_path) as fh:
        graphs += [parse_graph6(line) for line in fh if line.strip()]
    rng = random.Random(43)
    graphs += [random_graph(rng, rng.randint(0, 16), rng.choice((0.1, 0.2, 0.35)))
               for _ in range(300)]
    assert sum(len(_component_masks(g.adj, (1 << g.n) - 1)) > 1 for g in graphs) > 100
    with_bridges = 0
    for g in graphs:
        bridges = find_odd_bridges(g)
        assert bridges == odd_bridges_reference(g), (g.n, g.edges())
        with_bridges += bool(bridges)
    assert with_bridges > 1000


def test_odd_bridges_of_remaining_sets_match_reference():
    # the criterion route asks for the odd bridges of each component of g - S
    rng = random.Random(47)
    with_bridges = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(2, 16), rng.choice((0.2, 0.35, 0.6)))
        rest = rng.getrandbits(g.n)
        found = [e for comp in _component_masks(g.adj, rest)
                 for e in matching._odd_bridges_in_component(g, comp)]
        keep = [v for v in range(g.n) if rest >> v & 1]
        assert len(found) == len(set(found))
        assert set(found) == odd_bridges_reference(g, keep), (g.n, g.edges(), rest)
        with_bridges += bool(found)
    assert with_bridges > 50


# --- exhaustive equivalence at n = 8 (delta >= 2) ---------------------------

def test_excludable_equivalence_n8(n8_fixture_path):
    with open(n8_fixture_path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    for line in lines:
        g = parse_graph6(line)
        if min_degree(g) < 2:
            continue
        assert is_1_excludable(g).holds == is_1_excludable_criterion(g).holds, line


# --- every criterion witness re-checked on all connected n <= 7 -------------

def _induced(g, vertices):
    sub, _ = delete_vertices(g, [v for v in range(g.n) if v not in vertices])
    return sub


def test_criterion_witnesses_recheck_n_le_7():
    # each witness is re-checked by graphs.odd_components and the direct route,
    # never by the subset table that produced it
    reasons = Counter()
    for n in range(1, 8):
        for g in enumerate_connected(n):
            d, s = berge_tutte_deficiency(g)
            assert odd_components(g, s) - len(s) == d
            assert matching_number(g) == (n - d) // 2
            for k in (1, 2):
                v = is_k_extendable_chen(g, k)
                assert v.holds == is_k_extendable(g, k).holds
                if v.holds:
                    continue
                reasons[v.reason] += 1
                s = v.witness
                if v.reason == "no-perfect-matching":
                    assert odd_components(g, s) > len(s)
                    assert not has_perfect_matching(g)
                elif v.reason == "criterion-violated":
                    assert odd_components(g, s) > len(s) - 2 * k
                    assert matching_number(_induced(g, s)) >= k
                else:
                    assert v.reason == is_k_extendable(g, k).reason
                    assert s == frozenset()
            if n % 2 == 1 or min_degree(g) < 2:
                continue
            v = is_1_excludable_criterion(g)
            assert v.holds == is_1_excludable(g).holds
            if v.holds:
                continue
            reasons[v.reason] += 1
            s = v.witness
            if v.reason == "criterion-i":
                assert odd_components(g, s) > len(s) - 2
                assert find_odd_bridges(_induced(g, set(range(n)) - s))
            else:
                assert v.reason == "criterion-ii"
                assert odd_components(g, s) > len(s)
    assert reasons == {"odd-order": 1754, "too-few-vertices": 8,
                       "no-perfect-matching": 35, "criterion-violated": 167,
                       "criterion-i": 11, "criterion-ii": 2}


# --- warm-started direct route against a from-scratch reference --------------

def _reference_k_extendable(g, k):
    """Delete V(F) and rerun max_matching on the copy, for every k-matching F
    in lexicographic edge-index order (the direct route's order)."""
    if g.n % 2 == 1:
        return False, "odd-order", frozenset()
    if g.n < 2 * k + 2:
        return False, "too-few-vertices", frozenset()
    if max_matching(g).size < g.n // 2:
        return False, "no-perfect-matching", frozenset()
    for f in combinations(g.edges(), k):
        covered = [v for e in f for v in e]
        if len(set(covered)) < 2 * k:
            continue  # not a matching
        rest, _ = delete_vertices(g, covered)
        if max_matching(rest).size < rest.n // 2:
            return False, "non-extendable-matching", f
    return True, None, None


def _reference_1_excludable(g):
    """Drop each edge in turn and rerun max_matching on the copy."""
    if g.n % 2 == 1:
        return False, "odd-order", frozenset()
    edges = g.edges()
    if not edges:
        return True, None, None
    if max_matching(g).size < g.n // 2:
        return False, "no-perfect-matching", edges[0]
    for e in edges:
        rest = from_edge_list(g.n, [x for x in edges if x != e])
        if max_matching(rest).size < g.n // 2:
            return False, "edge-forced", e
    return True, None, None


def _assert_matches_reference(g, k):
    v = is_k_extendable(g, k)
    assert (v.holds, v.reason, v.witness) == _reference_k_extendable(g, k), (g.adj, k)
    if v.reason == "non-extendable-matching":
        assert type(v.witness) is tuple
        assert all(type(e) is tuple and all(type(x) is int for x in e) for e in v.witness)


def _direct_matches_reference(g):
    for k in (1, 2):
        _assert_matches_reference(g, k)
    v = is_1_excludable(g)
    assert (v.holds, v.reason, v.witness) == _reference_1_excludable(g), g.adj


def test_direct_route_matches_reference_n_le_7():
    for n in range(1, 8):
        for g in enumerate_connected(n):
            _direct_matches_reference(g)


def test_direct_route_matches_reference_n8(n8_fixture_path):
    with open(n8_fixture_path) as fh:
        for line in fh:
            if line.strip():
                _direct_matches_reference(parse_graph6(line))


def _clear_direct_caches():
    is_k_extendable.cache_clear()
    is_1_excludable.cache_clear()


def _counting_certificates(monkeypatch):
    """Record each graph whose Tutte inverse is asked for and the shape of
    each Tutte elimination, and count by k the k-matchings whose Pfaffian
    certifies them."""
    asked, eliminated, certified = [], [], Counter()
    inverse, eliminate, pfaffians = (matching._tutte_inverse, matching._tutte_eliminate,
                                     matching._pfaffians)
    inverse.cache_clear()

    def recorded_inverse(g):
        asked.append(g)
        return inverse(g)

    def recorded_eliminate(t):
        eliminated.append(t.shape)
        return eliminate(t)

    def recorded_pfaffians(b, cols):
        pf = pfaffians(b, cols)
        certified[cols.shape[1] // 2] += int(np.count_nonzero(pf))
        return pf

    monkeypatch.setattr(matching, "_tutte_inverse", recorded_inverse)
    monkeypatch.setattr(matching, "_tutte_eliminate", recorded_eliminate)
    monkeypatch.setattr(matching, "_pfaffians", recorded_pfaffians)
    return asked, eliminated, certified


def test_direct_route_matches_reference_at_benchmark_orders(monkeypatch):
    # the orders analyze-dense draws, where k-matchings are many and most
    # are settled by the Pfaffian certificate rather than a blossom search
    rng = random.Random(53)
    _clear_direct_caches()
    asked, eliminated, certified = _counting_certificates(monkeypatch)
    verdicts = Counter()
    for n in (10, 12, 14):
        for p in (0.3, 0.5, 0.7, 0.9):
            g = _random_connected_graph(rng, n, p)
            for k in (1, 2, 3) if n <= 12 else (1, 2):
                _assert_matches_reference(g, k)
                verdicts[is_k_extendable(g, k).reason] += 1
    assert verdicts[None] and verdicts["non-extendable-matching"]
    # k = 1 with more edges than _CERTIFY_ROWS, and vertex ids past one
    # 64-bit mask word
    _assert_matches_reference(_random_connected_graph(rng, 24, 0.8), 1)
    _assert_matches_reference(cycle_graph(66), 2)
    # one elimination per graph serves every k: 9 of the 12 benchmark-order
    # graphs have more than _CERTIFY_ROWS 2-matchings and are inverted at
    # k = 1, 2 more at their first block of that many 3-matchings, and both
    # large graphs at their first query; every k reads the inverse
    assert len(eliminated) == len(set(asked)) == 13
    assert all(certified[k] for k in (1, 2, 3))


def test_tutte_inverse_is_a_batch_of_one(monkeypatch):
    # one elimination serves the batch certificate and a single graph's
    # inverse; past one 64-bit mask word, T B = I over GF(TUTTE_PRIME)
    g = cycle_graph(66)
    calls = []
    eliminate = matching._tutte_eliminate

    def counted(t):
        calls.append(t.shape)
        return eliminate(t)

    monkeypatch.setattr(matching, "_tutte_eliminate", counted)
    matching._tutte_inverse.cache_clear()
    b = matching._tutte_inverse(g)
    matching._tutte_inverse.cache_clear()
    assert calls == [(66, 66, 1)]
    on = np.zeros((66, 66), dtype=bool)
    for u, v in g.edges():
        on[u, v] = on[v, u] = True
    t = np.where(on, matching._tutte_weights(66), 0)
    product = t.astype(object).dot(b.astype(object)) % matching.TUTTE_PRIME
    assert (product == np.eye(66, dtype=np.int64)).all()
    assert (b.T == -b % matching.TUTTE_PRIME).all()  # skew-symmetric
    # without a perfect matching the Tutte matrix is singular
    assert matching._tutte_inverse(from_edge_list(4, [(0, 1), (0, 2), (0, 3)])) is None


def _elimination_cases(rng, n: int, kinds) -> np.ndarray:
    """One int64 matrix over GF(TUTTE_PRIME) of order n per kind:
    0 skew, 1 skew with about 70% of its pairs zero (often of deficient
    rank), 2 skew with a zero row and column, 3 a matrix whose last row is
    the sum of two others, 4 a weighted cyclic shift (a zero diagonal pivot
    on every pass but the last), 5 zero."""
    p = matching.TUTTE_PRIME
    out = []
    for kind in kinds:
        upper = np.triu(rng.integers(1, p, size=(n, n)), 1)
        if kind == 1:
            upper *= rng.random((n, n)) < 0.3
        t = (upper - upper.T) % p
        if kind == 2:
            v = rng.integers(n)
            t[v] = t[:, v] = 0
        elif kind == 3:
            t = rng.integers(0, p, size=(n, n))
            if n >= 3:
                t[-1] = (t[0] + t[1]) % p
        elif kind == 4:
            t = np.zeros((n, n), dtype=np.int64)
            t[np.arange(n), (np.arange(n) + 1) % n] = rng.integers(1, p, size=n)
        elif kind == 5:
            t = np.zeros((n, n), dtype=np.int64)
        out.append(t)
    return np.array(out, dtype=np.int64).reshape(len(out), n, n)


@pytest.mark.parametrize("count", [1, 200])
def test_tutte_eliminate_is_exact(count):
    # float64 residues reduced every pass stay exact integers only while
    # 2 p^2 < 2^53; every inverse agrees with exact elimination in Python
    # ints, and d has a zero exactly when det T = 0 mod p
    p = matching.TUTTE_PRIME
    assert all(p % q for q in range(2, isqrt(p) + 1))
    assert 2 * p * p < 2 ** 53
    rng = np.random.default_rng(count)
    for n in range(1, 15):
        batches = [[kind] for kind in range(6)] if count == 1 else [[i % 6 for i in range(count)]]
        for batch in batches:
            t = _elimination_cases(rng, n, batch)
            d, r = matching._tutte_eliminate(t.transpose(1, 2, 0))
            assert d.shape == (n, len(t)) and r.shape == (n, n, len(t))
            assert (np.abs(d) < p).all() and (np.abs(r) < p).all()
            for i, (kind, ti) in enumerate(zip(batch, t)):
                det, inverse = tutte_eliminate_reference(ti.tolist(), p)
                assert bool(d[:, i].all()) == (det != 0), (n, kind)
                if det:
                    scale = np.array([pow(int(x), -1, p) for x in d[:, i]])
                    got = r[:, :, i].astype(np.int64) % p * scale[:, None] % p
                    assert got.tolist() == inverse, (n, kind)


# --- the Pfaffian certificate against the blossom search ---------------------

def test_pfaffian_certificate_is_sound(n8_fixture_path, monkeypatch):
    # every connected graph of order 6 or 8 with a perfect matching (k >= 2
    # needs n >= 6, and odd orders have none): each vertex set the
    # certificate passes, B[u, v] != 0 at k = 1, is re-checked from scratch,
    # and every verdict reached with the certificate on every block equals
    # the one reached by blossom searches alone
    graphs = list(enumerate_connected(6))
    with open(n8_fixture_path) as fh:
        graphs += [parse_graph6(line) for line in fh if line.strip()]
    graphs = [g for g in graphs if has_perfect_matching(g)]
    certified = []  # vertex sets, as rows of vertex ids, with a nonzero Pfaffian
    pfaffians = matching._pfaffians

    def recorded(b, cols):
        pf = pfaffians(b, cols)
        certified.append(cols[pf != 0])
        return pf

    monkeypatch.setattr(matching, "_pfaffians", recorded)
    monkeypatch.setattr(matching, "_CERTIFY_ROWS", 0)
    leaves_perfect = {}  # remaining vertices and their adjacency -> has a perfect matching
    verdicts = []
    certified_total = 0
    for g in graphs:
        for k in (1, 2, 3):
            if g.n < 2 * k + 2:
                continue
            is_k_extendable.cache_clear()
            verdicts.append((g, k, is_k_extendable(g, k)))
            for vertices in (row for cols in certified for row in cols.tolist()):
                drop = sum(1 << v for v in vertices)
                key = (drop, tuple(a & ~drop for v, a in enumerate(g.adj) if not drop >> v & 1))
                if key not in leaves_perfect:
                    rest, _ = delete_vertices(g, vertices)
                    leaves_perfect[key] = 2 * max_matching(rest).size == rest.n
                assert leaves_perfect[key], (g.adj, vertices)
                certified_total += 1
            certified.clear()
    assert certified_total > 300000
    monkeypatch.setattr(matching, "_tutte_inverse", lambda g: None)
    for g, k, v in verdicts:
        is_k_extendable.cache_clear()
        w = is_k_extendable(g, k)
        assert (w.holds, w.reason, w.witness) == (v.holds, v.reason, v.witness), (g.adj, k)


def _direct_verdicts(g):
    """(holds, reason, witness) of is_k_extendable(g, k) for k = 1, 2, 3 and
    then of is_1_excludable(g), as analyze asks for them, with no verdict
    memoised."""
    _clear_direct_caches()
    return [(v.holds, v.reason, v.witness)
            for v in [is_k_extendable(g, k) for k in (1, 2, 3)] + [is_1_excludable(g)]]


def test_one_excludable_certificate_is_sound(n8_fixture_path, monkeypatch):
    # every n = 8 graph with a perfect matching, its Tutte matrix inverted up
    # front: each edge of M that is_1_excludable passes without a search, on
    # 1 + w B[u, v] != 0, leaves g - e with a perfect matching, and every
    # verdict equals the one reached by blossom searches alone (k = 1, 2, 3
    # are compared so in test_pfaffian_certificate_is_sound)
    with open(n8_fixture_path) as fh:
        graphs = [g for g in map(parse_graph6, filter(str.strip, fh)) if has_perfect_matching(g)]
    searched = []  # roots of the augmenting searches since M was found
    search, maximum_match = matching._find_augmenting_path, matching._maximum_match

    def recorded(adj, mate, root):
        searched.append(root)
        return search(adj, mate, root)

    def found(adj):
        match = maximum_match(adj)
        searched.clear()
        return match

    monkeypatch.setattr(matching, "_find_augmenting_path", recorded)
    monkeypatch.setattr(matching, "_maximum_match", found)
    monkeypatch.setattr(matching, "_CERTIFY_ROWS", 0)
    skipped = 0
    verdicts = []
    for g in graphs:
        _clear_direct_caches()
        assert matching._tutte_inverse(g) is not None
        v = is_1_excludable(g)
        roots = set(searched)  # max_matching below finds an M of its own
        edges, match = g.edges(), maximum_match(g.adj)
        decided = edges if v.holds else edges[:edges.index(v.witness) + 1]
        for u, w in decided:
            if match[u] == w and u not in roots:
                rest = from_edge_list(g.n, [e for e in edges if e != (u, w)])
                assert 2 * max_matching(rest).size == g.n, (g.adj, (u, w))
                skipped += 1
        verdicts.append((g, v))
    assert skipped > 20000
    monkeypatch.setattr(matching, "_tutte_inverse", lambda g: None)
    for g, v in verdicts:
        _clear_direct_caches()
        w = is_1_excludable(g)
        assert (w.holds, w.reason, w.witness) == (v.holds, v.reason, v.witness), g.adj


def test_direct_verdicts_match_search_alone_at_benchmark_orders(monkeypatch):
    # at the orders analyze-dense draws, the inverse taken up front or at a
    # large block changes no verdict of any k, nor of 1-excludability
    rng = random.Random(59)
    graphs = [_random_connected_graph(rng, n, p / 10)
              for n in (10, 12, 14) for p in range(3, 10, 2) for _ in range(2)]
    asked, eliminated, _ = _counting_certificates(monkeypatch)
    verdicts = [_direct_verdicts(g) for g in graphs]
    assert len(eliminated) == len(set(asked)) >= 20
    assert all({v[i][0] for v in verdicts} == {True, False} for i in range(4))
    monkeypatch.setattr(matching, "_tutte_inverse", lambda g: None)
    for g, certified in zip(graphs, verdicts):
        assert _direct_verdicts(g) == certified, g.adj


def test_k_extendable_memory_is_bounded_by_the_block():
    # K16 has 120,120 3-matchings; held in one block, their index, vertex
    # and mask arrays would take about 20 MB, against about 1.2 MB in blocks
    g = complete_graph(16)
    is_k_extendable.cache_clear()
    matching._tutte_inverse.cache_clear()
    tracemalloc.start()
    try:
        assert is_k_extendable(g, 3).holds
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20
