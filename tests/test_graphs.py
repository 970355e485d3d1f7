import random
import re

import numpy as np
import pytest

from matchspec import graphs
from matchspec.graphs import (Graph, all_pairs, are_isomorphic, complete_graph,
                              components, cycle_graph, delete_vertices,
                              disjoint_union, empty_graph, from_edge_list,
                              graph6_text, is_connected, join, min_degree,
                              odd_components, parse_edge_list,
                              parse_graph6, path_graph, to_graph6)
from oracles import (adjacency_graph6_decode, bit_rows, brute_force_is_isomorphic,
                     reference_graph6_decode)


def random_graph(rng, n, p=0.4):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return from_edge_list(n, edges)


# --- construction -----------------------------------------------------------

def test_from_edge_list_basic():
    c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert c4.n == 4 and c4.m == 4
    assert c4 == cycle_graph(4)


def test_trivial_graph():
    g = from_edge_list(1, [])
    assert g.n == 1 and g.m == 0


def test_duplicate_edges_collapse():
    g = from_edge_list(3, [(0, 1), (0, 1)])
    assert g.m == 1


def test_construction_errors():
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric adjacency
    with pytest.raises(ValueError):
        Graph(2, (0, 0, 0))


@pytest.mark.parametrize("n, adj, pair", [
    (3, (0b010, 0b000, 0b000), (0, 1)),  # one-sided above the diagonal
    (3, (0b000, 0b001, 0b000), (1, 0)),  # and below it
    (4, (0b0010, 0b0101, 0b0010, 0b0001), (3, 0)),  # every pair above it is matched
    (4, (0b0100, 0b0001, 0b0000, 0b0000), (0, 2)),  # the first pair in vertex order
    (4, (0b1000, 0b0001, 0b1000, 0b0001), (1, 0)),  # before one above it
], ids=["above", "below", "below-only", "above-first", "below-first"])
def test_asymmetric_adjacency_names_the_first_one_sided_pair(n, adj, pair):
    with pytest.raises(ValueError, match=f"^asymmetric adjacency between {pair[0]} and {pair[1]}$"):
        Graph(n, adj)


def test_asymmetric_adjacency_matches_a_plain_scan():
    # random rows, mostly symmetric with a few one-sided pairs: the error
    # names the first pair (v, u) in v, then u order whose reverse is missing
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(2, 70)
        adj = list(random_graph(rng, n, rng.random()).adj)
        for _ in range(rng.randint(0, 2)):
            v, u = rng.sample(range(n), 2)
            adj[v] ^= 1 << u
        first = next(((v, u) for v in range(n) for u in range(n)
                      if adj[v] >> u & 1 and not adj[u] >> v & 1), None)
        if first is None:
            assert Graph(n, tuple(adj)).adj == tuple(adj)
        else:
            with pytest.raises(ValueError, match=f"between {first[0]} and {first[1]}$"):
                Graph(n, tuple(adj))


def test_adjacency_invariants_after_constructors():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 10))
        for v in range(g.n):
            assert not g.has_edge(v, v)
            for u in g.neighbors(v):
                assert g.has_edge(u, v)
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


# --- graph6 codec -----------------------------------------------------------

def test_graph6_known_values():
    assert to_graph6(complete_graph(4)) == "C~"
    assert parse_graph6("C~") == complete_graph(4)
    assert to_graph6(empty_graph(5)) == "D??"
    # bit-level oracle: "A_" has its single upper-triangle bit set
    n, edges = reference_graph6_decode("A_")
    assert (n, edges) == (2, [(0, 1)])
    assert parse_graph6("A_") == complete_graph(2)
    assert parse_graph6("A?") == empty_graph(2)


def test_graph6_errors():
    for line, message in (
            ("B", "graph6 body has 0 chars, expected 1 for n=3"),  # truncated body
            ("~??", "long graph6 format (n > 62) is not supported"),
            ("", "empty graph6 line"),
            (">>graph6<<", "empty graph6 line"),  # a bare header holds no graph
            ("!", "bad graph6 header byte 33"),
            ("A" + chr(20), "graph6 char '\\x14' out of range"),  # char below 63
            ("C" + chr(127), "graph6 char '\\x7f' out of range"),  # char above 126
            ("A~", "nonzero padding bits in graph6 body")):  # only 1 data bit for n=2
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_graph6(line)
    with pytest.raises(ValueError):
        to_graph6(empty_graph(63))


def test_graph6_text_drops_what_holds_no_graph():
    assert graph6_text("  C~ \n") == "C~"
    assert graph6_text(">>graph6<<C~\n") == "C~"
    assert parse_graph6(">>graph6<<C~") == complete_graph(4)
    for line in ("", " \n", "# a comment", ">>graph6<<", " >>graph6<<\n"):
        assert graph6_text(line) == ""


def test_graph6_round_trip_and_oracle():
    rng = random.Random(3)
    # 300 graphs of small orders, then every order the short format holds,
    # whose C(n, 2) slot bits leave each residue mod 6 for the padding
    sample = [random_graph(rng, rng.randint(0, 14)) for _ in range(300)]
    sample += [random_graph(rng, n, p=rng.random()) for n in range(63)]
    for g in sample:
        line = to_graph6(g)
        assert parse_graph6(line) == g
        rn, redges = reference_graph6_decode(line)
        assert rn == g.n and redges == g.edges()


def _mutated(rng, line, any_width):
    """line with one random fault: a character replaced (by one out of range
    or in it), the header changed or padding bits set; if any_width, also a
    newline put in or the width changed."""
    kinds = ["char", "header", "padding"] + (["newline", "width"] if any_width else [])
    kind = rng.choice(kinds)
    chars = list(line)
    if kind == "char" and len(chars) > 1:
        chars[rng.randrange(1, len(chars))] = rng.choice(
            ["\x00", " ", ">", "?", "~", "\x7f", "\xe9", "\U0001f600",
             chr(rng.randrange(63, 127))])
    elif kind == "header":
        chars[0] = rng.choice([chr(ord(line[0]) + 1), "~", "\x00"])
    elif kind == "padding" and len(chars) > 1:
        chars[-1] = chr(63 + ((ord(chars[-1]) - 63) | rng.randrange(64)))
    elif kind == "newline":
        chars[rng.randrange(len(chars))] = "\n"
    elif kind == "width":
        if rng.random() < 0.5:
            del chars[rng.randrange(len(chars)):]
        else:
            chars += rng.choice(["?", "\x00", "\n", "~~"])
    return "".join(chars)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 13, 62])
def test_row_decoder_rejects_what_the_adjacency_decoder_rejects(n):
    # lines of one width and no newline, lines of any width (a mutation may
    # leave a line good), and faults whose lengths cancel out over the batch:
    # each line alone, as parse_graph6 decodes it, and as a batch the lines
    # that are bytes 63..126 of the order's width, the only ones cells hold
    rng = random.Random(n)
    width = 1 + (n * (n - 1) // 2 + 5) // 6
    good = [to_graph6(random_graph(rng, n, p=rng.random())) for _ in range(60)]
    batches = [[_mutated(rng, line, any_width) if rng.random() < 0.6 else line
                for line in good] for any_width in (False, True)]
    batches += [[good[0][:-1], good[1] + "?"] + good[2:],
                [good[0] + "\n", good[1][:-1]] + good[2:]]
    for lines in batches:
        adj, expected_bad = adjacency_graph6_decode(lines, n)
        expected_rows = bit_rows(adj)
        for k, line in enumerate(lines):
            try:
                g = graphs._from_graph6_text(line)
            except ValueError:
                assert k in expected_bad
            else:
                assert (g.n == n) == (k not in expected_bad)
                assert g.n != n or list(g.adj) == expected_rows[k].tolist()
        one_width = [len(line.encode()) == width and all(63 <= ord(c) <= 126 for c in line)
                    for line in lines]
        assert (graphs._graph6_cells("\n".join(lines).encode()) is None) == (not all(one_width))
        kept = np.flatnonzero(one_width)
        cells = graphs._graph6_cells("\n".join(lines[k] for k in kept).encode())
        rows, bad = graphs._decode_cells(cells, n)
        assert kept[bad].tolist() == np.intersect1d(kept, expected_bad).tolist()
        ok = np.setdiff1d(np.arange(len(kept)), bad)
        assert rows.dtype == np.min_scalar_type((1 << n) - 1) and rows.shape == (len(kept), n)
        assert np.array_equal(rows[ok], expected_rows[kept[ok]])


def test_decode_state_is_bounded_at_the_largest_order():
    _, *arrays = graphs._graph6_tables(62)
    assert sum(a.nbytes for a in arrays) <= 1 << 20


def test_popcount_matches_int_bit_count():
    rng = random.Random(9)
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        bits = 8 * np.dtype(dtype).itemsize
        values = [[0, (1 << bits) - 1, 1 << (bits - 1)]]
        values += [[rng.getrandbits(bits) for _ in range(3)] for _ in range(100)]
        masks = np.array(values, dtype=dtype)
        for view in (masks, masks.T):  # the transpose is not contiguous
            counts = graphs._popcount(view)
            assert counts.dtype == np.uint8
            assert counts.tolist() == [[v.bit_count() for v in row] for row in view.tolist()]


def test_parse_edge_list_text():
    g = parse_edge_list("4\n0 1\n1 2\n# comment\n2 3\n".splitlines())
    assert g == path_graph(4)
    with pytest.raises(ValueError):
        parse_edge_list([])
    with pytest.raises(ValueError, match=r"^g\.txt:4: bad edge line: '1 2 3'$"):
        parse_edge_list(["4", "0 1", "", "1 2 3"], "g.txt")
    with pytest.raises(ValueError, match=r"^g\.txt:2: vertex count must be at least 1, got 0$"):
        parse_edge_list(["# no vertex", "0"], "g.txt")


# --- construction algebra ---------------------------------------------------

def test_join_and_union_examples():
    g = join(complete_graph(2), disjoint_union(complete_graph(3), empty_graph(1)))
    assert g.n == 6 and g.m == 12  # 1 + 3 + 2*4
    star = join(complete_graph(1), empty_graph(5))
    assert star.degree_sequence() == (5, 1, 1, 1, 1, 1)
    three_k1 = disjoint_union(disjoint_union(empty_graph(1), empty_graph(1)),
                              empty_graph(1))
    assert three_k1.n == 3 and three_k1.m == 0
    two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
    assert two_k2.m == 2 and not is_connected(two_k2)


def test_join_edge_count_property():
    rng = random.Random(5)
    for _ in range(100):
        a = random_graph(rng, rng.randint(1, 7))
        b = random_graph(rng, rng.randint(1, 7))
        j = join(a, b)
        assert j.m == a.m + b.m + a.n * b.n
        u = disjoint_union(a, b)
        assert u.m == a.m + b.m and u.n == a.n + b.n


def test_delete_vertices():
    sub, kept = delete_vertices(complete_graph(4), [0])
    assert sub == complete_graph(3) and kept == (1, 2, 3)
    sub, kept = delete_vertices(cycle_graph(6), [0, 3])
    assert sub.n == 4 and sub.m == 2 and not is_connected(sub)
    assert kept == (1, 2, 4, 5)
    g = random_graph(random.Random(1), 8)
    same, kept = delete_vertices(g, [])
    assert same == g and kept == tuple(range(8))
    with pytest.raises(ValueError):
        delete_vertices(g, [9])


def test_relabeling_preserves_adjacency():
    rng = random.Random(9)
    g = random_graph(rng, 9)
    drop = [1, 4, 7]
    sub, kept = delete_vertices(g, drop)
    for i in range(sub.n):
        for j in range(sub.n):
            assert sub.has_edge(i, j) == g.has_edge(kept[i], kept[j])


# --- structure queries ------------------------------------------------------

def test_connectivity_queries():
    assert is_connected(cycle_graph(6))
    assert min_degree(cycle_graph(6)) == 2
    assert len(components(cycle_graph(6))) == 1
    g = disjoint_union(complete_graph(3), empty_graph(1))
    assert not is_connected(g)
    assert components(g) == [frozenset({0, 1, 2}), frozenset({3})]
    pendant = from_edge_list(6, [(i, j) for i in range(5) for j in range(i + 1, 5)]
                             + [(4, 5)])
    assert is_connected(pendant) and min_degree(pendant) == 1


def test_odd_components():
    g = join(complete_graph(1), disjoint_union(complete_graph(5), empty_graph(2)))
    assert odd_components(g, {0}) == 3
    assert odd_components(cycle_graph(6), set()) == 0
    k3_3k1 = join(complete_graph(3), empty_graph(3))
    assert odd_components(k3_3k1, {0, 1, 2}) == 3
    # component orders always partition the surviving vertices
    rng = random.Random(2)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 9))
        s = {v for v in range(g.n) if rng.random() < 0.3}
        sub, _ = delete_vertices(g, s)
        sizes = [len(c) for c in components(sub)] if sub.n else []
        assert sum(sizes) == g.n - len(s)
        assert odd_components(g, s) == sum(1 for x in sizes if x % 2 == 1)


# --- isomorphism ------------------------------------------------------------

def test_isomorphism_basics():
    assert not are_isomorphic(cycle_graph(6),
                              disjoint_union(complete_graph(3), complete_graph(3)))
    g = join(complete_graph(2), disjoint_union(complete_graph(3), empty_graph(1)))
    rng = random.Random(7)
    perm = list(range(6))
    rng.shuffle(perm)
    shuffled = from_edge_list(6, [(perm[u], perm[v]) for u, v in g.edges()])
    assert are_isomorphic(g, shuffled)


def test_isomorphism_equal_size_different_degrees():
    a = join(complete_graph(4), disjoint_union(complete_graph(2), empty_graph(4)))
    b = join(complete_graph(1), disjoint_union(complete_graph(2), complete_graph(7)))
    assert a.n == b.n == 10 and a.m == b.m == 31
    assert a.degree_sequence() != b.degree_sequence()
    assert not are_isomorphic(a, b)


def test_isomorphism_vs_brute_force():
    rng = random.Random(13)
    pool = [random_graph(rng, 5, p) for p in (0.3, 0.5, 0.7) for _ in range(6)]
    for a in pool:
        for b in pool:
            assert are_isomorphic(a, b) == brute_force_is_isomorphic(a, b)


def test_isomorphism_equivalence_relation():
    rng = random.Random(17)
    pool = [random_graph(rng, 6) for _ in range(8)]
    for g in pool:
        assert are_isomorphic(g, g)
    for a in pool:
        for b in pool:
            assert are_isomorphic(a, b) == are_isomorphic(b, a)
    for a in pool:
        for b in pool:
            for c in pool:
                if are_isomorphic(a, b) and are_isomorphic(b, c):
                    assert are_isomorphic(a, c)


def test_all_pairs_order_matches_graph6():
    assert all_pairs(4) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
