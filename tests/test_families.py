import json
import os
from itertools import chain, combinations
from math import comb

import pytest

from matchspec import families, spectral
from matchspec.enumeration import _IDENTITIES, _registry_grid, default_identity_grid
from matchspec.families import (FAMILY_REGISTRY, BridgedCompletes, Complete,
                                Empty, Join, Union, build,
                                build_named, canonical_partition, edge_count,
                                format_spec, named_spec, parse_family_text,
                                quotient_rows, recognize)
from matchspec.graphs import (are_isomorphic, cycle_graph, is_connected, min_degree,
                              to_graph6)
from matchspec.spectral import (characteristic_polynomial, largest_real_root,
                                quotient_matrix, spectral_radius, theta)

GRAPH6_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "family_graph6.json")


def test_build_examples():
    g = build(BridgedCompletes(5, 1))  # K(5)^+
    assert g.n == 6 and g.m == 11 and min_degree(g) == 1
    g = build(BridgedCompletes(3, 3))
    assert g.n == 6 and g.m == 7
    g = build_named("thm13-f2")
    assert g.n == 8 and g.m == 19


def test_build_is_connected_for_joins():
    for fid, params in [("thm11-exc1", {"n": 10, "k": 2}), ("thm13-f3", {"n": 12}),
                        ("w2", {"n": 10}), ("lem210", {"n": 8})]:
        assert is_connected(build_named(fid, **params))


@pytest.mark.parametrize("n,k,s", [(6, 1, 2), (8, 1, 2), (8, 1, 3), (8, 2, 4),
                                   (10, 1, 3), (12, 2, 5), (14, 3, 6), (16, 2, 6)])
def test_extremal_edge_count_closed_form(n, k, s):
    spec = named_spec("thm11-extremal", n=n, k=k, s=s)
    g = build(spec)
    expected = s * (s - 2 * k + 1) + comb(n - s + 2 * k - 1, 2)
    assert g.m == expected == edge_count(spec)


@pytest.mark.parametrize("n,s", [(10, 2), (10, 3), (10, 4), (12, 2), (12, 4),
                                 (14, 3), (16, 5)])
def test_fact3_edge_count_closed_form(n, s):
    expected = s * (s + 1) + 1 + comb(n - s - 1, 2)
    for fid in ("thm13-fact3-pendant", "thm13-fact3-split"):
        g = build_named(fid, n=n, s=s)
        assert g.n == n and g.m == expected, (fid, n, s)


def test_fact3_shapes_coincide_at_minimum_order():
    # at n = 2s+2 the pendant and split shapes describe the same graph
    a = build_named("thm13-fact3-pendant", n=10, s=4)
    b = build_named("thm13-fact3-split", n=10, s=4)
    assert are_isomorphic(a, b)


def test_odd_order_pendant_variant_is_constructible():
    g = build_named("thm13-fact3-pendant", n=11, s=4)
    assert g.n == 11  # odd order: can never appear in an even-order sweep


REGISTRY_GRID = [("thm11-extremal", {"n": 10, "k": 1, "s": 3}),
                 ("thm11-exc1", {"n": 8, "k": 2}),
                 ("thm11-exc2", {"k": 2}),
                 ("thm13-f1", {}), ("thm13-f2", {}), ("thm13-f3", {"n": 12}),
                 ("thm13-fact3-pendant", {"n": 12, "s": 2}),
                 ("thm13-fact3-split", {"n": 12, "s": 3}),
                 ("lem210", {"n": 10}), ("w1", {"n": 10}), ("w2", {"n": 12})
                 ] + _registry_grid((6, 8, 10, 12, 14))


def _odd_parts(total, parts, largest):
    # non-increasing tuples of `parts` odd sizes <= largest summing to total
    if parts == 0:
        if total == 0:
            yield ()
        return
    for a in range(min(total, largest), 0, -1):
        if a % 2:
            for rest in _odd_parts(total - a, parts - 1, a):
                yield (a,) + rest


def _saturated_shapes(max_n):
    # every edge-maximal graph of even order 4..max_n without a perfect
    # matching, K_s v (K_{a_1} u ... u K_{a_{s+2}}) with odd a_i, and each
    # one with a pair of its cliques linked by a bridge, K1 sides included
    for n in range(4, max_n + 1, 2):
        for s in range(n):
            for sizes in _odd_parts(n - s, s + 2, n):
                cliques = [Complete(a) for a in sizes]
                variants = [cliques] + [
                    [BridgedCompletes(sizes[i], sizes[j])]
                    + [c for h, c in enumerate(cliques) if h not in (i, j)]
                    for i, j in combinations(range(len(sizes)), 2)]
                for parts in variants:
                    side = Union(tuple(parts)) if len(parts) > 1 else parts[0]
                    yield Join(Complete(s), side) if s else side


def _registry_and_host_specs():
    hosts = list(_saturated_shapes(14))
    assert len(hosts) == 392
    sides = [h.right if isinstance(h, Join) else h for h in hosts]
    bridges = [p for side in sides
               for p in (side.parts if isinstance(side, Union) else (side,))
               if isinstance(p, BridgedCompletes)]
    assert sum(min(b.p, b.q) == 1 for b in bridges) == 286
    return [named_spec(fid, **params) for fid, params in REGISTRY_GRID] + hosts


def test_canonical_partitions_equitable():
    assert {fid for fid, _ in REGISTRY_GRID} == set(FAMILY_REGISTRY)
    for spec in _registry_and_host_specs():
        q = quotient_matrix(build(spec), canonical_partition(spec))
        assert q.equitable, spec
        assert quotient_rows(spec) == q.as_int_rows(), spec


def test_partition_quotients_match_displayed_matrices():
    spec = named_spec("thm11-exc1", n=6, k=1)
    q = quotient_matrix(build(spec), canonical_partition(spec))
    assert q.as_int_rows() == [[1, 3, 1], [2, 2, 0], [2, 0, 0]]

    spec = named_spec("lem210", n=8)
    q = quotient_matrix(build(spec), canonical_partition(spec))
    poly = characteristic_polynomial(q.as_int_rows())
    assert abs(largest_real_root(poly, 0, 8) - theta(8)) < 1e-12

    n = 10
    spec = named_spec("w2", n=n)
    q = quotient_matrix(build(spec), canonical_partition(spec))
    assert q.block_sizes == (2, n - 6, 1, 1, 2)
    assert q.as_int_rows() == [[1, n - 6, 1, 1, 2], [2, n - 7, 1, 0, 0],
                               [2, n - 6, 0, 1, 0], [2, 0, 1, 0, 0],
                               [2, 0, 0, 0, 0]]


def test_partition_drops_empty_blocks():
    # a bridged side of one vertex is only its endpoint, so K1+K(5) is
    # K(5)^+ read from the other end, and K1+K1 = K(1)^+ is K2
    spec = BridgedCompletes(1, 5)
    assert canonical_partition(spec).blocks == ((0,), (1,), (2, 3, 4, 5))
    assert quotient_rows(spec) == [[0, 1, 0], [1, 0, 4], [0, 1, 3]]
    spec = BridgedCompletes(1, 1)
    assert canonical_partition(spec).blocks == ((0,), (1,))
    assert quotient_rows(spec) == [[0, 1], [1, 0]]


@pytest.mark.parametrize("spec", [Complete(0), Empty(0), Union(()),
                                  Join(Complete(0), Complete(3))], ids=repr)
def test_spec_readers_refuse_what_build_refuses(spec):
    with pytest.raises(ValueError) as built:
        build(spec)
    for reader in (edge_count, canonical_partition, quotient_rows):
        with pytest.raises(ValueError) as read:
            reader(spec)
        assert str(read.value) == str(built.value), reader


def test_partitions_follow_the_layout():
    identities = [_IDENTITIES[name](**params)[0] for name, params in default_identity_grid()]
    for spec in identities + _registry_and_host_specs():
        blocks = canonical_partition(spec).blocks
        assert list(chain(*blocks)) == list(range(build(spec).n)), spec


def test_built_labelling_is_pinned():
    # the labelling build gives the registry grid and the K(p)^+ texts
    with open(GRAPH6_FIXTURE) as fh:
        pinned = json.load(fh)
    assert len(pinned) == 117
    for row in pinned:
        spec = (named_spec(row["family"], **row["params"]) if "family" in row
                else parse_family_text(row["text"]))
        assert to_graph6(build(spec)) == row["graph6"], row
    assert [(r["family"], r["params"]) for r in pinned if "family" in r] == \
        _registry_grid(range(4, 31, 2))


def test_quotient_root_builds_no_graph(monkeypatch):
    def refuse(*args):
        raise AssertionError("the exact route built a graph")

    specs = [named_spec(fid, **params) for fid, params in REGISTRY_GRID]
    monkeypatch.setattr(families, "build", refuse)
    monkeypatch.setattr(spectral, "quotient_matrix", refuse)
    roots = [families._quotient_root(spec)[1] for spec in specs]
    monkeypatch.undo()
    for spec, root in zip(specs, roots):
        assert abs(root - spectral_radius(build(spec)).rho) < 1e-9, spec


def test_recognize():
    g = build_named("thm11-exc2", k=1)
    hit = recognize(g, [("thm11-exc1", {"n": 6, "k": 1}), ("thm11-exc2", {"k": 1})])
    assert hit == ("thm11-exc2", {"k": 1})
    assert recognize(cycle_graph(6), [("thm11-exc1", {"n": 6, "k": 1}),
                                      ("thm11-exc2", {"k": 1})]) is None
    # out-of-range candidates are skipped, not fatal
    assert recognize(cycle_graph(6), [("w2", {"n": 9})]) is None


def test_parameter_validation():
    with pytest.raises(ValueError):
        named_spec("w2", n=9)
    with pytest.raises(ValueError):
        named_spec("thm11-extremal", n=8, k=1, s=1)  # s < 2k
    with pytest.raises(ValueError):
        named_spec("thm11-exc1", n=7, k=1)
    with pytest.raises(ValueError, match=r"takes parameters \('n', 'k'\), got \['n'\]"):
        named_spec("thm11-exc1", n=6)  # missing k
    with pytest.raises(ValueError,
                       match=r"takes parameters \('n', 'k'\), got \['k', 'n', 's'\]"):
        named_spec("thm11-exc1", n=6, k=1, s=2)  # stray parameter
    with pytest.raises(ValueError, match=r"takes parameters \(\), got \['n'\]"):
        named_spec("thm13-f1", n=6)
    with pytest.raises(ValueError):
        named_spec("no-such-family")


def test_registry_all_buildable():
    samples = {"thm11-extremal": {"n": 10, "k": 1, "s": 3},
               "thm11-exc1": {"n": 8, "k": 1}, "thm11-exc2": {"k": 1},
               "thm13-f1": {}, "thm13-f2": {}, "thm13-f3": {"n": 10},
               "thm13-fact3-pendant": {"n": 10, "s": 2},
               "thm13-fact3-split": {"n": 10, "s": 2},
               "lem210": {"n": 8}, "w1": {"n": 8}, "w2": {"n": 8}}
    assert set(samples) == set(FAMILY_REGISTRY)
    for fid, params in samples.items():
        g = build_named(fid, **params)
        assert g.n >= 4


def test_text_grammar():
    spec = parse_family_text("K(2) v (K(3) u K1)")
    assert are_isomorphic(build(spec), build_named("thm11-exc1", n=6, k=1))
    assert build(parse_family_text("thm13-f2")).m == 19
    assert build(parse_family_text("w2:n=10")).n == 10
    assert build(parse_family_text("K(3)+K(5)")).m == 14
    assert build(parse_family_text("Ks(3) v (K(2) u 3K1)")).m == 19
    g = build(parse_family_text("K(5)^+"))
    assert g.n == 6 and g.m == 11
    nested = parse_family_text("K(2) v (K(3)^+ u 2K1)")
    assert build(nested).n == 8
    # join binds looser than union
    spec = parse_family_text("K(2) v K(2) u 2K1")
    assert isinstance(spec, Join) and isinstance(spec.right, Union)


def test_text_grammar_errors():
    for bad in ("", "w2:n=9", "K(2) o K(3)", "K(2) v", "((K(2))", "K1+K(3)",
                "thm11-exc1:n=6", "w2:n"):
        with pytest.raises(ValueError):
            parse_family_text(bad)


def test_format_round_trip():
    for text in ("K(2) v (K(3) u K1)", "K(3)+K(5)", "K(5)^+ u 2K1",
                 "K(1) v (K(7) u 2K1)"):
        spec = parse_family_text(text)
        again = parse_family_text(format_spec(spec))
        assert again == spec
    # K(p)^+ is the bridged pair with q = 1, and prints as K(p)^+ either way
    assert parse_family_text("K(5)^+") == parse_family_text("K(5)+K(1)")
    assert format_spec(parse_family_text("K(5)+K(1)")) == "K(5)^+"


def test_edge_count_matches_build():
    specs = [Join(Complete(3), Union((Complete(2), Empty(3)))),
             Union((BridgedCompletes(4, 1), BridgedCompletes(3, 5))),
             Join(Join(Complete(2), Complete(2)), Empty(2))]
    for spec in specs + _registry_and_host_specs():
        assert edge_count(spec) == build(spec).m


def test_rho_of_ext_exception_family_monotone_in_n():
    rhos = [spectral_radius(build_named("thm11-exc1", n=n, k=1)).rho
            for n in range(6, 18, 2)]
    assert all(a < b for a, b in zip(rhos, rhos[1:]))
