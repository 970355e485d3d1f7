#!/usr/bin/env python3
"""Regenerate tests/fixtures/connected_n8.g6.

Enumerates every graph on up to 8 vertices up to isomorphism by vertex
extension: each n-vertex class representative grows by one new vertex
attached to every possible neighborhood subset, and candidates are
deduplicated inside cheap-invariant buckets (edge count, degree multiset,
rounded characteristic polynomial, triangle profile) with an exact
isomorphism test deciding collisions.  Class counts per order are checked
against the published sequence before anything is written, and the
connected n=8 classes land in the fixture sorted by graph6 string.

Run from the repository root:  python scripts/make_n8_fixture.py
Takes about 40 s on a 2-core machine.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from matchspec.graphs import (Graph, are_isomorphic, empty_graph, is_connected,
                              to_graph6)
from matchspec.spectral import adjacency_matrix

# A000088: graphs on n nodes up to isomorphism, n = 1..8.
ALL_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_N8 = 11117


def invariant_key(g: Graph) -> tuple:
    a = adjacency_matrix(g)
    charpoly = tuple(int(round(c)) for c in np.poly(a))
    triangles = tuple(sorted(int(x) for x in np.diag(a @ a @ a) // 2))
    return (g.m, g.degree_sequence(), charpoly, triangles)


def extend_all(reps: list[Graph]) -> list[Graph]:
    n = reps[0].n + 1
    buckets: dict[tuple, list[Graph]] = {}
    total = 0
    for parent in reps:
        for subset in range(1 << parent.n):
            adj = list(parent.adj) + [subset]
            for v in range(parent.n):
                if subset >> v & 1:
                    adj[v] |= 1 << parent.n
            g = Graph(n, tuple(adj))
            total += 1
            key = invariant_key(g)
            bucket = buckets.setdefault(key, [])
            if not any(are_isomorphic(g, seen) for seen in bucket):
                bucket.append(g)
    out = [g for bucket in buckets.values() for g in bucket]
    print(f"  n={n}: {total} candidates -> {len(out)} classes")
    return out


def main() -> int:
    t0 = time.perf_counter()
    reps = [empty_graph(1)]
    for n in range(2, 9):
        reps = extend_all(reps)
        if len(reps) != ALL_GRAPH_COUNTS[n]:
            print(f"FATAL: class count at n={n} is {len(reps)}, "
                  f"expected {ALL_GRAPH_COUNTS[n]}", file=sys.stderr)
            return 1
    connected = sorted(to_graph6(g) for g in reps if is_connected(g))
    if len(connected) != CONNECTED_N8:
        print(f"FATAL: connected n=8 count is {len(connected)}, "
              f"expected {CONNECTED_N8}", file=sys.stderr)
        return 1
    out_path = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "connected_n8.g6"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(connected) + "\n")
    print(f"wrote {len(connected)} graphs to {out_path} "
          f"in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
