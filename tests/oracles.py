"""Independent reference implementations, used only to cross-check the library.

Each one is deliberately naive (exhaustive search, plain iteration, nested
lists) so that it shares no code path with the routine it checks.
"""

from fractions import Fraction
from itertools import permutations
from math import comb

import numpy as np

from matchspec.enumeration import BuiltIn, enumerate_connected
from matchspec.graphs import (Graph, all_pairs, is_connected, min_degree, odd_components,
                              parse_graph6, to_graph6)
from matchspec.matching import (SUBSET_SCAN_CAP, berge_tutte_deficiency,
                                has_perfect_matching)
from matchspec.spectral import adjacency_matrix, spectral_radius
from matchspec.theorems import _meets, hypothesis_threshold

# Published counts of connected graphs up to isomorphism (n = 1..7).
CONNECTED_GRAPH_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def reference_graph6_decode(line):
    """Independent bit-level graph6 decoder: (n, sorted edge list)."""
    n = ord(line[0]) - 63
    bits = []
    for ch in line[1:]:
        val = ord(ch) - 63
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return n, sorted(edges)


def decode_lines_reference(data: bytes, where: str) -> list[str]:
    """The lines of data split at b"\\n", each decoded as UTF-8 on its own;
    the first that fails raises ValueError `where:K: ...` with the error of
    decoding that line alone."""
    raw = data.split(b"\n")
    try:
        return [line.decode() for line in raw]
    except UnicodeDecodeError as exc:  # exc.object: the first line that fails
        raise ValueError(f"{where}:{raw.index(exc.object) + 1}: {exc}") from None


def adjacency_graph6_decode(lines, n):
    """graph6 text of order n as one (N, n, n) uint8 adjacency tensor, by
    unpacking every body bit and scattering it to its vertex pair, and the
    indices of the lines failing a check (width, header byte, character
    range, zero padding bits)."""
    count = len(lines)
    nbits = comb(n, 2)
    width = 1 + (nbits + 5) // 6
    lengths = np.fromiter(map(len, lines), dtype=np.int64, count=count)
    # code points, longer lines cut and shorter ones padded with NUL (below '?')
    cells = np.array(lines, dtype=f"<U{width}").view(np.uint32).reshape(count, width)
    body = cells[:, 1:] - np.uint32(63)  # characters below '?' wrap past 63
    bad = (lengths != width) | (cells[:, 0] != n + 63) | (body > 63).any(axis=1)
    bits = np.unpackbits((body.astype(np.uint8) << 2)[:, :, None], axis=2, count=6)
    bits = bits.reshape(count, -1)
    bad |= bits[:, nbits:].any(axis=1)
    adj = np.zeros((count, n, n), dtype=np.uint8)
    i, j = np.array(all_pairs(n), dtype=np.intp).reshape(-1, 2).T
    adj[:, i, j] = bits[:, :nbits]
    adj[:, j, i] = bits[:, :nbits]
    return adj, np.flatnonzero(bad)


def bit_rows(adj: np.ndarray) -> np.ndarray:
    """Per-vertex neighbour bit masks, shape (N, n), of an adjacency tensor,
    in the dtype np.min_scalar_type((1 << n) - 1)."""
    n = adj.shape[1]
    dtype = np.min_scalar_type((1 << n) - 1)
    return adj @ np.left_shift(np.ones(n, dtype=dtype), np.arange(n, dtype=dtype))


def brute_force_matching_number(g: Graph) -> int:
    """Exhaustive search over all matchings (tiny graphs)."""
    edges = g.edges()

    def rec(i: int, used: int) -> int:
        best = 0
        for j in range(i, len(edges)):
            u, v = edges[j]
            if used >> u & 1 or used >> v & 1:
                continue
            best = max(best, 1 + rec(j + 1, used | 1 << u | 1 << v))
        return best

    return rec(0, 0)


def odd_component_table_reference(g: Graph) -> bytes:
    """o(g-S) for every vertex subset S, indexed by the mask of S.

    Filled bit by bit, by remaining set R = V-S in increasing mask order:
    the component C of R's lowest vertex is flooded, and o(R) = o(R-C) +
    (|C| odd), where R-C < R has already been filled.
    """
    if g.n > SUBSET_SCAN_CAP:
        raise ValueError(f"subset scan capped at n <= {SUBSET_SCAN_CAP}")
    adj = g.adj
    full = (1 << g.n) - 1
    odd = bytearray(full + 1)
    for rem in range(1, full + 1):
        comp = 0
        frontier = rem & -rem
        while frontier:
            comp |= frontier
            nxt = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                nxt |= adj[low.bit_length() - 1]
            frontier = nxt & rem & ~comp
        odd[rem] = odd[rem & ~comp] + (comp.bit_count() & 1)
    return bytes(odd[::-1])  # mask S holds o(R) for R = full - S


def characteristic_polynomial_reference(matrix) -> tuple:
    """det(xI - M), ascending coefficients, by Faddeev-LeVerrier over Fractions.

    Every entry becomes a Fraction and every step is a nested-list product;
    an integral coefficient is returned as an int.
    """
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    coeffs = [Fraction(1)]  # coeffs[k] multiplies x^(n-k)
    mk = m
    for k in range(1, n + 1):
        if k > 1:
            shifted = [[mk[i][j] + (coeffs[-1] if i == j else 0) for j in range(n)]
                       for i in range(n)]
            mk = [[sum(m[i][t] * shifted[t][j] for t in range(n)) for j in range(n)]
                  for i in range(n)]
        coeffs.append(-sum(mk[i][i] for i in range(n)) / k)
    return tuple(int(c) if c.denominator == 1 else c for c in reversed(coeffs))


def odd_bridges_reference(g: Graph, keep=None) -> frozenset:
    """Odd bridges of the subgraph of g induced on `keep` (default: all).

    Deletes each edge (u, v) in turn and floods from u and from v over the
    edges left: it is an odd bridge iff v is no longer reachable from u and
    both sides have odd size.
    """
    keep = set(range(g.n) if keep is None else keep)
    edges = [e for e in g.edges() if e[0] in keep and e[1] in keep]

    def reach(start, nbrs):
        seen, stack = {start}, [start]
        while stack:
            for w in nbrs[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    found = set()
    for e in edges:
        nbrs = {v: [] for v in keep}
        for a, b in edges:
            if (a, b) != e:
                nbrs[a].append(b)
                nbrs[b].append(a)
        side = reach(e[0], nbrs)
        if e[1] not in side and len(side) % 2 == 1 and len(reach(e[1], nbrs)) % 2 == 1:
            found.add(e)
    return frozenset(found)


def brute_force_is_isomorphic(a: Graph, b: Graph) -> bool:
    """Min-over-permutations isomorphism check (tiny graphs)."""
    if a.n != b.n or a.m != b.m:
        return False
    target = set(b.edges())
    for perm in permutations(range(a.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in target
               for u, v in a.edges()):
            return True
    return False


def adjacency_matrix_exact(g: Graph) -> list[list[int]]:
    """The adjacency matrix as nested lists of Python ints."""
    return [[1 if g.has_edge(v, u) else 0 for u in range(g.n)] for v in range(g.n)]


def power_iteration_rho(g: Graph, iterations: int = 20000, tol: float = 1e-13) -> float:
    """Plain power iteration, a cross-check of the dense solver.

    Iterates on A + I so bipartite spectra (where +rho and -rho tie) still
    converge; the shift is removed from the Rayleigh quotient at the end.
    """
    if g.n == 0:
        raise ValueError("spectral radius undefined for the empty graph")
    a = adjacency_matrix(g) + np.eye(g.n)
    x = np.ones(g.n) / np.sqrt(g.n)
    rho = 0.0
    for _ in range(iterations):
        y = a @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        y /= norm
        new_rho = float(y @ a @ y)
        if abs(new_rho - rho) <= tol:
            return new_rho - 1.0
        rho = new_rho
        x = y
    return rho - 1.0


def spectral_mask_reference(gs, t, min_deg=None) -> list[bool]:
    """Which graphs pass the minimum-degree filter and meet spectral
    hypothesis t, with nothing pruned: every connected graph the filter
    keeps is eigensolved by `spectral_radius` and decided by `_meets`."""
    out = []
    for g in gs:
        threshold = hypothesis_threshold(t, g.n)
        low = min_degree(g)
        keep = (min_deg is None or low >= min_deg) and is_connected(g)
        out.append(bool(keep and _meets(t, threshold, spectral_radius(g).rho, True, low)))
    return out


def perfect_matchings_reference(n: int) -> set[frozenset[tuple[int, int]]]:
    """The perfect matchings of K_n, each a set of pairs (u, v), u < v: the
    lowest unmatched vertex is paired with each other one in turn."""
    def extend(rest):
        if not rest:
            yield frozenset()
        for i in range(1, len(rest)):
            for tail in extend(rest[1:i] + rest[i + 1:]):
                yield tail | {(rest[0], rest[i])}

    return set(extend(tuple(range(n))))


def source_graph6_lines(source) -> list[str]:
    """A source's graph6 lines, in its order: a file's own lines, and the
    built-in enumerator's graphs each encoded by `to_graph6`."""
    if isinstance(source, BuiltIn):
        return [to_graph6(g) for g in enumerate_connected(source.n)]
    return source.graph6_lines()


def graphs_without_pm_reference(lines: list[str]) -> list[str]:
    """The graph6 lines, in order, of the graphs with no perfect matching.

    One graph at a time: parse, blossom, then the Berge-Tutte witness,
    re-validated by an explicit odd-component count.
    """
    out = []
    for line in lines:
        g = parse_graph6(line)
        if has_perfect_matching(g):
            continue
        d, witness = berge_tutte_deficiency(g)
        assert d >= 2 and odd_components(g, witness) >= len(witness) + 2, line
        out.append(line)
    return out


def tutte_eliminate_reference(t, p: int):
    """(det T mod p, T^-1 mod p as nested lists, or None if det T = 0) of
    one square matrix, by Gauss-Jordan elimination over GF(p) in Python
    ints: each pivot row is divided by its pivot, so no value exceeds p."""
    n = len(t)
    a = [[int(x) % p for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(t)]
    det = 1
    for c in range(n):
        r = next((i for i in range(c, n) if a[i][c]), None)
        if r is None:
            return 0, None
        if r != c:
            a[c], a[r] = a[r], a[c]
            det = -det
        det = det * a[c][c] % p
        scale = pow(a[c][c], -1, p)
        a[c] = [x * scale % p for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return det, [row[n:] for row in a]
