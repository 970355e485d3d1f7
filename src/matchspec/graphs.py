"""Simple undirected graphs on labeled vertices 0..n-1.

Vertices are small integers and adjacency is kept as per-vertex bit masks,
which makes adjacency tests O(1) and component/subset scans cheap.  Graphs
have no order cap; the graph6 codec stops at n <= 62, its short format.
All graphs are immutable after construction; every operation returns a new
Graph, so values can be shared freely.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np


class Graph:
    """Immutable simple graph: no loops, symmetric adjacency."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(adj) != n:
            raise ValueError("adjacency table size does not match vertex count")
        full = (1 << n) - 1
        ends = 0  # directed pairs (v, u)
        for v, mask in enumerate(adj):
            if mask & ~full:
                raise ValueError(f"vertex {v} has a neighbor out of range")
            if mask >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            ends += mask.bit_count()
        # Each pair (v, u) with u > v whose reverse (u, v) is there maps
        # to that reverse, one-to-one; if these pairs are half of all, the
        # pairs with u < v are as many, so every pair is matched both ways.
        matched = 0
        for v, mask in enumerate(adj):
            m = mask >> v
            while m:
                low = m & -m
                m ^= low
                if not adj[v + low.bit_length() - 1] >> v & 1:
                    break
                matched += 1
        if 2 * matched != ends:  # name the first one-sided pair
            for v, mask in enumerate(adj):
                m = mask
                while m:
                    u = (m & -m).bit_length() - 1
                    m &= m - 1
                    if not adj[u] >> v & 1:
                        raise ValueError(f"asymmetric adjacency between {v} and {u}")
        self.n = n
        self.adj = tuple(adj)

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(mask.bit_count() for mask in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int):
        """Neighbors of v in increasing order."""
        m = self.adj[v]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            yield u

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, lexicographically sorted."""
        out = []
        for v in range(self.n):
            m = self.adj[v] >> (v + 1) << (v + 1)
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                out.append((v, u))
        return out

    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees in nonincreasing order."""
        return tuple(sorted((mask.bit_count() for mask in self.adj), reverse=True))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def from_edge_list(n: int, edges) -> Graph:
    """Graph with the given edges; duplicate pairs collapse."""
    adj = [0] * n
    for u, v in edges:
        _check_edge(n, u, v)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def _check_edge(n: int, u: int, v: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u},{v}) out of range for n={n}")
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# graph6 codec (short format, n <= 62)
# ---------------------------------------------------------------------------

def graph6_text(line: str) -> str:
    """One input line stripped, nauty's optional `>>graph6<<` prefix dropped;
    empty if it holds no graph (blank, a '#' comment or a bare header)."""
    line = line.strip()
    if not line.startswith(("#", ">>graph6<<")):  # one test for most lines
        return line
    return "" if line.startswith("#") else line[len(">>graph6<<"):]


@lru_cache(maxsize=8)
def _graph6_tables(n: int):
    """The decode state of order n, read-only: (dtype, table, chars, offsets).

    Row j of the lower triangle, j's neighbours i < j, is the bit field of
    column j, which spans a few body characters.  For every row j and each
    character p it spans, `table[offsets[k, j] + v]` holds the bits that
    character value v sets in row j, k counting j's characters, and
    `chars[k, j]` is p.  Rows spanning fewer characters than the most point
    their other slots at character 0 and a zero block.  About 200 KB at
    n = 62.
    """
    dtype = np.min_scalar_type((1 << n) - 1)
    spans = [{} for _ in range(n)]  # row j -> character p -> [(bit of p, i)]
    for slot, (i, j) in enumerate(all_pairs(n)):
        spans[j].setdefault(slot // 6, []).append((5 - slot % 6, i))
    depth = max(map(len, spans), default=0)
    chars = np.zeros((depth, n), dtype=np.intp)
    offsets = np.zeros((depth, n, 1), dtype=np.intp)
    values = np.arange(64)
    blocks = [np.zeros(64, dtype=dtype)]
    for j, span in enumerate(spans):
        for k, (p, bits) in enumerate(span.items()):
            chars[k, j], offsets[k, j] = p, 64 * len(blocks)
            blocks.append(sum((values >> b & 1) << i for b, i in bits).astype(dtype))
    table = np.concatenate(blocks)
    for a in (table, chars, offsets):
        a.flags.writeable = False
    return dtype, table, chars, offsets


def _code_points(lines: list[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """The first `width` code points of each line, shorter lines padded with
    NUL (below '?'), as an (N, width) uint32 array, and which lines are not
    `width` long.  When every line is, they are read from one encoded buffer
    of the lines, no per-line step."""
    count = len(lines)
    text = "\n".join(lines) + "\n"
    if len(text) == count * (width + 1) and text.count("\n") == count:  # no line holds "\n"
        cells = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        cells = cells.reshape(count, width + 1)
        if (cells[:, width] == 10).all():  # so every line is width long
            return cells[:, :width], np.zeros(count, dtype=bool)
    lengths = np.fromiter(map(len, lines), dtype=np.int64, count=count)
    cells = np.array(lines, dtype=f"<U{width}").view(np.uint32).reshape(count, width)
    return cells, lengths != width


def _transpose_bits(square: np.ndarray) -> None:
    """Transpose in place the bit matrix held by each column of a (w, N)
    array of w-bit integers, entry r of a column being its row r: the
    recursive block swap of Warren, Hacker's Delight (2nd ed.), 7-3.  Each
    pass swaps the upper-right and lower-left s x s blocks of every 2s x 2s
    diagonal block."""
    w = len(square)
    s = w // 2
    while s:
        low = square.dtype.type(((1 << w) - 1) // ((1 << 2 * s) - 1) * ((1 << s) - 1))
        shift = square.dtype.type(s)
        blocks = square.reshape(w // (2 * s), 2, s, -1)
        top, bottom = blocks[:, 0], blocks[:, 1]
        swap = top >> shift
        swap ^= bottom
        swap &= low
        bottom ^= swap
        swap <<= shift
        top ^= swap
        s //= 2


def _decode_graph6(lines: list[str], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode graph6 text of order n into (N, n) neighbour bit rows.

    Bit layout: header byte n+63, then one bit per vertex pair in `all_pairs`
    order, packed big-endian into 6-bit groups, each group offset by 63.
    rows[g, v] is the neighbour mask of vertex v in line g, in the dtype
    np.min_scalar_type((1 << n) - 1).  Each row's lower triangle is looked
    up per body character in `_graph6_tables`, and the upper one is its bit
    transpose.  Also returns the indices of the lines
    failing a check (width, header byte, character range, zero padding
    bits), whose rows are garbage.
    """
    nbits = comb(n, 2)
    width = 1 + (nbits + 5) // 6
    cells, bad = _code_points(lines, width)
    body = np.ascontiguousarray(cells[:, 1:].T) - np.uint32(63)  # below '?' wraps past 63
    bad |= (cells[:, 0] != n + 63) | (body > 63).any(axis=0)
    bad |= (body[-1:] & ((1 << (6 * (width - 1) - nbits)) - 1)).any(axis=0)
    body &= 63
    dtype, table, chars, offsets = _graph6_tables(n)
    lower = np.bitwise_or.reduce(table.take(body[chars] + offsets), axis=0)
    square = np.zeros((8 * dtype.itemsize, len(lines)), dtype=dtype)
    square[:n] = lower
    _transpose_bits(square)
    square[:n] |= lower
    return np.ascontiguousarray(square[:n].T), np.flatnonzero(bad)


def parse_graph6(text: str) -> Graph:
    """Decode one line of graph6 (short format only), read by `graph6_text`."""
    return _from_graph6_text(graph6_text(text))


def _from_graph6_text(line: str) -> Graph:
    """Decode graph6 text as `graph6_text` leaves it, naming its first fault."""
    if not line:
        raise ValueError("empty graph6 line")
    first = ord(line[0])
    if first == 126:
        raise ValueError("long graph6 format (n > 62) is not supported")
    if not 63 <= first <= 125:
        raise ValueError(f"bad graph6 header byte {first}")
    n = first - 63
    body = line[1:]
    nchars = (comb(n, 2) + 5) // 6
    if len(body) != nchars:
        raise ValueError(
            f"graph6 body has {len(body)} chars, expected {nchars} for n={n}")
    rows, bad = _decode_graph6([line], n)
    if bad.size:  # a character out of range, else a padding bit
        for ch in body:
            if not 63 <= ord(ch) <= 126:
                raise ValueError(f"graph6 char {ch!r} out of range")
        raise ValueError("nonzero padding bits in graph6 body")
    return Graph(n, tuple(rows[0].tolist()))


def to_graph6(g: Graph) -> str:
    """Encode in graph6 short format for this labeling (no canonicalization)."""
    if g.n > 62:
        raise ValueError("graph6 short format supports n <= 62 only")
    bits = "".join(["01"[g.adj[i] >> j & 1] for i, j in all_pairs(g.n)])
    bits += "0" * (-len(bits) % 6)
    return chr(g.n + 63) + "".join([chr(int(bits[k:k + 6], 2) + 63)
                                    for k in range(0, len(bits), 6)])


def parse_edge_list(lines, where: str = "edge list") -> Graph:
    """Parse the plain text format from its lines: first n, then one 'u v'
    pair per line; blank and '#' lines are skipped.  A line that does not
    parse, or names an order below 1, an edge out of range or a loop, raises
    ValueError starting `where:K:`, K its 1-based number."""
    n, edges = None, []
    for number, line in enumerate(lines, 1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            if n is None:
                n = int(line)
                if n < 0:
                    raise ValueError("vertex count must be nonnegative")
                if n == 0:
                    raise ValueError("vertex count must be at least 1, got 0")
            elif len(parts) != 2:
                raise ValueError(f"bad edge line: {line.strip()!r}")
            else:
                edges.append((int(parts[0]), int(parts[1])))
                _check_edge(n, *edges[-1])
        except ValueError as exc:
            raise ValueError(f"{where}:{number}: {exc}") from None
    if n is None:
        raise ValueError(f"{where}: empty edge list input")
    return from_edge_list(n, edges)


# ---------------------------------------------------------------------------
# Construction algebra
# ---------------------------------------------------------------------------

def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Vertices of b are relabeled by +a.n."""
    adj = list(a.adj) + [mask << a.n for mask in b.adj]
    return Graph(a.n + b.n, tuple(adj))


def join(a: Graph, b: Graph) -> Graph:
    """Disjoint union plus all a.n * b.n cross edges."""
    amask = (1 << a.n) - 1
    bmask = ((1 << b.n) - 1) << a.n
    adj = [mask | bmask for mask in a.adj]
    adj += [(mask << a.n) | amask for mask in b.adj]
    return Graph(a.n + b.n, tuple(adj))


def delete_vertices(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the complement of `vertices`.

    Returns (subgraph, kept) where kept[i] is the original label of the
    subgraph's vertex i; the relabeling is order preserving.
    """
    drop = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        drop |= 1 << v
    kept = [v for v in range(g.n) if not drop >> v & 1]
    pos = {v: i for i, v in enumerate(kept)}
    adj = []
    for v in kept:
        mask = 0
        rem = g.adj[v] & ~drop
        while rem:
            u = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            mask |= 1 << pos[u]
        adj.append(mask)
    return Graph(len(kept), tuple(adj)), tuple(kept)


# ---------------------------------------------------------------------------
# Structure queries
# ---------------------------------------------------------------------------

def _component_masks(adj, remaining: int) -> list[int]:
    """Connected components of the subgraph induced on `remaining`, as bit masks."""
    comps = []
    rem = remaining
    while rem:
        v = (rem & -rem).bit_length() - 1
        comp = 0
        frontier = 1 << v
        while frontier:
            comp |= frontier
            nxt = 0
            f = frontier
            while f:
                u = (f & -f).bit_length() - 1
                f &= f - 1
                nxt |= adj[u]
            frontier = nxt & remaining & ~comp
        comps.append(comp)
        rem &= ~comp
    return comps


def _mask_to_vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.append(v)
    return tuple(out)


def components(g: Graph) -> list[frozenset[int]]:
    """Vertex sets of the connected components, ordered by smallest member."""
    full = (1 << g.n) - 1
    return [frozenset(_mask_to_vertices(c)) for c in _component_masks(g.adj, full)]


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        raise ValueError("connectivity undefined for the empty graph")
    full = (1 << g.n) - 1
    return len(_component_masks(g.adj, full)) == 1


_BYTE_POPCOUNT = np.array([b.bit_count() for b in range(256)], dtype=np.uint8)
_BYTE_POPCOUNT.flags.writeable = False


def _popcount(masks: np.ndarray) -> np.ndarray:
    """The number of set bits of each entry of an unsigned integer array, as
    uint8, summed over its bytes from a lookup (np.bitwise_count needs
    numpy 2)."""
    # take, as numpy fancy-indexes with a uint8 index on its slower cast path
    counts = _BYTE_POPCOUNT.take(np.ascontiguousarray(masks).view(np.uint8))
    return counts.reshape(*masks.shape, masks.itemsize).sum(axis=-1, dtype=np.uint8)


def _adjacency(rows: np.ndarray, dtype) -> np.ndarray:
    """The 0/1 adjacency matrices, in `dtype`, of a batch of (N, n) neighbour
    bit rows, laid out (n, n, N), C-contiguous: graph i's is [:, :, i].  The
    rows are transposed first, or numpy would keep their batch-first strides."""
    n = rows.shape[1]
    return (rows.T.copy()[:, None] >> np.arange(n, dtype=rows.dtype)[:, None] & 1).astype(dtype)


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("minimum degree undefined for the empty graph")
    return min(mask.bit_count() for mask in g.adj)


def odd_components(g: Graph, vertices) -> int:
    """Number of odd-order components of g minus the given vertex set."""
    drop = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        drop |= 1 << v
    remaining = ((1 << g.n) - 1) & ~drop
    return sum(1 for c in _component_masks(g.adj, remaining) if c.bit_count() % 2 == 1)


# ---------------------------------------------------------------------------
# Isomorphism (exact backtracking with color refinement; intended for n <= 12)
# ---------------------------------------------------------------------------

def _stable_colors(g: Graph) -> list[int]:
    """Iterated degree refinement; color ids are label independent."""
    colors = [g.degree(v) for v in range(g.n)]
    for _ in range(g.n):
        keys = []
        for v in range(g.n):
            nbr = tuple(sorted(colors[u] for u in g.neighbors(v)))
            keys.append((colors[v], nbr))
        order = {key: i for i, key in enumerate(sorted(set(keys)))}
        new = [order[k] for k in keys]
        if new == colors:
            break
        colors = new
    return colors


def are_isomorphic(a: Graph, b: Graph) -> bool:
    """Exact test via refinement-pruned backtracking.

    May be slow above roughly 12 vertices; in the sweeps it only runs on
    the handful of surviving graphs.
    """
    if a.n != b.n or a.m != b.m:
        return False
    if a.degree_sequence() != b.degree_sequence():
        return False
    ca, cb = _stable_colors(a), _stable_colors(b)
    if sorted(ca) != sorted(cb):
        return False
    # Map a's vertices in order of rarest color, most constrained first.
    count = {}
    for c in ca:
        count[c] = count.get(c, 0) + 1
    order = sorted(range(a.n), key=lambda v: (count[ca[v]], -a.degree(v), v))
    candidates = {v: [u for u in range(b.n) if cb[u] == ca[v]] for v in order}

    mapping = [-1] * a.n
    used = [False] * b.n

    def extend(i: int) -> bool:
        if i == a.n:
            return True
        v = order[i]
        for u in candidates[v]:
            if used[u]:
                continue
            ok = True
            for w in order[:i]:
                if a.has_edge(v, w) != b.has_edge(u, mapping[w]):
                    ok = False
                    break
            if ok:
                mapping[v] = u
                used[u] = True
                if extend(i + 1):
                    return True
                used[u] = False
                mapping[v] = -1
        return False

    return extend(0)


def all_pairs(n: int):
    """All vertex pairs (i, j), i < j, in graph6 column order."""
    return [(i, j) for j in range(1, n) for i in range(j)]


__all__ = [
    "Graph", "from_edge_list", "empty_graph", "complete_graph", "cycle_graph",
    "path_graph", "graph6_text", "parse_graph6", "to_graph6", "parse_edge_list",
    "disjoint_union", "join", "delete_vertices", "components", "is_connected",
    "min_degree", "odd_components", "are_isomorphic", "all_pairs",
]
