"""Maximum matching and matching extension/exclusion checks.

Two independent routes are kept for every decision: a direct search
(blossom-based maximum matching, explicit enumeration of small matchings)
and a structural criterion route (odd-component counting over vertex
subsets).  The test suite relies on both routes agreeing on exhaustive
small-graph sweeps, so neither side may call into the other.

The direct route computes one maximum matching M per graph and reuses it.
A k-matching F extends exactly when g - V(F) has a perfect matching: M
minus the edges touching V(F) leaves at most 2k vertices exposed, and one
augmenting search (Edmonds' blossom algorithm) from each vertex still
exposed, on the adjacency masks with V(F) masked out, decides it.  An
edge e of M is avoided by a perfect matching exactly when one search from
an end of e succeeds in g - e; every edge outside M is avoided by M
itself (Lovasz-Plummer, Matching Theory, 1986).  No Graph is built inside
these loops, and both direct checks memoise their verdicts for the last
few graphs, so asking about one graph several times pays for one
decision.  k-extendability builds the k-matchings as numpy rows, in
lexicographic edge order and in blocks of bounded size.

Before any search, a certificate settles many cases at once.  g - V(F)
has a perfect matching iff the minor det T[V-V(F)] of the Tutte matrix is
a nonzero polynomial (Lovasz, "On determinants, matchings, and random
algorithms", 1979); with B = T^-1 it equals det T * Pf(B[V(F), V(F)])^2
(the identity behind Rabin and Vazirani, "Maximum matchings in general
graphs through randomization", 1989), det T * B[u, v]^2 for k = 1.  T is
inverted over GF(TUTTE_PRIME) at fixed weights, and `_tutte_inverse`
keeps the last graph's inverse, so a graph is inverted at most once
however many queries read it.  A graph with a perfect matching and more
than _CERTIFY_ROWS 2-matchings is inverted on its first query, whichever
it is; k-extendability then reads the Pfaffians of every block, B[u, v]
for k = 1, and 1-excludability the value 1 + w B[u, v] of each edge of M
(below).  On any other graph only a block of more than _CERTIFY_ROWS
k-matchings, as a large k asks for, reads the inverse; 1-excludability
does not.  A nonzero value is a proof whatever the weights, since a
polynomial with a nonzero value is not the zero polynomial; a zero may be
an unlucky weight choice, so it goes to the blossom search, as does every
case when T is singular.  A graph with few 2-matchings, every graph of
order 6 or less among them, is cheaper to search than to invert.

A sweep settles 1-extendability and 1-excludability for a whole batch of
graphs from one elimination (`_tutte_certified`).  `_tutte_eliminate`
inverts every Tutte matrix of the batch at once by division-free
Gauss-Jordan elimination, each stack laid out (n, n, N) from
`graphs._adjacency` on, and residues held as float64 integers, exact
because TUTTE_PRIME < 2^26; `_tutte_inverse` is a batch of one through it.
With B = T^-1, g - u - v has a perfect matching iff B[u, v] != 0 (the
k = 1 Pfaffian above).  For an edge e = uv, u < v, of weight w = T[u, v],
the Tutte matrix of g - e is the rank-2 update T - w (E_uv - E_vu) =
T + U V^t, with U = w [-e_u, e_v] and V = [e_v, e_u].  By the matrix
determinant lemma, det(T + U V^t) = det T * det(I + V^t B U), and
V^t B U = w [[-B_vu, B_vv], [-B_uu, B_uv]] = w B_uv I because B is
skew-symmetric (zero diagonal, B_vu = -B_uv).  So
det T_(g-e) = det T * (1 + w B[u, v])^2, and 1 + w B[u, v] != 0 proves
that g - e has a perfect matching.  As above, a nonzero value is a proof
whatever the weights, and a zero, or a singular T, proves nothing.

The criterion route scans the vertex subsets of a graph once: a private
table holds o(g-S) for every subset mask S, and the Berge-Tutte
deficiency, the k-extendability criterion and the 1-excludability
criterion all read it.  The table of the most recent graph is memoised,
so checking one graph several ways pays for one scan.  One routine,
`_odd_component_counts`, fills the tables of a batch of graphs with numpy,
for every remaining set R = V-S of every graph at once: a batched flood
grows the component C of R's lowest vertex one breadth-first layer per
pass, then o(R) = o(R-C) + [|C| odd] is summed along the links R -> R-C.
It returns one row per graph, indexed by S; a single graph's table is a
batch of one, and the deficiency suites scan their graphs without a
perfect matching in batches of bounded size.  The readers scan the table
as arrays and run Python only on the subsets that could violate their
criterion, in mask order, so every witness is the first.  A table at
n = SUBSET_SCAN_CAP = 20 takes about 0.1 s and 25 MB to build; 1 MB stays.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, count
from math import comb

import numpy as np

from .graphs import (_BYTE_POPCOUNT, Graph, _adjacency, _component_masks, _mask_to_vertices,
                     is_connected)

SUBSET_SCAN_CAP = 20


@dataclass(frozen=True)
class MatchingResult:
    """A matching as a sorted tuple of (u, v) pairs with u < v."""

    edges: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Verdict:
    """Outcome of an extendability/excludability check.

    When holds is False the witness is re-checkable: a vertex set violating
    the criterion, a matching that fails to extend, or an edge with no
    avoiding perfect matching.  `reason` is a short machine-readable tag.
    """

    holds: bool
    method: str
    witness: object = None
    reason: str | None = None


# ---------------------------------------------------------------------------
# Maximum matching (blossom algorithm)
# ---------------------------------------------------------------------------

def _find_augmenting_path(adj, match: list[int], root: int) -> bool:
    """Search for an augmenting path from the exposed vertex `root`.

    `adj` holds per-vertex neighbour bit masks and `match` the current
    matching (-1 = exposed).  On success the path is flipped in `match`.
    """
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[root] = True
    queue = deque([root])

    def lca(a: int, b: int) -> int:
        seen = 0
        while True:
            a = base[a]
            seen |= 1 << a
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen >> b & 1:
                return b
            b = parent[match[b]]

    def mark_path(v: int, stem: int, child: int, blossom: list[bool]) -> None:
        while base[v] != stem:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        nb = adj[v]
        while nb:
            low = nb & -nb
            nb ^= low
            to = low.bit_length() - 1
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # odd cycle: contract the blossom down to its stem
                stem = lca(v, to)
                blossom = [False] * n
                mark_path(v, stem, to, blossom)
                mark_path(to, stem, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = stem
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    # augment along the alternating path back to the root
                    while to != -1:
                        prev = parent[to]
                        nxt = match[prev]
                        match[to] = prev
                        match[prev] = to
                        to = nxt
                    return True
                used[match[to]] = True
                queue.append(match[to])
    return False


def _maximum_match(adj) -> list[int]:
    """Partner of every vertex in a maximum matching (-1 = exposed).

    A greedy pass matches each vertex to its lowest free neighbour, then one
    augmenting search runs from each vertex still exposed.
    """
    n = len(adj)
    match = [-1] * n
    free = (1 << n) - 1
    for v in range(n):
        if free >> v & 1:
            cand = adj[v] & free
            if cand:
                u = (cand & -cand).bit_length() - 1
                match[v] = u
                match[u] = v
                free &= ~(1 << v | 1 << u)
    for v in range(n):
        if match[v] == -1:
            _find_augmenting_path(adj, match, v)
    return match


def _perfect_after_deleting(adj, match: list[int], drop: int) -> bool:
    """Does the graph minus the vertex set `drop` have a perfect matching?

    `match` is a perfect matching of the whole graph and is left unchanged.
    The M-partners of dropped vertices that survive are the only exposed
    vertices; a perfect matching P of what remains exists exactly when an
    augmenting path starts at every one of them in turn (the symmetric
    difference with P holds one from each exposed vertex).
    """
    mate = match.copy()
    exposed = 0
    rest = drop
    while rest:
        low = rest & -rest
        rest ^= low
        partner = mate[low.bit_length() - 1]
        if not drop >> partner & 1:
            exposed |= 1 << partner
            mate[partner] = -1
    if not exposed:
        return True
    keep = ~drop
    sub = [a & keep for a in adj]
    while exposed:
        low = exposed & -exposed
        exposed ^= low
        root = low.bit_length() - 1
        if mate[root] == -1 and not _find_augmenting_path(sub, mate, root):
            return False
    return True


def max_matching(g: Graph) -> MatchingResult:
    """A maximum matching of g."""
    match = _maximum_match(g.adj)
    edges = tuple(sorted((v, match[v]) for v in range(g.n) if match[v] > v))
    return MatchingResult(edges)


def matching_number(g: Graph) -> int:
    return max_matching(g).size


def has_perfect_matching(g: Graph) -> bool:
    return g.n % 2 == 0 and -1 not in _maximum_match(g.adj)


# ---------------------------------------------------------------------------
# Odd-component table and Berge-Tutte deficiency (criterion route)
# ---------------------------------------------------------------------------

def _popcounts(n: int) -> np.ndarray:
    """|S| for every subset mask S of n vertices (uint8, indexed by mask).

    Built from the byte lookup, one outer sum per further byte.  Not to be
    written to: for n <= 8 it is a read-only view of that lookup.
    """
    pc = _BYTE_POPCOUNT[:1 << min(n, 8)]
    for low in range(8, n, 8):
        pc = np.add.outer(_BYTE_POPCOUNT[:1 << min(n - low, 8)], pc).ravel()
    return pc


def _odd_component_counts(rows) -> np.ndarray:
    """o(g_i - S) for every vertex set S of each graph g_i of a batch, as an
    (N, 2^n) uint8 table indexed [i, S]: the layout every reader scans.

    rows[i][v] is the neighbour bit mask of vertex v in graph i: rows is an
    (N, n) array, or a list of one graph's adjacency.  Exponential in n;
    refuses n > SUBSET_SCAN_CAP.  The work runs on the remaining sets
    R = full - S, at addresses i << n | R (R alone in a batch of one
    graph), so every pass covers all sets R of all graphs at once:
    - flood: the component C of R's lowest vertex starts as that vertex
      and grows to (C + N(C)) & R, read from a table of C + N(C) for every
      mask, until no mask grows (one pass per breadth-first layer);
    - count: o(R) = [|C| odd] + o(R-C), summed along the links R -> R-C
      -> ... -> 0 by pointer doubling (ceil(log2 n) passes at most); every
      chain ends at address 0, whose count is 0.
    At n = SUBSET_SCAN_CAP (2^20 masks) one graph takes about 0.1 s and
    24 bytes per mask (25 MB) of work arrays, and its counts are 1 MB.
    """
    count, n = len(rows), len(rows[0])
    if n > SUBSET_SCAN_CAP:
        raise ValueError(f"subset scan capped at n <= {SUBSET_SCAN_CAP}")
    full = (1 << n) - 1
    rem = np.arange(count << n, dtype=np.uint32)
    closed = np.zeros(count << n, dtype=np.uint32)  # i << n | C + N(C) for every mask C
    comp = rem & -rem
    if count == 1:
        table, cols = closed, [nb | 1 << v for v, nb in enumerate(rows[0])]
    else:
        graph = rem & ~np.uint32(full)  # i << n
        comp |= graph
        table = closed.reshape(count, 1 << n).T  # table[C] holds every graph's C
        table[0] = graph[::1 << n]
        cols = (rows | np.left_shift(1, np.arange(n, dtype=np.uint32))).T
    for v, col in enumerate(cols):
        np.bitwise_or(table[:1 << v], col, out=table[1 << v:2 << v])
    # every gather below goes through take: numpy fancy-indexes with a uint32
    # index on its general cast path, two to three times slower than take,
    # which converts the index to intp once (8 bytes per mask while it runs)
    while True:
        grown = closed.take(comp)
        grown &= rem
        if (grown == comp).all():
            break
        comp = grown
    del closed, table, grown  # freed before the count pass allocates its own
    odd = _popcounts(n).take(comp & full if count > 1 else comp) & 1
    rest = np.bitwise_xor(rem, comp, out=comp)  # R - C
    del rem
    if count > 1:
        np.bitwise_or(rest, graph, out=rest, where=rest != 0)
    while rest.any():
        odd += odd.take(rest)
        rest = rest.take(rest)
    # index by S = full - R; a copy, as numpy compares a reversed view slowly
    return np.ascontiguousarray(odd.reshape(count, 1 << n)[:, ::-1])


def _deficiencies(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max over S of o(g-S) - |S|, and the first mask S in mask order that
    attains it, for each row of odd-component tables."""
    excess = tables.astype(np.int16)
    excess -= _popcounts(tables.shape[-1].bit_length() - 1)
    return excess.max(axis=-1), excess.argmax(axis=-1)


_SCAN_ENTRIES = 1 << 16  # subset masks of the graphs scanned at once (256 KB per work array)


def _berge_tutte_deficiencies(rows: np.ndarray) -> list[tuple[int, frozenset[int]]]:
    """`berge_tutte_deficiency` of each graph of an (N, n) array of
    neighbour masks, at most max(1, _SCAN_ENTRIES >> n) graphs per scan."""
    out = []
    step = max(1, _SCAN_ENTRIES >> rows.shape[1])
    for start in range(0, len(rows), step):
        deficiency, best = _deficiencies(_odd_component_counts(rows[start:start + step]))
        out += [(d, frozenset(_mask_to_vertices(s)))
                for d, s in zip(deficiency.tolist(), best.tolist())]
    return out


@lru_cache(maxsize=1)
def _odd_component_table(g: Graph) -> np.ndarray:
    """g's row of `_odd_component_counts`, read-only: the cache shares it."""
    table = _odd_component_counts([g.adj])[0]
    table.flags.writeable = False
    return table


def berge_tutte_deficiency(g: Graph) -> tuple[int, frozenset[int]]:
    """max over S of (odd components of g-S) - |S|, with a maximizing S.

    Exponential in n; refuses n > SUBSET_SCAN_CAP.  The matching number
    satisfies 2*nu = n - deficiency.  The first maximizing S in mask order
    is returned.
    """
    deficiency, best = _deficiencies(_odd_component_table(g))
    return int(deficiency), frozenset(_mask_to_vertices(int(best)))


# ---------------------------------------------------------------------------
# k-extendability
# ---------------------------------------------------------------------------

TUTTE_PRIME = 67_108_859  # 2^26 - 5, the largest prime below 2^26, so 2 p^2 < 2^53
_BLOCK_ROWS = 1 << 14  # k-matchings held as arrays at once
_CERTIFY_ROWS = 200  # about where the certificate starts to cost less than searching
_TUTTE_ENTRIES = 1 << 17  # float64 entries of [T | I] eliminated at once (1 MB)


def _k_matching_blocks(meets: np.ndarray, k: int):
    """Every k-matching as rows of k edge indices, in lexicographic order.

    `meets[i, j]` says whether edges i and j share a vertex (true for i = j).
    Yields int64 arrays of at most _BLOCK_ROWS rows (or of m rows, if the
    graph has more edges than that), so memory stays bounded however many
    k-matchings there are.  Each block of (k-1)-matchings is extended by
    every later edge that shares no vertex with it; np.nonzero walks the
    rows in order and each row's edges in increasing index, which keeps the
    order lexicographic.
    """
    m = len(meets)
    if k == 1:
        for start in range(0, m, _BLOCK_ROWS):
            yield np.arange(start, min(start + _BLOCK_ROWS, m))[:, None]
        return
    later = np.arange(m)
    step = max(1, _BLOCK_ROWS // m)
    for prefixes in _k_matching_blocks(meets, k - 1):
        for start in range(0, len(prefixes), step):
            rows = prefixes[start:start + step]
            free = later > rows[:, -1:]
            for col in rows.T:
                free &= ~meets.take(col, axis=0)
            row, nxt = np.nonzero(free)
            if len(row):
                yield np.column_stack((rows.take(row, axis=0), nxt))


@lru_cache(maxsize=8)
def _tutte_weights(n: int) -> np.ndarray:
    """The Tutte matrix of K_n over GF(TUTTE_PRIME) at fixed weights.

    W[u, v] = w(u, v) = p - W[v, u] for u < v, with w(u, v) in [1, p-1]
    hashed from (u, v); a graph's Tutte matrix is W on its edges and 0
    elsewhere.  Read-only.
    """
    u, v = (x.astype(np.uint64) for x in np.triu_indices(n, 1))
    key = (u << np.uint64(32) | v) * np.uint64(0x9E3779B97F4A7C15)  # wraps mod 2^64
    w = ((key ^ key >> np.uint64(29)) % np.uint64(TUTTE_PRIME - 1)).astype(np.int64) + 1
    weights = np.zeros((n, n), dtype=np.int64)
    weights[u.astype(np.intp), v.astype(np.intp)] = w
    weights[v.astype(np.intp), u.astype(np.intp)] = TUTTE_PRIME - w
    weights.flags.writeable = False
    return weights


def _tutte_eliminate(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, r) with diag(d) T^-1 = r over GF(TUTTE_PRIME), for each T of an
    (n, n, N) stack, the batch last; a singular T leaves a zero in its d.

    Division-free Gauss-Jordan elimination on [T | I], one pivot column of
    every matrix per pass: the first row at or below the diagonal with a
    nonzero entry in the column is swapped onto the diagonal, and every
    other row i becomes pivot * row_i - a[i, c] * pivot row.  The left half
    ends as diag(d) and the right half as diag(d) T^-1.

    The work array is (n, 2n, N), so every pass runs over contiguous rows
    of N entries into buffers allocated once.  Entries are float64
    integers, reduced after every pass as x - p * rint(x / p) for
    p = TUTTE_PRIME < 2^26: a reduced entry is below p in magnitude, so an
    update pivot * a - a' * b is below 2 p^2 < 2^53 and every value is
    exact.  d and r are (n, N) and (n, n, N) views of the work array, with
    entries in (-p, p).
    """
    n, count = t.shape[1:]
    p = TUTTE_PRIME
    a = np.zeros((n, 2 * n, count))
    a[:, :n] = t
    entries = a.reshape(2 * n * n, count)  # entry (i, j) at row i * 2n + j
    entries[n::2 * n + 1] = 1
    below, pivot = np.empty_like(a), np.empty_like(a[0])
    index = np.empty(pivot.shape, dtype=np.intp)
    at = np.arange(pivot.size, dtype=np.intp).reshape(pivot.shape)  # a row's entries, flat
    for c in range(n):
        if a[c, c].all():
            np.copyto(pivot, a[c])
        else:
            rest = a[c:]
            np.add(at, (rest[:, c] != 0).argmax(0) * pivot.size, out=index)
            rest = rest.reshape(-1)  # a view: rows c.. of a are contiguous
            rest.take(index, out=pivot)
            rest[index] = a[c]
        np.multiply(a[:, c, None], pivot, out=below)
        a *= pivot[c]
        a -= below
        np.multiply(a, 1 / p, out=below)
        np.rint(below, out=below)
        below *= p
        a -= below
        a[c] = pivot
    return entries[::2 * n + 1], a[:, n:]


@lru_cache(maxsize=1)
def _tutte_inverse(g: Graph) -> np.ndarray | None:
    """Inverse over GF(TUTTE_PRIME) of the Tutte matrix of g at the weights
    of `_tutte_weights`, or None when it is singular at those weights.

    A batch of one through `_tutte_eliminate`, its T built as
    `_tutte_certified` builds a batch's.  The inverse of a skew-symmetric
    matrix is skew-symmetric.
    """
    p = TUTTE_PRIME
    rows = np.array([g.adj], dtype=np.min_scalar_type((1 << g.n) - 1))
    d, r = _tutte_eliminate(np.where(_adjacency(rows, bool), _tutte_weights(g.n)[..., None], 0))
    if not d.all():
        return None
    scale = np.array([pow(int(x), -1, p) for x in d[:, 0].tolist()])
    inverse = r[:, :, 0].astype(np.int64) * scale[:, None] % p
    inverse.flags.writeable = False
    return inverse


def _tutte_certified(rows: np.ndarray, excludable: bool) -> np.ndarray:
    """Which graphs of an (N, n) batch of neighbour bit rows their Tutte
    inverse B proves 1-extendable, or 1-excludable if `excludable`.

    Every edge uv must have B[u, v] != 0 (g - u - v has a perfect
    matching), or 1 + T[u, v] B[u, v] != 0 (g - uv has one); a singular T
    proves nothing.  With diag(d) B = r from `_tutte_eliminate`, these read
    r[u, v] != 0 and d[u] + T[u, v] r[u, v] != 0 mod p.  The order is not
    checked: a 1-extendable graph needs at least 4 vertices.  At most
    _TUTTE_ENTRIES entries of [T | I] are eliminated at once, and only those
    graphs are expanded to adjacency matrices.
    """
    n = rows.shape[1]
    weights = _tutte_weights(n)[..., None]
    step = max(1, _TUTTE_ENTRIES // (2 * n * n))
    out = np.zeros(len(rows), dtype=bool)
    for start in range(0, len(rows), step):
        on = _adjacency(rows[start:start + step], bool)
        t = np.where(on, weights, 0)
        d, r = _tutte_eliminate(t)
        if excludable:
            r *= t
            r += d[:, None]  # below p^2 + p < 2^53 in magnitude: exact
            nonzero = np.rint(r * (1 / TUTTE_PRIME)) * TUTTE_PRIME != r
        else:
            nonzero = r != 0
        out[start:start + step] = d.all(axis=0) & (nonzero | ~on).all(axis=(0, 1))
    return out


def _pfaffians(b: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Pf(b[S, S]) mod TUTTE_PRIME for the vertex set S of each row of cols.

    The order of S fixes only the sign.
    """
    flat = b.ravel()
    known = {(i, j): flat[cols[:, i] * len(b) + cols[:, j]]
             for i, j in combinations(range(cols.shape[1]), 2)}
    return _pfaffian(tuple(range(cols.shape[1])), known)


def _pfaffian(rest: tuple[int, ...], known: dict) -> np.ndarray:
    """Pf over the columns `rest`, expanded along the first of them:
    Pf(S) = sum_j (-1)^j b[s0, sj] Pf(S - s0 - sj).  `known` holds every
    column pair and keeps each subset's Pfaffian, computed once for all rows.
    """
    if rest not in known:
        first, others = rest[0], rest[1:]
        total = np.zeros_like(known[rest[:2]])
        for j, c in enumerate(others):
            term = known[first, c] * _pfaffian(others[:j] + others[j + 1:], known) % TUTTE_PRIME
            total += -term if j % 2 else term
        known[rest] = total % TUTTE_PRIME
    return known[rest]


@lru_cache(maxsize=1)
def _two_matchings(g: Graph) -> int:
    """How many 2-matchings g has: C(m, 2) pairs of edges, less the
    C(deg v, 2) pairs that meet at each vertex v."""
    return comb(g.m, 2) - sum(comb(a.bit_count(), 2) for a in g.adj)


@lru_cache(maxsize=8)
def is_k_extendable(g: Graph, k: int) -> Verdict:
    """Direct check: every matching of size k extends to a perfect matching.

    Follows the definition's preconditions: graphs of odd order, of order
    below 2k+2, or without a perfect matching are not k-extendable (returned
    as holds=False, never as an error).  A k-matching F extends exactly when
    g - V(F) has a perfect matching.

    Where the Tutte inverse B is read (the module docstring says when), F
    is proved to extend by a nonzero 2k x 2k Pfaffian of B[V(F), V(F)],
    B[u, v] for k = 1: then det T[V-V(F)] = det T * Pf(B[V(F), V(F)])^2
    (Jacobi's complementary minor, as in Rabin and Vazirani, "Maximum
    matchings in general graphs through randomization", J. Algorithms 10,
    1989) is not the zero polynomial, whatever the weights (Tutte 1947;
    Lovasz 1979).  The Pfaffians of a block are computed at once.  A zero may be an unlucky
    choice of weights, so those k-matchings, and all of them when there is
    no inverse, are decided by the blossom search below.

    The blossom search computes one maximum matching M per graph and decides
    F by a search warm-started from M on g - V(F).  The witness is the first
    non-extendable k-matching in lexicographic edge-index order.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if g.n % 2 == 1:
        return Verdict(False, "direct", witness=frozenset(), reason="odd-order")
    if g.n < 2 * k + 2:
        return Verdict(False, "direct", witness=frozenset(), reason="too-few-vertices")
    match = _maximum_match(g.adj)
    if -1 in match:
        return Verdict(False, "direct", witness=frozenset(), reason="no-perfect-matching")
    edges = g.edges()
    ends = np.array(edges, dtype=np.int64)
    a, b = ends.T[:, :, None]
    meets = (a == a.T) | (a == b.T) | (b == a.T) | (b == b.T)
    up_front = _two_matchings(g) > _CERTIFY_ROWS
    for rows in _k_matching_blocks(meets, k):
        inverse = _tutte_inverse(g) if up_front or len(rows) > _CERTIFY_ROWS else None
        if inverse is not None:
            cols = ends.take(rows, axis=0).reshape(len(rows), 2 * k)
            rows = rows[_pfaffians(inverse, cols) == 0]
        for row in rows.tolist():
            drop = 0
            for i in row:
                u, v = edges[i]
                drop |= 1 << u | 1 << v
            if not _perfect_after_deleting(g.adj, match, drop):
                return Verdict(False, "direct", witness=tuple(edges[i] for i in row),
                               reason="non-extendable-matching")
    return Verdict(True, "direct")


def _has_k_independent_edges(g: Graph, mask: int, k: int) -> bool:
    """Does the subgraph induced on `mask` contain k pairwise disjoint edges?"""
    if k == 0:
        return True
    v = None
    mm = mask
    while mm:
        c = (mm & -mm).bit_length() - 1
        mm &= mm - 1
        if g.adj[c] & mask:
            v = c
            break
    if v is None:
        return False
    if _has_k_independent_edges(g, mask & ~(1 << v), k):
        return True
    nb = g.adj[v] & mask
    while nb:
        u = (nb & -nb).bit_length() - 1
        nb &= nb - 1
        if _has_k_independent_edges(g, mask & ~(1 << v) & ~(1 << u), k - 1):
            return True
    return False


def is_k_extendable_chen(g: Graph, k: int) -> Verdict:
    """Criterion route: o(g-S) <= |S| - 2k whenever g[S] has k disjoint edges.

    Uses only odd-component counting over subsets, never the blossom code,
    so it stays an independent witness for the direct check.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    odd = _odd_component_table(g)
    if g.n % 2 == 1:
        return Verdict(False, "criterion", witness=frozenset(), reason="odd-order")
    if g.n < 2 * k + 2:
        return Verdict(False, "criterion", witness=frozenset(), reason="too-few-vertices")
    size = _popcounts(g.n)
    # Perfect matching precondition, via the subset-scan route.
    tutte = odd > size
    smask = int(np.argmax(tutte))
    if tutte[smask]:
        return Verdict(False, "criterion", witness=frozenset(_mask_to_vertices(smask)),
                       reason="no-perfect-matching")
    # here 2k <= n - 2, so odd + 2k cannot wrap around in uint8
    for smask in np.flatnonzero((size >= 2 * k) & (odd + 2 * k > size)).tolist():
        if _has_k_independent_edges(g, smask, k):
            return Verdict(False, "criterion",
                           witness=frozenset(_mask_to_vertices(smask)),
                           reason="criterion-violated")
    return Verdict(True, "criterion")


# ---------------------------------------------------------------------------
# 1-excludability
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def is_1_excludable(g: Graph) -> Verdict:
    """Direct check: for every edge e, g-e has a perfect matching.

    One maximum matching M is computed; it already avoids every edge
    outside M.  On a graph with more than _CERTIFY_ROWS 2-matchings, an edge
    e = uv of M, u < v, is proved avoidable by the Tutte inverse B if
    1 + T[u, v] B[u, v] != 0 mod TUTTE_PRIME (det T_(g-e) = det T *
    (1 + T[u, v] B[u, v])^2, the determinant lemma in the module
    docstring).  B is the one k-extendability reads; asked first, this
    check inverts T itself.  Every other edge of M is decided by one
    augmenting search from u in g - e, warm-started from M - e.
    """
    if g.n % 2 == 1:
        return Verdict(False, "direct", witness=frozenset(), reason="odd-order")
    edges = g.edges()
    if not edges:
        return Verdict(True, "direct")
    match = _maximum_match(g.adj)
    if -1 in match:
        return Verdict(False, "direct", witness=edges[0],
                       reason="no-perfect-matching")
    inverse = _tutte_inverse(g) if _two_matchings(g) > _CERTIFY_ROWS else None
    weights = None if inverse is None else _tutte_weights(g.n)
    for e in edges:
        u, v = e
        if match[u] != v:
            continue  # M itself avoids e
        if inverse is not None and (1 + int(weights[u, v]) * int(inverse[u, v])) % TUTTE_PRIME:
            continue  # so does a perfect matching the determinant lemma proves
        sub = list(g.adj)
        sub[u] &= ~(1 << v)
        sub[v] &= ~(1 << u)
        mate = match.copy()
        mate[u] = mate[v] = -1
        if not _find_augmenting_path(sub, mate, u):
            return Verdict(False, "direct", witness=e, reason="edge-forced")
    return Verdict(True, "direct")


def find_odd_bridges(g: Graph) -> frozenset[tuple[int, int]]:
    """Bridges whose removal splits their component into two odd halves."""
    out = []
    for comp in _component_masks(g.adj, (1 << g.n) - 1):
        out.extend(_odd_bridges_in_component(g, comp))
    return frozenset(out)


def _odd_bridges_in_component(g: Graph, comp: int) -> list[tuple[int, int]]:
    """Odd bridges (u < v) of the connected vertex set `comp` of g.

    One depth-first search tracks discovery times, low points and subtree
    sizes (Tarjan, "A note on finding the bridges of a graph", 1974): the
    tree edge from v to its child u is a bridge iff low[u] > disc[v], and
    removing it cuts off u's subtree, so it leaves two odd halves iff that
    subtree has odd size.  The recursion is at most |comp| deep.
    """
    if comp.bit_count() % 2 == 1:
        return []  # two odd halves sum to an even component
    disc = [-1] * g.n
    clock = count()
    found = []

    def visit(v: int, parent: int) -> tuple[int, int]:
        disc[v] = low = next(clock)
        size = 1
        nb = g.adj[v] & comp & ~(1 << parent)
        while nb:
            u = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            if disc[u] >= 0:
                low = min(low, disc[u])
                continue
            u_low, u_size = visit(u, v)
            low = min(low, u_low)
            size += u_size
            if u_low > disc[v] and u_size % 2 == 1:
                found.append((min(u, v), max(u, v)))
        return low, size

    visit((comp & -comp).bit_length() - 1, g.n)
    return found


def is_1_excludable_criterion(g: Graph) -> Verdict:
    """Criterion route over all vertex subsets S:

    (i) if g-S has a component containing an odd-bridge then
        o(g-S) <= |S| - 2;
    (ii) o(g-S) <= |S| otherwise.

    Requires a connected input; the direct checker has no such restriction.
    """
    odd = _odd_component_table(g)
    if g.n == 0 or not is_connected(g):
        raise ValueError("criterion check requires a connected graph")
    full = (1 << g.n) - 1
    # every other S has o(g-S) <= |S| - 2, which meets both conditions
    for smask in np.flatnonzero(odd + 2 > _popcounts(g.n)).tolist():
        comps = _component_masks(g.adj, full & ~smask)
        if any(_odd_bridges_in_component(g, c) for c in comps):
            return Verdict(False, "criterion",
                           witness=frozenset(_mask_to_vertices(smask)),
                           reason="criterion-i")
        if odd[smask] > smask.bit_count():
            return Verdict(False, "criterion",
                           witness=frozenset(_mask_to_vertices(smask)),
                           reason="criterion-ii")
    return Verdict(True, "criterion")


__all__ = [
    "MatchingResult", "Verdict", "max_matching", "matching_number",
    "has_perfect_matching", "berge_tutte_deficiency", "is_k_extendable", "is_k_extendable_chen",
    "is_1_excludable", "is_1_excludable_criterion", "find_odd_bridges",
    "SUBSET_SCAN_CAP",
]
