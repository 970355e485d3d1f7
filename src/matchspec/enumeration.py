"""Exhaustive graph sources and verification sweeps.

The built-in source enumerates every connected graph on n <= 7 vertices,
one representative per isomorphism class.  A sieve over all 2^C(n,2)
labeled edge bit-strings takes the least one not yet marked, which is the
minimum of its class, and marks its whole orbit under the n! vertex
permutations at once, by summing the int32 image rows of its edge slots
into one buffer.  Every class is sieved; connectivity, an isomorphism
invariant, is tested by `graphs.is_connected` on the representatives only.
Larger orders are ingested from graph6 files produced externally; the n=8
file ships as a test fixture.

A source yields its graphs from `row_chunks` as (N, n) arrays of neighbour
bit masks, one row per graph and `Graph`'s own representation, and names
itself by `describe`: `BuiltIn` its enumerator's rows as one chunk, and
`File`, the one reader of graph6, its lines decoded chunk by chunk.

Sweeps evaluate a threshold statement over a source, collecting the graphs
that satisfy the hypothesis but fail the conclusion, tagging each with the
registered exception family it matches (an unmatched one is a genuine
counterexample), each named by `to_graph6`.  A sweep takes each chunk as
one batch of arrays, and every array kernel takes its rows in
`graphs._batched` slices of at most `graphs.SOURCE_ENTRIES` array entries,
or of one graph, so the per-pass costs are paid once per source at small
orders and the memory stays bounded at large ones, whatever batch a
kernel is given:

1. `theorems._hypothesis_mask` measures the whole batch and decides the
   hypothesis by the rule a single graph's verdict uses: a spectral one
   from a spectral-radius bound, then from Collatz-Wielandt bounds on the
   graphs it does not rule out, the only ones expanded to adjacency
   matrices, eigensolving only the graphs tied with the threshold;
2. `theorems._conclusion_mask` certifies the conclusion of the graphs
   that meet it, from one batched Tutte matrix elimination; `Graph`
   objects, straight from their rows, only for the graphs it leaves open,
   for the conclusion and exception helpers of `theorems` that a verdict
   also calls.

What a statement asks for is known to `theorems` alone.
"""

from __future__ import annotations

import inspect
import json
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import permutations
from math import comb
from random import Random

import numpy as np

from . import families, graphs, matching, spectral, theorems
from .graphs import Graph, all_pairs, from_edge_list, to_graph6
from .theorems import TheoremId

ENUMERATION_CAP = 7

# the deficiency suites (l2.9, l2.10), as their source errors name them
NO_PM_SUITES = "the deficiency bound suites"

# the one tolerance of the lemma suites and the charpoly identities for floats
LEMMA_TOL = 1e-9

SWEEP_SCHEMA = "matchspec/sweep-report/1"
LEMMA_SCHEMA = "matchspec/lemma-report/1"


# ---------------------------------------------------------------------------
# Enumeration of all connected graphs on n <= 7 vertices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def enumerate_connected(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of connected n-vertex graphs.

    Each representative is the labeled graph whose edge bit-string (graph6
    slot order) is minimal within its class, and they come in increasing
    bit-string order.  The sieve visits every class, connected or not: the
    orbit of a representative is the sum, in one int32 buffer, of the image
    rows of its edge slots, each the slot bits that the n! vertex
    permutations send it to (int32 holds them: up to ENUMERATION_CAP a
    bit-string has at most C(7, 2) = 21 bits).  The same slot loop builds
    the representative's neighbour masks, and `graphs.is_connected` tests
    the representative alone.
    """
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(
            f"built-in enumeration is capped at n <= {ENUMERATION_CAP}; "
            "use a graph6 file source for larger orders")
    pairs = all_pairs(n)
    nslots = len(pairs)
    lo, hi = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    slot = np.zeros((n, n), dtype=np.int32)
    slot[lo, hi] = slot[hi, lo] = np.arange(nslots)
    # image[s, p]: the bit of the slot that vertex permutation p sends slot s to
    perm = np.array(list(permutations(range(n))), dtype=np.int8)
    image = np.int32(1) << slot[perm[:, lo], perm[:, hi]].T

    todo = np.ones(1 << nslots, dtype=bool)
    orbit = np.empty(len(perm), dtype=np.int32)
    out = []
    ptr = 0
    while True:
        orbit.fill(0)
        adj = [0] * n
        for s, (u, v) in enumerate(pairs):
            if ptr >> s & 1:
                orbit += image[s]
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        todo[orbit.astype(np.intp)] = False  # an intp index skips numpy's slower cast path
        g = Graph(n, tuple(adj))
        if graphs.is_connected(g):
            out.append(g)
        # todo[ptr] is now marked (the identity is in its orbit), so a step
        # of 0 means that no bit-string is left; bool argmax stops at a True
        step = int(todo[ptr:].argmax())
        if not step:
            return tuple(out)
        ptr += step


# ---------------------------------------------------------------------------
# Graph sources
# ---------------------------------------------------------------------------

def _check_order(source, needs: str, n: int) -> None:
    """Refuse order 0 and an odd order, naming the source and its `needs`."""
    if n == 0:
        raise ValueError(f"{source.describe()}: {needs} need n >= 1, got n=0")
    if n % 2 != 0:
        raise ValueError(f"{source.describe()}: {needs} need even n, got n={n}")


@dataclass(frozen=True)
class BuiltIn:
    """All connected graphs of order n, from the built-in enumerator."""

    n: int

    def row_chunks(self, needs: str, n: int | None = None):
        """Yield the rows of `enumerate_connected(self.n)` as one chunk.  Its
        cap error comes first, then those of `_check_order` and of an n
        other than the source's."""
        adjs = [g.adj for g in enumerate_connected(self.n)]
        _check_order(self, needs, self.n if n is None else n)
        if n not in (None, self.n):
            raise ValueError(f"{self.describe()}: expected n={n}, found n={self.n}")
        yield graphs._rows(self.n, adjs)

    def describe(self) -> str:
        return f"builtin:n={self.n}"


def decode_lines(data: bytes, where: str) -> list[str]:
    """The lines of data, split at b"\\n" and each decoded as UTF-8 on its own.
    The first line that fails raises ValueError `where:K: ...`, K its 1-based
    number; the message counts the bad byte's position within that line.

    The whole of data is decoded at once: a newline byte is never part of a
    longer UTF-8 sequence, so that succeeds exactly when every line does.
    Only a failure is decoded again line by line, to name the line."""
    try:
        return data.decode().split("\n")
    except UnicodeDecodeError:
        pass
    raw = data.split(b"\n")
    try:
        return [line.decode() for line in raw]
    except UnicodeDecodeError as exc:  # exc.object: the first line that fails
        raise ValueError(f"{where}:{raw.index(exc.object) + 1}: {exc}") from None


def _chunk_rows(n: int) -> int:
    """Graph6 lines of order n in a chunk of at most `graphs.SOURCE_ENTRIES`
    bytes of decoded rows, n rows of `graphs._rows`' dtype per line (one line
    at least): 32768 lines at n = 8, 528 at n = 62."""
    return max(1, graphs.SOURCE_ENTRIES // (n * graphs._rows(n).itemsize))


def _fault(line: str, n: int) -> str | None:
    """Why graph6 text is not one graph of order n: the error of
    `graphs._from_graph6_text`, or else its other order; None if it is."""
    try:
        found = graphs._from_graph6_text(line).n
    except ValueError as exc:
        return str(exc)
    if found == n:
        return None
    return f"mixed vertex counts in source: expected n={n}, found n={found} in {line!r}"


@dataclass(frozen=True)
class File:
    """graph6 lines from a file, read once per instance; the one source that
    decodes graph6.

    Its lines are those of `decode_lines` by `graphs.graph6_text` (blank,
    '#' and bare `>>graph6<<` lines are skipped).  A file whose every line
    is one graph of one width, `width` graph6 characters (63..126) and a
    b"\\n" (the last one may be missing), is already those lines, and
    `graph6_cells` views its bytes without reading them as text."""

    path: str

    @cached_property
    def _data(self) -> bytes:
        with open(self.path, "rb") as fh:
            return fh.read()

    @cached_property
    def graph6_cells(self) -> np.ndarray | None:
        """The graph6 lines as a read-only (N, width) uint8 array: a view of
        the file's bytes, else of its `graph6_lines` joined; None when those
        differ in width or hold a character outside 63..126, or are none."""
        cells = graphs._graph6_cells(self._data)
        if cells is None:
            cells = graphs._graph6_cells("\n".join(self.graph6_lines()).encode())
        return cells

    @cached_property
    def _lines(self) -> list[str]:
        """Line k of the file by `graphs.graph6_text`, at index k - 1."""
        return list(map(graphs.graph6_text, decode_lines(self._data, self.describe())))

    def graph6_lines(self) -> list[str]:
        return [line for line in self._lines if line]

    def line_number(self, index: int) -> int:
        """1-based file line of the index-th graph6 line."""
        return [k for k, line in enumerate(self._lines, 1) if line][index]

    def describe(self) -> str:
        return f"file:{self.path}"

    def _located(self, index: int, message: str) -> ValueError:
        return ValueError(f"{self.describe()}:{self.line_number(index)}: {message}")

    def row_chunks(self, needs: str, n: int | None = None):
        """Read the file once and yield the (N, n) neighbour bit rows of each
        chunk of its graph6 lines, decoded from its `graph6_cells`.

        A line's text is made only for the order, the first line's unless n
        is given, and for a faulty line; every line must be of that order.
        A chunk holds `_chunk_rows(n)` lines, at most `graphs.SOURCE_ENTRIES`
        bytes of rows, however many adjacency entries they expand to: each
        kernel that expands them bounds its own batch.  An empty file, order
        0, an odd order (`needs` says what needs an even one) and a faulty
        line raise ValueError naming the file, and the line.  A file without
        cells has lines of unequal width or another character, so it is
        empty or faulty, and its first faulty line is named before any chunk
        is yielded: the lines before the first one of another width than the
        order's, or not ASCII, are decoded chunk by chunk as cells, and the
        first one the decoder flags, else that line, is named.
        """
        cells = self.graph6_cells
        if cells is None:
            lines = self.graph6_lines()
            if not lines:
                raise ValueError(f"empty graph source: {self.path}")
            text = lines.__getitem__
        else:
            def text(index: int) -> str:
                return cells[index].tobytes().decode()
        if n is None:
            try:
                n = graphs._from_graph6_text(text(0)).n
            except ValueError as exc:
                raise self._located(0, str(exc)) from None
        _check_order(self, needs, n)
        size = _chunk_rows(n)
        if cells is None:
            width = 1 + (comb(n, 2) + 5) // 6
            index = next((i for i, line in enumerate(lines)
                          if len(line) != width or not line.isascii()), len(lines))
            head = np.frombuffer("".join(lines[:index]).encode(), dtype=np.uint8)
            head = head.reshape(index, width)
            for start in range(0, index, size):
                bad = graphs._decode_cells(head[start:start + size], n)[1]
                if bad.size:
                    index = start + int(bad[0])
                    break
            raise self._located(index, _fault(lines[index], n))
        for start in range(0, len(cells), size):
            rows, bad = graphs._decode_cells(cells[start:start + size], n)
            if bad.size:
                index = start + int(bad[0])
                raise self._located(index, _fault(text(index), n))
            yield rows


# ---------------------------------------------------------------------------
# Theorem sweeps
# ---------------------------------------------------------------------------

def json_text(doc: dict) -> str:
    """The JSON form of every document matchspec prints: indented, keys sorted."""
    return json.dumps(doc, indent=2, sort_keys=True)


class _Report:
    """The JSON text shared by the sweep and lemma reports."""

    def to_json(self, include_timing: bool = True) -> str:
        return json_text(self.to_json_dict(include_timing))


@dataclass(frozen=True)
class SweepReport(_Report):
    theorem: str
    n: int
    k: int | None
    source: str
    min_degree: int | None
    graphs_scanned: int
    hypothesis_count: int
    counterexamples: tuple[str, ...]
    exceptions_found: tuple[tuple[str, str | None, dict | None], ...]
    wall_time: float

    def to_json_dict(self, include_timing: bool = True) -> dict:
        doc = {
            "schema": SWEEP_SCHEMA,
            "theorem": self.theorem,
            "n": self.n,
            "k": self.k,
            "source": self.source,
            "min_degree": self.min_degree,
            "graphs_scanned": self.graphs_scanned,
            "hypothesis_count": self.hypothesis_count,
            "counterexamples": list(self.counterexamples),
            "exceptions_found": [
                {"graph6": g6, "family": fam, "params": params}
                for g6, fam, params in self.exceptions_found
            ],
        }
        if include_timing:
            doc["wall_time"] = self.wall_time
        return doc

    def csv_rows(self) -> list[list]:
        rows = [["graph6", "status", "family", "params"]]
        for g6 in self.counterexamples:
            rows.append([g6, "counterexample", "", ""])
        for g6, fam, params in self.exceptions_found:
            if fam is not None:
                rows.append([g6, "exception", fam, json.dumps(params or {},
                                                              sort_keys=True)])
        return rows


def sweep_theorem(source, t: TheoremId, min_degree: int | None = None,
                  jobs: int = 1) -> SweepReport:
    """Evaluate theorem t over every graph of the source's `row_chunks`, in
    one process.

    A reported graph is named by `to_graph6` of the `Graph` its row builds.
    Deterministic: output lists are sorted by that graph6 string, so reports
    are identical for any chunk size (wall_time aside); each kernel's
    `graphs._batched` slice holds at most `graphs.SOURCE_ENTRIES` entries.
    `jobs` is accepted and ignored.  An empty source, one of odd order, a
    malformed line, or one of another order than the first raises
    ValueError naming the source, and the line where there is one; an order
    t does not cover raises too, however few graphs min_degree keeps.
    """
    start = time.perf_counter()
    scanned = hyp = 0
    events = []
    for rows in source.row_chunks("sweeps"):
        n = rows.shape[1]
        met = np.flatnonzero(theorems._hypothesis_mask(rows, t, min_degree))
        scanned += len(rows)
        hyp += len(met)
        undecided = met[~theorems._conclusion_mask(rows[met], t)]
        for row in rows[undecided].tolist():
            g = Graph(n, tuple(row))
            if not theorems.conclusion_holds(g, t):
                events.append((to_graph6(g), theorems.recognize_exception(g, t)))
    events.sort(key=lambda e: e[0])
    counterexamples = tuple(g6 for g6, rec in events if rec is None)
    exceptions = tuple(
        (g6, rec[0] if rec else None, rec[1] if rec else None)
        for g6, rec in events)
    return SweepReport(
        theorem=str(t), n=n, k=t.k, source=source.describe(),
        min_degree=min_degree, graphs_scanned=scanned, hypothesis_count=hyp,
        counterexamples=counterexamples, exceptions_found=exceptions,
        wall_time=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Lemma verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaReport(_Report):
    lemma: str
    grid: dict
    instances: int
    violations: tuple[str, ...]
    max_equality_gap: float
    wall_time: float
    notes: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self, include_timing: bool = True) -> dict:
        doc = {
            "schema": LEMMA_SCHEMA,
            "lemma": self.lemma,
            "grid": {k: str(v) for k, v in self.grid.items()},
            "instances": self.instances,
            "violations": list(self.violations),
            "max_equality_gap": self.max_equality_gap,
            "notes": list(self.notes),
        }
        if include_timing:
            doc["wall_time"] = self.wall_time
        return doc

    def csv_rows(self) -> list[list]:
        return [["lemma", "instances", "violations", "max_equality_gap"],
                [self.lemma, self.instances, len(self.violations), self.max_equality_gap],
                *(["violation", v, "", ""] for v in self.violations)]


def _check_grid_cap(values, cap: int, what: str, key: str) -> None:
    if not values:
        raise ValueError(f"{what} needs at least one even {key}, "
                         f"got an empty range ({key}_values={tuple(values)})")
    if max(values) > cap:
        raise ValueError(f"{what} is capped at {key} <= {cap}, got {max(values)}")


def _random_connected(rng: Random, n: int) -> Graph:
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        g = from_edge_list(n, edges)
        if graphs.is_connected(g):
            return g


def _verify_subgraph_monotonicity(trials: int = 100, seed: int = 20240601):
    # strict rho drop on proper connected subgraphs
    rng = Random(seed)
    violations = []
    min_gap = float("inf")
    done = 0
    while done < trials:
        n = rng.randint(4, 10)
        g = _random_connected(rng, n)
        # delete a few vertices and/or edges, keep the rest connected
        h = g
        if rng.random() < 0.5:
            drop = rng.sample(range(n), rng.randint(1, n - 2))
            h, _ = graphs.delete_vertices(g, drop)
        edges = h.edges()
        if edges and (h.n == g.n or rng.random() < 0.5):
            removable = rng.sample(edges, rng.randint(1, len(edges)))
            keep = [e for e in edges if e not in set(removable)]
            h = from_edge_list(h.n, keep)
        if not graphs.is_connected(h):
            continue
        rho_g = spectral.spectral_radius(g).rho
        rho_h = spectral.spectral_radius(h).rho
        gap = rho_g - rho_h
        min_gap = min(min_gap, gap)
        if gap <= LEMMA_TOL:
            violations.append(
                f"rho({to_graph6(h)}) = {rho_h} !< rho({to_graph6(g)}) = {rho_g}")
        done += 1
    return ({"trials": trials, "seed": seed}, done, violations, min_gap, [])


def _registry_grid(n_values) -> list[tuple[str, dict]]:
    grid = []
    for n in n_values:
        grid.extend([
            ("thm11-exc1", {"n": n, "k": 1}),
            ("thm11-exc2", {"k": (n - 4) // 2}) if n >= 6 else None,
            ("thm11-extremal", {"n": n, "k": 1, "s": 3}) if n >= 8 else None,
            ("thm13-f3", {"n": n}),
            ("thm13-fact3-split", {"n": n, "s": 2}) if n >= 8 else None,
            ("thm13-fact3-pendant", {"n": n, "s": 2}) if n >= 10 else None,
            ("lem210", {"n": n}),
            ("w1", {"n": n}),
            ("w2", {"n": n}) if n >= 8 else None,
        ])
    out = []
    for item in grid:
        if item is None:
            continue
        fid, params = item
        try:
            families.named_spec(fid, **params)
        except ValueError:
            continue
        out.append(item)
    return out


def _verify_perron_symmetry(n_values=(6, 8, 10, 12, 14)):
    # vertices with equal neighborhoods (up to each other) get equal Perron weight
    _check_grid_cap(n_values, 14, "the spectral family grid", "n")
    violations = []
    max_dev = 0.0
    instances = 0
    for fid, params in _registry_grid(n_values):
        g = families.build_named(fid, **params)
        perron = spectral.spectral_radius(g).perron
        for i in range(g.n):
            for j in range(i + 1, g.n):
                if g.adj[i] & ~(1 << j) == g.adj[j] & ~(1 << i):
                    dev = abs(perron[i] - perron[j])
                    max_dev = max(max_dev, dev)
                    if dev > LEMMA_TOL:
                        violations.append(
                            f"{fid}{params}: perron[{i}] != perron[{j}] "
                            f"(|diff| = {dev})")
        instances += 1
    return ({"n_values": n_values}, instances, violations, max_dev, [])


def _verify_quotient_radius(n_values=(6, 8, 10, 12, 14)):
    # spec's quotient rows = built graph's equitable quotient; root = rho
    _check_grid_cap(n_values, 14, "the spectral family grid", "n")
    violations = []
    max_dev = 0.0
    instances = 0
    for fid, params in _registry_grid(n_values):
        spec = families.named_spec(fid, **params)
        g = families.build(spec)
        q = spectral.quotient_matrix(g, families.canonical_partition(spec))
        if not q.equitable or q.as_int_rows() != families.quotient_rows(spec):
            violations.append(f"{fid}{params}: spec rows are not the equitable quotient")
            continue
        _, root = families._quotient_root(spec)
        rho = spectral.spectral_radius(g).rho
        dev = abs(root - rho)
        max_dev = max(max_dev, dev)
        if dev > LEMMA_TOL:
            violations.append(
                f"{fid}{params}: quotient root {root} vs rho {rho}")
        instances += 1
    return ({"n_values": n_values}, instances, violations, max_dev, [])


def _verify_interlacing(trials: int = 100, seed: int = 20240602):
    # principal submatrix eigenvalues interlace the full spectrum
    rng = Random(seed)
    violations = []
    max_dev = 0.0
    for trial in range(trials):
        n = rng.randint(2, 12)
        g = from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                               if rng.random() < 0.5])
        t = rng.randint(1, n)
        keep = sorted(rng.sample(range(n), t))
        lam = spectral.eigenvalues(g)
        sub, _ = graphs.delete_vertices(g, [v for v in range(n) if v not in keep])
        mu = spectral.eigenvalues(sub)
        for i in range(t):
            high = lam[i] - mu[i]
            low = mu[i] - lam[n - t + i]
            max_dev = max(max_dev, -min(high, low, 0.0))
            if high < -LEMMA_TOL or low < -LEMMA_TOL:
                violations.append(
                    f"trial {trial}: interlacing broken at i={i} "
                    f"(mu={mu[i]}, window=[{lam[n - t + i]}, {lam[i]}])")
    return ({"trials": trials, "seed": seed}, trials, violations, max_dev, [])


def _join_with_parts(s: int, parts: list[Graph]) -> Graph:
    body = parts[0]
    for p in parts[1:]:
        body = graphs.disjoint_union(body, p)
    return graphs.join(graphs.complete_graph(s), body)


def _verify_packing_comparison(trials: int = 60, seed: int = 20240603):
    # size and rho both rise when clique parts merge into one big clique
    # plus (t-1) copies of K_k; equality exactly when already of that shape
    rng = Random(seed)
    violations = []
    min_strict_gap = float("inf")
    done = 0
    while done < trials:
        s = rng.randint(1, 3)
        k = rng.randint(1, 2)
        t = rng.randint(2, 4)
        m = rng.randint(0, 3)
        sizes = sorted((rng.randint(k, k + 3) for _ in range(t)), reverse=True)
        n = sum(sizes) + s + m
        if n > 14:
            continue
        h_edges = [(i, j) for i in range(m) for j in range(i + 1, m)
                   if rng.random() < 0.5]
        h = from_edge_list(m, h_edges) if m else None
        left_parts = ([h] if h else []) + [graphs.complete_graph(c) for c in sizes]
        big = n - m - s - k * (t - 1)
        right_parts = ([h] if h else []) + [graphs.complete_graph(big)] + \
            [graphs.complete_graph(k) for _ in range(t - 1)]
        left = _join_with_parts(s, left_parts)
        right = _join_with_parts(s, right_parts)
        equality_case = all(c == k for c in sizes[1:])
        size_l, size_r = left.m, right.m
        rho_l = spectral.spectral_radius(left).rho
        rho_r = spectral.spectral_radius(right).rho
        if equality_case:
            if size_l != size_r or abs(rho_l - rho_r) > LEMMA_TOL:
                violations.append(
                    f"equality case broken: sizes {sizes}, s={s}, k={k}, m={m}: "
                    f"|E| {size_l} vs {size_r}, rho {rho_l} vs {rho_r}")
            if not graphs.are_isomorphic(left, right):
                violations.append(
                    f"equality case not isomorphic: sizes {sizes}, s={s}, k={k}")
        else:
            min_strict_gap = min(min_strict_gap, size_r - size_l, rho_r - rho_l)
            if size_l >= size_r or rho_l >= rho_r - LEMMA_TOL:
                violations.append(
                    f"strict case broken: sizes {sizes}, s={s}, k={k}, m={m}: "
                    f"|E| {size_l} vs {size_r}, rho {rho_l} vs {rho_r}")
        done += 1
    gap = 0.0 if min_strict_gap == float("inf") else min_strict_gap
    return ({"trials": trials, "seed": seed}, done, violations, gap, [])


def _no_pm_size_bound(n: int) -> int:
    if n == 6:
        return 9
    if n == 8:
        return 18
    return comb(n - 2, 2) + 2  # n >= 10 or n = 4


@lru_cache(maxsize=None)
def _complete_perfect_matchings(n: int) -> np.ndarray:
    """The (n-1)!! perfect matchings of K_n, its n/2-matchings by
    `matching._k_matching_blocks`, as an (M, n/2, 2) array of vertex pairs;
    none (M = 0) for odd n.  Read-only."""
    ends = np.array(all_pairs(n), dtype=np.intp).reshape(-1, 2)
    blocks = matching._k_matching_blocks(ends, n // 2) if n % 2 == 0 else ()
    pairs = ends.take(np.concatenate([np.empty((0, n // 2), np.intp), *blocks]), axis=0)
    pairs.setflags(write=False)
    return pairs


def _covered_by_perfect_matching(rows: np.ndarray) -> np.ndarray:
    """Which graphs of an (N, n) batch of neighbour bit rows contain one of
    the perfect matchings of K_n, that is, have a perfect matching.

    A graph's test gathers (n-1)!! * n/2 row entries, one per matched pair
    uv, and reads bit v of row u; the graphs are gathered in
    `graphs._batched` slices, that many entries per graph.
    """
    pairs = _complete_perfect_matchings(rows.shape[1])
    ends = pairs[..., 1].astype(rows.dtype)
    return graphs._batched(lambda part: (part[:, pairs[..., 0]] >> ends & 1).all(-1).any(-1),
                           rows, max(1, pairs.size // 2))


def _graphs_without_pm(source, n: int) -> np.ndarray:
    """The graphs from the source with some S: o(G-S) >= |S|+2, as their
    (N, n) neighbour bit rows, in the source's order.

    For even order that is exactly 'no perfect matching' (deficiency >= 2
    by parity).  Each chunk of `row_chunks` is tested against every perfect
    matching of K_n at once: a graph whose edges contain one of them is
    proved to have a perfect matching by that explicit matching, and is
    dropped.  The graphs no matching covers get their Berge-Tutte sets from
    one subset scan per chunk (`matching._berge_tutte_deficiencies`), and
    each witness is re-validated by an explicit odd-component count on a
    `Graph` of its row, so no verdict rests on the filter alone.  The source
    is read as a sweep reads it, so an empty source, an odd n, a malformed
    line or one of another order than n raises ValueError naming the
    source, and the line where there is one.
    """
    rows = []
    for chunk in source.row_chunks(NO_PM_SUITES, n):
        left = chunk[~_covered_by_perfect_matching(chunk)]
        for row, (d, witness) in zip(left.tolist(), matching._berge_tutte_deficiencies(left)):
            g = Graph(n, tuple(row))
            if d < 2 or graphs.odd_components(g, witness) < len(witness) + 2:
                raise AssertionError(
                    f"deficiency witness failed to re-validate on {to_graph6(g)}")
        rows.append(left)
    return np.concatenate(rows)


def _sources_for(n_values, sources):
    """Each order of the grid with its source: the one given, else BuiltIn.
    An order below 1, or a source for an order the grid leaves out, raises
    ValueError."""
    if min(n_values) < 1:
        raise ValueError(f"{NO_PM_SUITES} need n >= 1, got n={min(n_values)}")
    sources = sources or {}
    for n, source in sources.items():
        if n not in n_values:
            raise ValueError(
                f"{source.describe()} holds graphs of order {n}, which the grid "
                f"leaves out (its orders: {', '.join(map(str, n_values)) or 'none'})")
    return {n: sources[n] if n in sources else BuiltIn(n) for n in n_values}


def _verify_size_bound_no_pm(n_values=(4, 6), sources=None):
    # graphs with o(G-S) >= |S|+2 for some S stay below the size bound
    _check_grid_cap(n_values, 8, "the exhaustive subset-scan suite", "n")
    violations = []
    max_m_ratio = 0.0
    instances = 0
    notes = []
    for n, source in _sources_for(n_values, sources).items():
        bound = _no_pm_size_bound(n)
        rows = _graphs_without_pm(source, n)
        sizes = (graphs._popcount(rows.T).sum(axis=0) // 2).tolist()
        instances += len(rows)
        hit = max(sizes, default=0)
        violations += [f"n={n}: {to_graph6(Graph(n, tuple(row)))} has m={m} > bound {bound}"
                       for row, m in zip(rows.tolist(), sizes) if m > bound]
        max_m_ratio = max(max_m_ratio, hit / bound if bound else 0.0)
        notes.append(f"n={n}: max size among qualifying graphs {hit} (bound {bound})")
    return ({"n_values": n_values}, instances, violations, max_m_ratio, notes)


def _verify_rho_bound_no_pm(n_values=(4, 6), sources=None):
    # spectral version of the same bound, plus the attaining families
    _check_grid_cap(n_values, 8, "the exhaustive subset-scan suite", "n")
    violations = []
    max_dev = 0.0
    instances = 0
    notes = []
    for n, source in _sources_for(n_values, sources).items():
        rows = _graphs_without_pm(source, n)  # first: it names a bad source
        # the bound is the attaining family's exact quotient root
        try:
            attaining = (families.Join(families.Complete(2), families.Empty(4))
                         if n == 6 else families.named_spec("lem210", n=n))
        except ValueError as exc:
            raise ValueError(f"l2.10 has no attaining family at n={n}: {exc}") from None
        _, bound = families._quotient_root(attaining)
        rho_att = spectral.spectral_radius(families.build(attaining)).rho
        if abs(rho_att - bound) > LEMMA_TOL:
            violations.append(
                f"n={n}: attaining family misses the bound: {rho_att} vs {bound}")
        radii = spectral._radii(rows).tolist()
        instances += len(rows)
        best = max([0.0, *radii])  # 0.0 on a tie, as a running max from 0.0
        violations += [f"n={n}: {to_graph6(Graph(n, tuple(row)))} has rho={rho} > bound {bound}"
                       for row, rho in zip(rows.tolist(), radii) if rho > bound + LEMMA_TOL]
        notes.append(f"n={n}: max rho among qualifying graphs {best} "
                     f"(bound {bound})")
        max_dev = max(max_dev, abs(best - bound))
    return ({"n_values": n_values}, instances, violations, max_dev, notes)


def _verify_bridged_extremes(l_values=(6, 8, 10, 12)):
    # across odd splits p+q=l, size and rho peak at the pendant shape and
    # then at the {3, l-3} split
    _check_grid_cap(l_values, 14, "the bridged-completes grid", "l")
    violations = []
    min_gap = float("inf")
    instances = 0
    for l in l_values:
        if l % 2 != 0 or l < 4:
            raise ValueError("bridged-completes suite needs even l >= 4")
        entries = []
        for p in range(1, l, 2):
            q = l - p
            g = families.build(families.BridgedCompletes(p, q))
            entries.append((p, q, g.m, spectral.spectral_radius(g).rho))
            instances += 1
        pend_m = comb(l - 1, 2) + 1
        pend_rho = max(r for p, q, m, r in entries if 1 in (p, q))
        runner_m = comb(3, 2) + comb(l - 3, 2) + 1
        runner_rho = max((r for p, q, m, r in entries if 3 in (p, q) and 1 not in (p, q)),
                         default=None)
        for p, q, m, rho in entries:
            if m > pend_m or rho > pend_rho + LEMMA_TOL:
                violations.append(
                    f"l={l}: split ({p},{q}) beats the pendant shape "
                    f"(m={m} vs {pend_m}, rho={rho} vs {pend_rho})")
            if 1 in (p, q):
                continue
            min_gap = min(min_gap, pend_m - m, pend_rho - rho)
            if m > runner_m or rho > runner_rho + LEMMA_TOL:
                violations.append(
                    f"l={l}: split ({p},{q}) beats the (3,{l - 3}) runner-up")
            if 3 in (p, q):
                if m != runner_m:
                    violations.append(f"l={l}: runner-up size mismatch at ({p},{q})")
            else:
                if m >= runner_m or rho >= runner_rho - LEMMA_TOL:
                    violations.append(
                        f"l={l}: split ({p},{q}) ties the runner-up "
                        f"(m={m} vs {runner_m}, rho={rho} vs {runner_rho})")
    gap = 0.0 if min_gap == float("inf") else min_gap
    return ({"l_values": l_values}, instances, violations, gap, [])


# lemma id -> suite; each suite's keyword parameters are its options
_LEMMA_SUITES = {
    "l2.1": _verify_subgraph_monotonicity,
    "l2.2": _verify_perron_symmetry,
    "l2.4": _verify_quotient_radius,
    "l2.5": _verify_interlacing,
    "l2.8": _verify_packing_comparison,
    "l2.9": _verify_size_bound_no_pm,
    "l2.10": _verify_rho_bound_no_pm,
    "l2.11": _verify_bridged_extremes,
}
LEMMA_IDS = tuple(_LEMMA_SUITES)


def verify_lemma(lemma: str, **options) -> LemmaReport:
    """Check one of the library's structural/spectral inequalities.

    Options (all keyword-only, each with desk-scale defaults):
      trials, seed          -- randomized suites (l2.1, l2.5, l2.8)
      n_values              -- orders for family/exhaustive suites
      sources               -- {n: GraphSource} overriding BuiltIn (l2.9/l2.10)
      l_values              -- even orders for the bridged-completes suite
    An option the chosen suite does not take is a ValueError, and so is a
    grid on which the suite checks no instance.
    """
    lemma = lemma.lower()
    suite = _LEMMA_SUITES.get(lemma)
    if suite is None:
        raise ValueError(f"unknown lemma id {lemma!r}; known: {LEMMA_IDS}")
    accepted = tuple(inspect.signature(suite).parameters)
    unknown = sorted(set(options) - set(accepted))
    if unknown:
        raise ValueError(f"{lemma} does not take {', '.join(map(repr, unknown))}; "
                         f"it takes: {', '.join(accepted)}")
    return _lemma_report(lemma, suite, options)


def _lemma_report(lemma: str, suite, options: dict) -> LemmaReport:
    start = time.perf_counter()
    grid, instances, violations, gap, notes = suite(**options)
    if not instances:
        raise ValueError(f"{lemma} checks no instance on the grid {grid}")
    return LemmaReport(lemma=lemma, grid=grid, instances=instances,
                       violations=tuple(violations), max_equality_gap=gap,
                       wall_time=time.perf_counter() - start, notes=tuple(notes))


# ---------------------------------------------------------------------------
# Characteristic polynomial identity suite
# ---------------------------------------------------------------------------

def _hub_pendant_clique_spec(n: int, h: int) -> families.FamilySpec:
    # one dominating vertex joined to a pendant-clique of order h and a clique
    if h < 4 or h % 2 != 0 or n - h - 1 < 1:
        raise ValueError("requires even h >= 4 and n >= h+2")
    return families.Join(
        families.Complete(1),
        families.Union((families.BridgedCompletes(h - 1, 1), families.Complete(n - h - 1))))


def default_identity_grid() -> list[tuple[str, dict]]:
    grid: list[tuple[str, dict]] = []
    grid += [("bridged", {"l": l, "q": q})
             for l, q in ((8, 3), (8, 5), (10, 3), (10, 5), (10, 7), (12, 5))]
    grid += [("bridged-q3", {"l": l}) for l in (6, 8, 10, 12)]
    grid += [("thm11-exc1", {"n": n, "k": k})
             for n, k in ((6, 1), (8, 1), (8, 2), (10, 1), (10, 2), (12, 3))]
    grid += [("thm11-exc2", {"k": k}) for k in (1, 2, 3)]
    grid += [("thm11-extremal", {"n": n, "k": k, "s": s})
             for n, k, s in ((8, 1, 2), (8, 1, 3), (10, 1, 3), (10, 2, 4),
                             (12, 1, 4), (12, 2, 5), (14, 3, 6))]
    grid += [("hub-pendant-clique", {"n": n, "h": h})
             for n, h in ((10, 4), (12, 4), (12, 6), (14, 4), (14, 6))]
    grid += [("thm13-f3", {"n": n}) for n in (6, 8, 10, 12, 14)]
    grid += [("w1", {"s": s}) for s in (2, 3, 4, 5, 6)]
    grid += [("thm13-fact3-split", {"n": n, "s": s})
             for n, s in ((8, 2), (10, 2), (10, 3), (12, 3), (12, 4))]
    grid += [("thm13-fact3-pendant", {"n": n, "s": s})
             for n, s in ((10, 2), (12, 2), (12, 3), (14, 3), (14, 4))]
    grid += [("w2", {"n": n}) for n in (8, 10, 12, 14, 16)]
    return grid


# identity name -> (**params -> (FamilySpec, expected ascending coefficients))
_IDENTITIES = {
    "bridged": lambda l, q: (
        families.BridgedCompletes(l - q, q),
        (l - 3, 2 * l * q - 2 * q * q - 2 * l, l * q - q * q - 3 * l + 5, 4 - l, 1)),
    "bridged-q3": lambda l: (
        families.BridgedCompletes(l - 3, 3),
        (l - 3, 4 * l - 18, -4, 4 - l, 1)),
    "thm11-exc1": lambda n, k: (
        families.named_spec("thm11-exc1", n=n, k=k),
        (-4 * k * k + 2 * k * n - 4 * k, -(2 * k + n - 2), -(n - 3), 1)),
    "thm11-exc2": lambda k: (
        families.named_spec("thm11-exc2", k=k),
        (-6 * k - 3, -2 * k, 1)),
    "thm11-extremal": lambda n, k, s: (
        families.named_spec("thm11-extremal", n=n, k=k, s=s),
        (-s * (2 * k - s - 1) * (2 * k + n - 2 * s - 2),
         -(n - 2 * s * k + s * s + 2 * k - 2),
         -(n - s + 2 * k - 3), 1)),
    "hub-pendant-clique": lambda n, h: (
        _hub_pendant_clique_spec(n, h),
        (-3 * h * n + 3 * h * h + 9 * n - 4 * h - 15,
         6 * n - 3 * h - 19,
         3 * n * h - 3 * h * h - 4 * n - 2,
         n * h - h * h - 4 * n + 8,
         -(n - 5), 1)),
    "thm13-f3": lambda n: (
        families.named_spec("thm13-f3", n=n),
        (3 * n - 11, -3, 3 - n, 1)),
    "w1": lambda s: (
        families.named_spec("w1", n=2 * s + 2),
        (s * s, -(s * s + s + 1), -s, 1)),
    "thm13-fact3-split": lambda n, s: (
        families.named_spec("thm13-fact3-split", n=n, s=s),
        (-s * s * n + 2 * s ** 3 + s * n - 2 * s,
         s * s * n - 2 * s ** 3 + s * n - 3 * s * s + n - 4 * s - 2,
         -(s * s + s + 1), s + 2 - n, 1)),
    "thm13-fact3-pendant": lambda n, s: (
        families.named_spec("thm13-fact3-pendant", n=n, s=s),
        (-n * s * s + 2 * s ** 3 + 3 * s * s,
         -(2 * s ** 3 - n * s * s + 3 * s * s - n * s + 5 * s - n + 3),
         (s + 1) * (n * s - 2 * s * s - 3 * s - 2),
         -(s * s + 2 * n - s - 4),
         -(n - s - 4), 1)),
    "w2": lambda n: (
        families.named_spec("w2", n=n),
        (-4 * n + 28, -(41 - 7 * n), -(48 - 6 * n), -(2 * n - 2), -(n - 6), 1)),
}


def verify_charpoly_identities(grid=None) -> LemmaReport:
    """Exact coefficient check of every displayed quotient polynomial.

    For each grid point: read the family's quotient rows off its spec,
    compute their characteristic polynomial exactly, and compare it
    coefficient-by-coefficient with the closed formula.  The polynomial's
    largest root must also match the eigensolver's rho on the built graph
    to LEMMA_TOL.  Mismatches are reported verbatim, never patched over.
    """
    grid = list(grid) if grid is not None else default_identity_grid()
    if not grid:
        raise ValueError("charpoly-identities needs at least one grid point")
    return _lemma_report("charpoly-identities", _verify_identities, {"grid": grid})


def _verify_identities(grid: list[tuple[str, dict]]):
    violations = []
    max_dev = 0.0
    for name, params in grid:
        if name not in _IDENTITIES:
            raise ValueError(f"unknown identity {name!r}")
        spec, expected = _IDENTITIES[name](**params)
        poly, root = families._quotient_root(spec)
        if poly.coeffs != tuple(expected):
            violations.append(
                f"{name}{params}: quotient charpoly {poly.coeffs} "
                f"!= displayed formula {tuple(expected)}")
            continue
        rho = spectral.spectral_radius(families.build(spec)).rho
        dev = abs(root - rho)
        max_dev = max(max_dev, dev)
        if dev > LEMMA_TOL:
            violations.append(
                f"{name}{params}: formula root {root} vs rho {rho}")
    return {"instances": len(grid)}, len(grid), violations, max_dev, ()


__all__ = [
    "ENUMERATION_CAP", "enumerate_connected", "BuiltIn", "File", "decode_lines",
    "SweepReport", "sweep_theorem", "LemmaReport", "LEMMA_IDS", "verify_lemma",
    "verify_charpoly_identities", "default_identity_grid", "SWEEP_SCHEMA", "LEMMA_SCHEMA",
]
