"""Size and spectral thresholds for matching extension/exclusion, and the
one place that decides the four threshold statements.

Each statement has the shape "hypothesis implies conclusion, unless the
graph is one of finitely many listed exceptions"; a TheoremVerdict records
all three pieces so a sweep can hunt for genuine counterexamples
(hypothesis and not conclusion and not a listed exception).  A single
graph and a sweep's batch measure differently but share one hypothesis
rule (`_meets`), one conclusion and one exception lookup; a batch tests no
connectivity, which no threshold needs (`_hypothesis_mask`), and first
certifies what it can of the conclusion at once (`_conclusion_mask`), the
single-graph conclusion deciding the rest.  A spectral hypothesis, met
with equality by its attaining family, is decided by
`rho >= threshold - SPECTRAL_TOL`, a fixed band at that tie.  A batch
eigensolves only the graphs that two proven bounds leave open, each
trusted only when it clears that floor by PRUNE_MARGIN: the Hong-Shu-Fang
upper bound, then Collatz-Wielandt lower and upper bounds.  At n <= 8 that
leaves the graphs tied with a threshold, and the eigensolve gives each the
bits `spectral_radius` gives it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from . import families, matching, spectral
from .graphs import Graph, _adjacency, _batched, _popcount, is_connected, min_degree

SPECTRAL_TOL = 1e-9

# A spectral batch decides a graph without an eigensolve only from a proven
# bound on rho that clears the threshold less SPECTRAL_TOL by more than
# this: a Hong-Shu-Fang bound below it, or a Collatz-Wielandt lower bound
# above it or upper bound below it.  Far above either bound's floating-point
# rounding error.
PRUNE_MARGIN = 1e-6

THEOREM_KINDS = ("t11", "t13", "t14", "t16")
_ALIASES = {"c12": ("t11", 1), "c15": ("t14", 1)}


@dataclass(frozen=True)
class TheoremId:
    """One of the four threshold statements; t11/t14 are parameterized by k.

    The aliases c12 and c15 stand for t11 and t14 with k=1 and take no
    other k.
    """

    kind: str
    k: int | None = None

    def __post_init__(self):
        kind = self.kind.lower()
        k = self.k
        if kind in _ALIASES:
            kind, own_k = _ALIASES[kind]
            if k not in (None, own_k):
                raise ValueError(
                    f"theorem {self.kind} stands for {kind} with k={own_k}, got k={k}")
            k = own_k
        if kind not in THEOREM_KINDS:
            raise ValueError(f"unknown theorem id {self.kind!r}")
        if kind in ("t11", "t14"):
            if k is None or k < 1:
                raise ValueError(f"theorem {kind} needs a positive k (--k)")
        else:
            if k is not None:
                raise ValueError(f"theorem {kind} takes no k parameter")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "k", k)

    @property
    def uses_size(self) -> bool:
        return self.kind in ("t11", "t13")

    @property
    def about_extension(self) -> bool:
        return self.kind in ("t11", "t14")

    def covers(self, n: int) -> bool:
        """Does the statement speak about order n?  t11 and t14 need even
        n >= 2k + 2, t13 and t16 even n >= 6."""
        return n % 2 == 0 and n >= (2 * self.k + 2 if self.about_extension else 6)

    def __str__(self) -> str:
        return self.kind if self.k is None else f"{self.kind}(k={self.k})"


@dataclass(frozen=True)
class TheoremVerdict:
    hypothesis_met: bool
    conclusion_met: bool
    is_listed_exception: bool
    consistent: bool
    threshold: float | int | None = None
    measured: float | int | None = None
    recognized: tuple[str, dict] | None = None


# ---------------------------------------------------------------------------
# Thresholds
# ---------------------------------------------------------------------------

def size_threshold_extendable(n: int, k: int) -> int:
    """C(n-1, 2) + 2k."""
    _check_extension_range(n, k)
    return comb(n - 1, 2) + 2 * k


def size_threshold_excludable(n: int) -> int:
    """10 for n=6, 19 for n=8, C(n-2, 2) + 3 for n >= 10."""
    _check_exclusion_range(n)
    if n == 6:
        return 10
    if n == 8:
        return 19
    return comb(n - 2, 2) + 3


@lru_cache(maxsize=None)
def spectral_threshold_extendable(n: int, k: int) -> float:
    """Spectral radius of K_{2k} v (K_{n-2k-1} u K1), t14's attaining
    family: the largest root of its quotient's exact characteristic
    polynomial, checked against the eigensolver to SPECTRAL_TOL."""
    _check_extension_range(n, k)
    return _exact_radius(*_extension_exception(n, k))


@lru_cache(maxsize=None)
def spectral_threshold_excludable(n: int) -> float:
    """Spectral radius of t16's attaining family at order n (thm13-f1 for
    n=6, thm13-f2 for n=8, K1 v (K2 u K_{n-3}) for n >= 10): the largest
    root of its quotient's exact characteristic polynomial, checked against
    the eigensolver to SPECTRAL_TOL."""
    _check_exclusion_range(n)
    return _exact_radius(*_exclusion_exception(n))


def _exact_radius(family_id: str, params: dict) -> float:
    """The exact route's spectral radius of a named family; raises
    AssertionError if the eigensolver's disagrees."""
    _, root = families._quotient_root(families.named_spec(family_id, **params))
    rho = spectral.spectral_radius(families.build_named(family_id, **params)).rho
    if abs(root - rho) > SPECTRAL_TOL:
        raise AssertionError(
            f"threshold routes disagree for {family_id}{params}: {root} vs {rho}")
    return root


def _check_extension_range(n: int, k: int) -> None:
    if k < 1:
        raise ValueError("k must be a positive integer")
    if not TheoremId("t11", k).covers(n):
        raise ValueError(f"extension thresholds need even n >= 2k+2, got n={n}, k={k}")


def _check_exclusion_range(n: int) -> None:
    if not TheoremId("t13").covers(n):
        raise ValueError(f"exclusion thresholds need even n >= 6, got n={n}")


# ---------------------------------------------------------------------------
# Exception registries
# ---------------------------------------------------------------------------

def _extension_exception(n: int, k: int) -> tuple[str, dict]:
    """The family attaining t11's and t14's thresholds."""
    return "thm11-exc1", {"n": n, "k": k}


def _exclusion_exception(n: int) -> tuple[str, dict]:
    """The family attaining t16's threshold (and listed for t13)."""
    if n == 6:
        return "thm13-f1", {}
    if n == 8:
        return "thm13-f2", {}
    return "thm13-f3", {"n": n}


def exception_candidates(t: TheoremId, n: int) -> list[tuple[str, dict]]:
    """The listed exception families of theorem t at order n."""
    if t.kind == "t11":
        out = [_extension_exception(n, t.k)]
        if n == 2 * t.k + 4:
            out.append(("thm11-exc2", {"k": t.k}))
        return out
    if t.kind == "t14":
        return [_extension_exception(n, t.k)]
    if t.kind == "t13" and n not in (6, 8):
        return [("thm13-fact3-split", {"n": n, "s": 4}), _exclusion_exception(n)]
    return [_exclusion_exception(n)]


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def hypothesis_threshold(t: TheoremId, n: int) -> float | int:
    """The edge count or spectral radius t's hypothesis asks for at order n.

    Raises on orders outside the statement's range.
    """
    if t.kind == "t11":
        return size_threshold_extendable(n, t.k)
    if t.kind == "t13":
        return size_threshold_excludable(n)
    if t.kind == "t14":
        return spectral_threshold_extendable(n, t.k)
    return spectral_threshold_excludable(n)


def statements(n: int, max_k: int) -> list[TheoremId]:
    """The statements that cover order n: t11(k) and t14(k) for k = 1..max_k,
    then t13 and t16."""
    every = [TheoremId(kind, k) for k in range(1, max_k + 1) for kind in ("t11", "t14")]
    return [t for t in every + [TheoremId("t13"), TheoremId("t16")] if t.covers(n)]


def _meets(t: TheoremId, threshold, measured, connected, low):
    """t's hypothesis over measured values, scalars or arrays alike.

    Every hypothesis asks for a connected graph, the exclusion statements
    (t13, t16) also for minimum degree `low` >= 2.  Size hypotheses compare
    the edge count with the threshold exactly; spectral ones use
    `rho >= threshold - SPECTRAL_TOL`.  A batch passes its minimum-degree
    mask as `connected` (see `_hypothesis_mask`).
    """
    floor = threshold if t.uses_size else threshold - SPECTRAL_TOL
    return connected & (t.about_extension | (low >= 2)) & (measured >= floor)


def hypothesis_status(g: Graph, t: TheoremId):
    """(hypothesis_met, threshold, measured) without the conclusion check."""
    threshold = hypothesis_threshold(t, g.n)
    measured = g.m if t.uses_size else spectral.spectral_radius(g).rho
    met = _meets(t, threshold, measured, is_connected(g), min_degree(g))
    return met, threshold, measured


def _hypothesis_mask(rows: np.ndarray, t: TheoremId, min_deg: int | None = None) -> np.ndarray:
    """Which graphs of an (N, n) batch of neighbour bit rows pass the
    source's minimum-degree filter and meet t's hypothesis.

    Measures on its own (degrees as popcounts of the rows) and decides by
    the rule `hypothesis_status` uses, less its connectivity test: at an
    order t covers, no disconnected graph meets t's measure.  Such a graph
    - t11(k): has m <= C(n-1, 2) < C(n-1, 2) + 2k;
    - t13: at minimum degree 2, has 3 or more vertices per component, so
      m <= C(n-3, 2) + 3, below 10, 19 and C(n-2, 2) + 3 at n = 6, 8, >= 10;
    - t14(k): has rho <= n - 2, while the connected attaining graph
      K_{2k} v (K_{n-2k-1} u K1) properly contains K_{n-1} u K1;
    - t16: at minimum degree 2, has rho <= n - 4, while the connected
      attaining graph properly contains K4, K5, K_{n-2} at n = 6, 8, >= 10.
    A connected graph's rho exceeds each proper subgraph's (Perron-
    Frobenius).  The threshold comes first, before any filter, so an order
    t does not cover raises even when the filter keeps no graph.  A
    spectral hypothesis takes three steps, each on the graphs the one
    before leaves open:
    1. a graph whose Hong-Shu-Fang bound (`spectral.radius_upper_bound`,
       read off the edge count and minimum degree), raised by
       PRUNE_MARGIN, falls short is not met;
    2. `_radius_bracket` decides the graphs whose Collatz-Wielandt bounds
       clear the threshold by PRUNE_MARGIN;
    3. the rest, the graphs tied with the threshold, are eigensolved by
       `spectral._radii`, which gives each the bits of
       `spectral_radius(g).rho`.
    Each holds for every graph, and a disconnected one is at least 1e-3
    below the threshold at n <= 62.  Only steps 2 and 3 expand rows to
    adjacency matrices, each in `graphs._batched` slices of n^2 entries
    per graph, so a batch of any size is measured in bounded memory.
    """
    n = rows.shape[1]
    threshold = hypothesis_threshold(t, n)
    deg = _popcount(rows.T)  # (n, N): each reduction below is over whole columns
    low = deg.min(axis=0, initial=n)
    keep = low >= (min_deg or 0)
    m = deg.sum(axis=0, dtype=np.int64) // 2
    if t.uses_size:
        return _meets(t, threshold, m, keep, low)
    rho = np.zeros(len(rows))
    rho[keep] = spectral.radius_upper_bound(m[keep], n, low[keep]) + PRUNE_MARGIN
    bracket = _meets(t, threshold, rho, keep, low)
    rho[bracket] = _radius_bracket(rows[bracket], threshold - SPECTRAL_TOL)
    tied = np.isnan(rho)
    rho[tied] = spectral._radii(rows[tied])
    return _meets(t, threshold, rho, keep, low)


def _bracket_passes(n: int) -> int:
    """How many passes `_radius_bracket` makes at order n >= 2: every walk
    count of the last, at most n^(passes + 1), stays below 2^53 (16 at
    n = 8, 7 at n = 62)."""
    passes = 0
    while n ** (passes + 2) < 1 << 53:
        passes += 1
    return passes


def _radius_bracket(rows: np.ndarray, floor: float) -> np.ndarray:
    """A bound on the spectral radius of each graph of an (M, n) batch of
    neighbour bit rows that decides rho >= floor, or NaN where none does.

    For a nonnegative matrix A and a positive vector x, min_i (Ax)_i / x_i
    <= rho(A) <= max_i (Ax)_i / x_i (Collatz, Math. Z. 48, 1942; Wielandt,
    Math. Z. 52, 1950).  Starting from x = (A + I) 1, the degrees (n, M)
    plus one, each pass takes y = Ax and both bounds, then x <- x + y: on a
    connected graph the bounds close in on rho as x turns to the Perron
    vector, A + I keeping a bipartite graph's iterates from oscillating; on
    a disconnected one they hold but need not meet.  A graph whose lower bound
    is at least floor + PRUNE_MARGIN gets that bound; one whose upper bound
    is below floor - PRUNE_MARGIN gets that bound; either leaves the batch.
    So does, as NaN, a graph whose bounds both lie in that band around
    floor: its rho is there too, and no later bound can decide it.
    Every x and y is a vector of walk counts, an exact integer in float64
    for `_bracket_passes(n)` passes, so each bound is a correctly rounded
    ratio of integers.  The batch is bracketed in `graphs._batched` slices
    of n^2 entries per graph, each expanded to adjacency matrices, and its
    degrees counted, only then.
    """
    def bracket(part):
        count, n = part.shape
        out = np.full(count, np.nan)
        at = np.arange(count)
        a = _adjacency(part, np.float64)
        x = _popcount(part.T).astype(np.float64) + 1.0
        for _ in range(_bracket_passes(n)):
            if not at.size:
                break
            y = np.einsum("ijg,jg->ig", a, x)
            ratio = y / x
            lo, hi = ratio.min(axis=0), ratio.max(axis=0)
            met, short = lo >= floor + PRUNE_MARGIN, hi < floor - PRUNE_MARGIN
            tied = (lo >= floor - PRUNE_MARGIN) & (hi < floor + PRUNE_MARGIN)
            done = met | short
            if done.any():
                out[at[done]] = np.where(met, lo, hi)[done]
            left = ~(done | tied)
            if not left.all():
                at, a, x, y = at[left], a[:, :, left], x[:, left], y[:, left]
            x += y
        return out

    return _batched(bracket, rows, rows.shape[1] ** 2)


def _conclusion_mask(rows: np.ndarray, t: TheoremId) -> np.ndarray:
    """Which graphs of an (N, n) batch of neighbour bit rows are proved to
    meet t's conclusion: the twin of `_hypothesis_mask`.

    A graph is proved 1-extendable (t11, t14 at k = 1) or 1-excludable
    (t13, t16) by the Tutte inverse of `matching`, one batched elimination
    for the whole batch.  True is a proof; False proves nothing, and
    `conclusion_holds` decides the graph.  Nothing is certified at k >= 2 or
    on an order t does not cover.
    """
    if not t.covers(rows.shape[1]) or t.k not in (None, 1):
        return np.zeros(len(rows), dtype=bool)
    return matching._tutte_certified(rows, excludable=not t.about_extension)


def conclusion_holds(g: Graph, t: TheoremId) -> bool:
    """t's conclusion: k-extendable for t11/t14, 1-excludable for t13/t16."""
    if t.about_extension:
        return matching.is_k_extendable(g, t.k).holds
    return matching.is_1_excludable(g).holds


def recognize_exception(g: Graph, t: TheoremId) -> tuple[str, dict] | None:
    """The listed exception family of t that g belongs to, if any."""
    return families.recognize(g, exception_candidates(t, g.n))


def theorem_verdict(g: Graph, t: TheoremId) -> TheoremVerdict:
    """Evaluate hypothesis / conclusion / exception status of g under t.

    Spectral hypotheses use `rho >= threshold - SPECTRAL_TOL`.  Raises on
    orders outside the statement's range; all other hypothesis failures
    (odd parity is excluded by the range check) yield hypothesis_met=False.
    """
    met, threshold, measured = hypothesis_status(g, t)
    conclusion = conclusion_holds(g, t)
    recognized = recognize_exception(g, t) if met and not conclusion else None
    exception = recognized is not None
    consistent = (not met) or conclusion or exception
    return TheoremVerdict(met, conclusion, exception, consistent,
                          threshold=threshold, measured=measured,
                          recognized=recognized)


def parse_theorem_token(token: str, k: int | None = None) -> TheoremId:
    """Turn a CLI token like 't11', 'T13' or 'c12' into a TheoremId."""
    return TheoremId(token.strip(), k)


__all__ = [
    "TheoremId", "TheoremVerdict", "size_threshold_extendable",
    "size_threshold_excludable", "spectral_threshold_extendable",
    "spectral_threshold_excludable", "exception_candidates",
    "hypothesis_threshold", "statements", "hypothesis_status", "conclusion_holds",
    "recognize_exception", "theorem_verdict", "parse_theorem_token",
    "SPECTRAL_TOL",
]
