"""Named extremal graph families: constructors, partitions, recognition.

A FamilySpec is a tiny expression tree over completes, empty graphs,
disjoint unions, joins, and two completes linked by a bridge (a clique
bridged to K1 is the clique with a pendant vertex, K_p^+).  Each named
family in the registry expands to such a tree; `build` lays blocks out left
to right, and `_blocks` reads that layout off the spec, building nothing: a
spec's order, `edge_count`, `canonical_partition` and the equitable
quotient's `quotient_rows` all come from that one reading.  `_quotient_root`
takes the exact characteristic polynomial of the quotient.
"""

from __future__ import annotations

import inspect
import re
from collections.abc import Callable
from dataclasses import dataclass

from . import graphs, spectral
from .graphs import Graph, are_isomorphic
from .spectral import Partition


class FamilySpec:
    """Base class for family expressions."""


@dataclass(frozen=True)
class Complete(FamilySpec):
    n: int


@dataclass(frozen=True)
class Empty(FamilySpec):
    """n isolated vertices (n*K1)."""

    n: int


@dataclass(frozen=True)
class Union(FamilySpec):
    parts: tuple[FamilySpec, ...]


@dataclass(frozen=True)
class Join(FamilySpec):
    left: FamilySpec
    right: FamilySpec


@dataclass(frozen=True)
class BridgedCompletes(FamilySpec):
    """Disjoint completes on p and q vertices linked by a single bridge.

    q = 1 is K_p^+, the p-clique with a pendant vertex: BridgedCompletes(5, 1)
    is a 5-clique with a pendant hanging off its last vertex.
    """

    p: int
    q: int


def build(spec: FamilySpec) -> Graph:
    """The described graph, blocks laid out left to right."""
    if isinstance(spec, Complete):
        if spec.n < 1:
            raise ValueError("complete graph needs at least one vertex")
        return graphs.complete_graph(spec.n)
    if isinstance(spec, Empty):
        if spec.n < 1:
            raise ValueError("empty graph needs at least one vertex")
        return graphs.empty_graph(spec.n)
    if isinstance(spec, Union):
        if not spec.parts:
            raise ValueError("union of nothing")
        g = build(spec.parts[0])
        for part in spec.parts[1:]:
            g = graphs.disjoint_union(g, build(part))
        return g
    if isinstance(spec, Join):
        return graphs.join(build(spec.left), build(spec.right))
    if isinstance(spec, BridgedCompletes):
        if spec.p < 1 or spec.q < 1:
            raise ValueError("bridged completes need positive part sizes")
        p, q = spec.p, spec.q
        edges = [(i, j) for i in range(p) for j in range(i + 1, p)]
        edges += [(p + i, p + j) for i in range(q) for j in range(i + 1, q)]
        edges.append((p - 1, p))  # the bridge
        return graphs.from_edge_list(p + q, edges)
    raise TypeError(f"not a FamilySpec: {spec!r}")


def edge_count(spec: FamilySpec) -> int:
    """Edge count of build(spec), read off its blocks: sum |B_i| * rowsum_i / 2."""
    return _order_size(spec)[1]


def _order_size(spec: FamilySpec) -> tuple[int, int]:
    """(order, edge count) of build(spec), from one reading of its blocks."""
    blocks, rows = _blocks(spec, 0)
    return (sum(map(len, blocks)),
            sum(len(b) * sum(row) for b, row in zip(blocks, rows)) // 2)


# ---------------------------------------------------------------------------
# Canonical equitable partitions
# ---------------------------------------------------------------------------

def canonical_partition(spec: FamilySpec) -> Partition:
    """Block partition following build's layout: the blocks, concatenated,
    are range(n).

    Completes and empty groups are single blocks; bridged completes split
    as (p-side clique minus endpoint, p-side endpoint, q-side endpoint,
    q-side clique minus endpoint).  Empty blocks are dropped, so a bridged
    side of one vertex is just its endpoint, and K_p^+ (q = 1) splits as
    (clique minus attachment, attachment, pendant).
    """
    return Partition(_blocks(spec, 0)[0])


def quotient_rows(spec: FamilySpec) -> list[list[int]]:
    """The equitable quotient over canonical_partition(spec), read off the
    spec: rows[i][j] is how many neighbours each vertex of block i has in
    block j.  No graph is built."""
    return _blocks(spec, 0)[1]


def _blocks(spec: FamilySpec, offset: int):
    """(build's vertex blocks from `offset` on, their quotient rows).

    Refuses, with build's messages, the specs build refuses."""
    o = offset
    if isinstance(spec, Complete):
        _require(spec.n >= 1, "complete graph needs at least one vertex")
        return [range(o, o + spec.n)], [[spec.n - 1]]
    if isinstance(spec, Empty):
        _require(spec.n >= 1, "empty graph needs at least one vertex")
        return [range(o, o + spec.n)], [[0]]
    if isinstance(spec, BridgedCompletes):
        p, q = spec.p, spec.q
        _require(p >= 1 and q >= 1, "bridged completes need positive part sizes")
        return _nonempty(
            [range(o, o + p - 1), [o + p - 1], [o + p], range(o + p + 1, o + p + q)],
            [[p - 2, 1, 0, 0], [p - 1, 0, 1, 0], [0, 1, 0, q - 1], [0, 0, 1, q - 2]])
    if not isinstance(spec, (Union, Join)):
        raise TypeError(f"not a FamilySpec: {spec!r}")
    joined = isinstance(spec, Join)
    _require(joined or spec.parts, "union of nothing")
    read = []
    for part in (spec.left, spec.right) if joined else spec.parts:
        read.append(_blocks(part, o))
        o += sum(map(len, read[-1][0]))
    rows = []
    for i, (_, part_rows) in enumerate(read):
        for row in part_rows:
            full = []
            for j, (blocks, _) in enumerate(read):
                # a join links each vertex to all of the other side, a union to none
                full += row if i == j else [len(b) if joined else 0 for b in blocks]
            rows.append(full)
    return [b for blocks, _ in read for b in blocks], rows


def _nonempty(blocks, rows):
    keep = [i for i, b in enumerate(blocks) if b]
    return [blocks[i] for i in keep], [[rows[i][j] for j in keep] for i in keep]


def _quotient_root(spec: FamilySpec):
    """(exact charpoly of quotient_rows(spec), its largest root in [0, n]),
    from the spec alone: the eigensolver's cross-check builds its own graph."""
    blocks, rows = _blocks(spec, 0)
    poly = spectral.characteristic_polynomial(rows)
    return poly, spectral.largest_real_root(poly, 0.0, float(sum(map(len, blocks))))


# ---------------------------------------------------------------------------
# Named family registry
# ---------------------------------------------------------------------------

def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _even(n: int) -> bool:
    return n % 2 == 0


def thm11_extremal(n: int, k: int, s: int) -> FamilySpec:
    """K_s v (K_{n-2s+2k-1} u (s-2k+1)K1)."""
    _require(k >= 1 and s >= 2 * k, "requires s >= 2k >= 2")
    _require(_even(n) and n >= 2 * s - 2 * k + 2, "requires even n >= 2s-2k+2")
    return Join(Complete(s),
                Union((Complete(n - 2 * s + 2 * k - 1), Empty(s - 2 * k + 1))))


def thm11_exc1(n: int, k: int) -> FamilySpec:
    """K_{2k} v (K_{n-2k-1} u K1)."""
    _require(k >= 1, "requires k >= 1")
    _require(_even(n) and n >= 2 * k + 2, "requires even n >= 2k+2")
    return Join(Complete(2 * k), Union((Complete(n - 2 * k - 1), Empty(1))))


def thm11_exc2(k: int) -> FamilySpec:
    """K_{2k+1} v 3K1 (order 2k+4)."""
    _require(k >= 1, "requires k >= 1")
    return Join(Complete(2 * k + 1), Empty(3))


def thm13_f1() -> FamilySpec:
    """K2 v (K2 u 2K1) (order 6)."""
    return Join(Complete(2), Union((Complete(2), Empty(2))))


def thm13_f2() -> FamilySpec:
    """K3 v (K2 u 3K1) (order 8)."""
    return Join(Complete(3), Union((Complete(2), Empty(3))))


def thm13_f3(n: int) -> FamilySpec:
    """K1 v (K2 u K_{n-3})."""
    _require(_even(n) and n >= 6, "requires even n >= 6")
    return Join(Complete(1), Union((Complete(2), Complete(n - 3))))


def thm13_fact3_pendant(n: int, s: int) -> FamilySpec:
    """K_s v (K_{n-2s-1}^+ u sK1).

    The order works out to n; n is deliberately not forced even here, so
    the odd-order variant of this family stays constructible and sweeps can
    rule it out empirically rather than by fiat.
    """
    _require(s >= 1, "requires s >= 1")
    _require(n - 2 * s - 1 >= 1, "requires n >= 2s+2")
    return Join(Complete(s), Union((BridgedCompletes(n - 2 * s - 1, 1), Empty(s))))


def thm13_fact3_split(n: int, s: int) -> FamilySpec:
    """K_s v (K2 u K_{n-2s-1} u (s-1)K1)."""
    _require(s >= 2, "requires s >= 2")
    _require(n - 2 * s - 1 >= 1, "requires n >= 2s+2")
    return Join(Complete(s),
                Union((Complete(2), Complete(n - 2 * s - 1), Empty(s - 1))))


def lem210(n: int) -> FamilySpec:
    """K1 v (K_{n-3} u 2K1)."""
    _require(_even(n) and n >= 4, "requires even n >= 4")
    return Join(Complete(1), Union((Complete(n - 3), Empty(2))))


def w1(n: int) -> FamilySpec:
    """K_{(n-2)/2} v (K2 u ((n-2)/2)K1)."""
    _require(_even(n) and n >= 6, "requires even n >= 6")
    s = (n - 2) // 2
    return Join(Complete(s), Union((Complete(2), Empty(s))))


def w2(n: int) -> FamilySpec:
    """K2 v (K_{n-5}^+ u 2K1)."""
    _require(_even(n) and n >= 8, "n must be even >= 8")
    return Join(Complete(2), Union((BridgedCompletes(n - 5, 1), Empty(2))))


FAMILY_REGISTRY: dict[str, Callable[..., FamilySpec]] = {
    # id -> builder; its signature names the required parameters
    "thm11-extremal": thm11_extremal,
    "thm11-exc1": thm11_exc1,
    "thm11-exc2": thm11_exc2,
    "thm13-f1": thm13_f1,
    "thm13-f2": thm13_f2,
    "thm13-f3": thm13_f3,
    "thm13-fact3-pendant": thm13_fact3_pendant,
    "thm13-fact3-split": thm13_fact3_split,
    "lem210": lem210,
    "w1": w1,
    "w2": w2,
}


def named_spec(family_id: str, **params) -> FamilySpec:
    """Expand a registry id plus parameters into a FamilySpec."""
    if family_id not in FAMILY_REGISTRY:
        raise ValueError(f"unknown family id: {family_id!r}")
    builder = FAMILY_REGISTRY[family_id]
    names = tuple(inspect.signature(builder).parameters)
    missing = [p for p in names if p not in params]
    extra = [p for p in params if p not in names]
    if missing or extra:
        raise ValueError(
            f"family {family_id!r} takes parameters {names}, got {sorted(params)}")
    return builder(**params)


def build_named(family_id: str, **params) -> Graph:
    return build(named_spec(family_id, **params))


def recognize(g: Graph, candidates) -> tuple[str, dict] | None:
    """First candidate (family_id, params) whose graph is isomorphic to g.

    Candidates whose parameters are out of range or whose order differs
    from g are skipped silently.
    """
    for family_id, params in candidates:
        try:
            spec = named_spec(family_id, **params)
        except ValueError:
            continue
        if _order_size(spec) != (g.n, g.m):
            continue
        if are_isomorphic(g, build(spec)):
            return family_id, dict(params)
    return None


# ---------------------------------------------------------------------------
# Text syntax for the CLI
# ---------------------------------------------------------------------------
#
#   expr      := unionexpr ( "v" unionexpr )*          join, left associative
#   unionexpr := bridge ( "u" bridge )*                disjoint union
#   bridge    := atom ( "+" atom )?                    both sides complete
#   atom      := INT "K1" | "K1" | "K(" INT ")" [ "^+" ] | "(" expr ")"
#   named     := ID [ ":" key "=" INT ( "," key "=" INT )* ]
#
# "K(5)^+" is the 5-clique with a pendant (6 vertices), the same spec as
# "K(5)+K(1)"; "Ks(3)" is accepted
# as an alias of "K(3)".  A named form is used when the input starts with a
# registry id, e.g. "thm13-f2" or "w2:n=10".

_TOKEN_RE = re.compile(r"\s*(Ks?\(\d+\)(?:\^\+)?|\d+K1|K1|[()+uv])")


def parse_family_text(text: str) -> FamilySpec:
    """Parse either a registry shortcut or a construction expression."""
    text = text.strip()
    if not text:
        raise ValueError("empty family specification")
    head = text.split(":", 1)[0].strip()
    if head in FAMILY_REGISTRY:
        params = {}
        if ":" in text:
            for item in text.split(":", 1)[1].split(","):
                if "=" not in item:
                    raise ValueError(f"bad parameter {item!r} (expected key=value)")
                key, val = item.split("=", 1)
                params[key.strip()] = int(val)
        return named_spec(head, **params)
    return _parse_expression(text)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"cannot tokenize family text at: {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _parse_expression(text: str) -> FamilySpec:
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of family text")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        pos += 1
        return tok

    def parse_atom() -> FamilySpec:
        tok = peek()
        if tok == "(":
            take("(")
            inner = parse_join()
            take(")")
            return inner
        if tok is None:
            raise ValueError("unexpected end of family text")
        take()
        if tok == "K1":
            return Empty(1)
        if tok.endswith("K1"):
            return Empty(int(tok[:-2]))
        m = re.fullmatch(r"Ks?\((\d+)\)(\^\+)?", tok)
        if m:
            size = int(m.group(1))
            return BridgedCompletes(size, 1) if m.group(2) else Complete(size)
        raise ValueError(f"unexpected token {tok!r}")

    def parse_bridge() -> FamilySpec:
        left = parse_atom()
        if peek() == "+":
            take("+")
            right = parse_atom()
            if not isinstance(left, Complete) or not isinstance(right, Complete):
                raise ValueError("'+' links two completes, e.g. K(3)+K(5)")
            return BridgedCompletes(left.n, right.n)
        return left

    def parse_union() -> FamilySpec:
        parts = [parse_bridge()]
        while peek() == "u":
            take("u")
            parts.append(parse_bridge())
        return parts[0] if len(parts) == 1 else Union(tuple(parts))

    def parse_join() -> FamilySpec:
        node = parse_union()
        while peek() == "v":
            take("v")
            node = Join(node, parse_union())
        return node

    result = parse_join()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in family text: {tokens[pos:]!r}")
    return result


def format_spec(spec: FamilySpec) -> str:
    """Render a FamilySpec back into the text syntax."""
    if isinstance(spec, Complete):
        return f"K({spec.n})"
    if isinstance(spec, Empty):
        return "K1" if spec.n == 1 else f"{spec.n}K1"
    if isinstance(spec, BridgedCompletes):
        return f"K({spec.p})^+" if spec.q == 1 else f"K({spec.p})+K({spec.q})"
    if isinstance(spec, Union):
        return " u ".join(_fmt_child(p, Union) for p in spec.parts)
    if isinstance(spec, Join):
        return (f"{_fmt_child(spec.left, Join)} v {_fmt_child(spec.right, Join)}")
    raise TypeError(f"not a FamilySpec: {spec!r}")


def _fmt_child(spec: FamilySpec, parent) -> str:
    text = format_spec(spec)
    if parent is Union and isinstance(spec, (Join,)):
        return f"({text})"
    if parent is Join and isinstance(spec, (Join, Union)):
        return f"({text})"
    return text


__all__ = [
    "FamilySpec", "Complete", "Empty", "Union", "Join", "BridgedCompletes",
    "build", "edge_count", "canonical_partition", "quotient_rows",
    "FAMILY_REGISTRY", "named_spec", "build_named", "recognize",
    "parse_family_text", "format_spec",
    "thm11_extremal", "thm11_exc1", "thm11_exc2", "thm13_f1", "thm13_f2",
    "thm13_f3", "thm13_fact3_pendant", "thm13_fact3_split", "lem210",
    "w1", "w2",
]
