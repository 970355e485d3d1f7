"""Adjacency spectra, exact characteristic polynomials, and quotient matrices.

Floating point eigenwork is delegated to LAPACK via numpy (dense symmetric
solver; ample at n <= 62).  Everything that feeds the polynomial identity
checks is exact: characteristic polynomials come from the Faddeev-LeVerrier
recurrence over Python's unbounded integers, or over exact rationals when
an entry is not an integer, so displayed coefficient formulas can be
compared coefficient by coefficient, not just numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

import numpy as np

from .graphs import Graph, _adjacency, _matrix_rows


@dataclass(frozen=True)
class SpectralResult:
    """Spectral radius with its (unit, sign-fixed) Perron vector.

    residual is the max-norm of A*perron - rho*perron; connected inputs give
    a strictly positive perron vector by Perron-Frobenius.
    """

    rho: float
    perron: tuple[float, ...]
    residual: float


def adjacency_matrix(g: Graph) -> np.ndarray:
    """The (n, n) 0/1 float64 adjacency matrix, built as a batch's are."""
    rows = np.array([g.adj], dtype=np.min_scalar_type((1 << g.n) - 1))
    return _adjacency(rows, np.float64)[:, :, 0]


def eigenvalues(g: Graph) -> list[float]:
    """All adjacency eigenvalues in nonincreasing order."""
    if g.n == 0:
        raise ValueError("eigenvalues undefined for the empty graph")
    vals = np.linalg.eigvalsh(adjacency_matrix(g))
    return [float(x) for x in vals[::-1]]


@lru_cache(maxsize=1)
def spectral_radius(g: Graph) -> SpectralResult:
    """Largest adjacency eigenvalue plus Perron vector and residual.

    The most recent graph's result is memoised, so `analyze` and the
    verdicts it asks for eigensolve a graph once.
    """
    if g.n == 0:
        raise ValueError("spectral radius undefined for the empty graph")
    a = adjacency_matrix(g)
    vals, vecs = np.linalg.eigh(a)
    rho = float(vals[-1])
    vec = vecs[:, -1]
    # fix the sign so the dominant entry is positive, then force exact unit norm
    pivot = int(np.argmax(np.abs(vec)))
    if vec[pivot] < 0:
        vec = -vec
    vec = vec / np.linalg.norm(vec)
    residual = float(np.max(np.abs(a @ vec - rho * vec)))
    return SpectralResult(rho, tuple(float(x) for x in vec), residual)


def _radii(rows: np.ndarray) -> np.ndarray:
    """The spectral radius of each graph of an (N, n) array of neighbour
    masks, from one eigh over each stack of at most
    `graphs._matrix_rows(n)` of their adjacency matrices.

    eigh, as in `spectral_radius`, and not eigvalsh, whose values can
    differ in the last bits: each radius equals spectral_radius(g).rho.
    """
    out = np.empty(len(rows))
    step = _matrix_rows(rows.shape[1])
    for start in range(0, len(rows), step):
        stack = _adjacency(rows[start:start + step], np.float64).transpose(2, 0, 1)
        out[start:start + step] = np.linalg.eigh(stack)[0][:, -1]
    return out


def radius_upper_bound(m, n: int, low) -> np.ndarray:
    """Upper bound on the spectral radius of graphs with n vertices, m edges
    and minimum degree `low`, elementwise over arrays of m and low: the
    Hong-Shu-Fang bound (low - 1 + sqrt((low + 1)^2 + 4(2m - low n))) / 2
    (Hong, Shu and Fang, J. Combin. Theory Ser. B 81, 2001, for connected
    graphs; Nikiforov, Combin. Probab. Comput. 11, 2002, for every graph).

    It is tight on regular graphs and on graphs whose degrees are low and
    n - 1 only.  At low = 1 it is Hong's sqrt(2m - n + 1), bit for bit, and
    at low = 0 Stanley's (-1 + sqrt(1 + 8m)) / 2: every term is an integer
    held exactly, and the square root of 4x halves to that of x exactly.
    """
    m = np.asarray(m, dtype=np.float64)
    low = np.asarray(low, dtype=np.float64)
    return (low - 1.0 + np.sqrt((low + 1.0) ** 2 + 4.0 * (2.0 * m - low * n))) / 2.0


# ---------------------------------------------------------------------------
# Exact integer polynomials
# ---------------------------------------------------------------------------

def _normalize_coeff(c):
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    return c


@dataclass(frozen=True)
class Polynomial:
    """Univariate polynomial with exact coefficients, ascending by degree."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = [_normalize_coeff(c) for c in self.coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0 if not isinstance(x, float) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + (float(c) if isinstance(x, float) else c)
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs))[1:] or (0,))


def characteristic_polynomial(matrix) -> Polynomial:
    """det(xI - M) for a square matrix, exactly (Faddeev-LeVerrier).

    M_1 = M and M_k = M (M_(k-1) + c_(k-1) I), with c_k = -tr(M_k) / k the
    coefficient of x^(n-k).  Integer entries stay Python ints: M_k is then
    integral and k divides tr(M_k), so every coefficient is an int, and
    Python ints do not overflow.  Other entries (Fractions, floats, bools) are
    turned into exact Fractions first, a float to its binary value, and take
    the same recurrence; a coefficient that comes out integral is an int.
    """
    rows = [list(r) for r in matrix]
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("characteristic polynomial requires a square matrix")
    m = [[x if type(x) is int else _normalize_coeff(Fraction(x)) for x in row]
         for row in rows]
    coeffs = [1]  # coeffs[k] multiplies x^(n-k)
    mk = m
    for k in range(1, n + 1):
        if k > 1:
            c = coeffs[-1]
            mk = _mat_mul(m, [[x + c if i == j else x for j, x in enumerate(row)]
                              for i, row in enumerate(mk)])
        trace = sum(mk[i][i] for i in range(n))
        coeffs.append(_normalize_coeff(Fraction(-trace, k)))
    return Polynomial(tuple(reversed(coeffs)))


def _mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


# ---------------------------------------------------------------------------
# Partitions and quotient matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """Ordered partition of the vertex set into nonempty disjoint blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "blocks", tuple(tuple(sorted(b)) for b in self.blocks))

    def validate(self, n: int) -> None:
        seen = set()
        for block in self.blocks:
            if not block:
                raise ValueError("partition blocks must be nonempty")
            for v in block:
                if not 0 <= v < n:
                    raise ValueError(f"vertex {v} out of range")
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two blocks")
                seen.add(v)
        if len(seen) != n:
            raise ValueError("partition does not cover every vertex")


@dataclass(frozen=True)
class QuotientMatrix:
    """Average block row sums of the adjacency matrix over a partition."""

    entries: tuple[tuple[Fraction, ...], ...]
    equitable: bool
    block_sizes: tuple[int, ...]

    def as_int_rows(self) -> list[list[int]]:
        if not all(e.denominator == 1 for row in self.entries for e in row):
            raise ValueError("quotient matrix has non-integer entries")
        return [[int(e) for e in row] for row in self.entries]


def quotient_matrix(g: Graph, partition: Partition) -> QuotientMatrix:
    """Quotient of A(g) over the partition; flags whether it is equitable."""
    partition.validate(g.n)
    blocks = partition.blocks
    s = len(blocks)
    masks = []
    for block in blocks:
        m = 0
        for v in block:
            m |= 1 << v
        masks.append(m)
    entries = []
    equitable = True
    for bi in blocks:
        row = []
        for j in range(s):
            counts = [(g.adj[v] & masks[j]).bit_count() for v in bi]
            if any(c != counts[0] for c in counts):
                equitable = False
            row.append(Fraction(sum(counts), len(bi)))
        entries.append(tuple(row))
    return QuotientMatrix(tuple(entries), equitable, tuple(len(b) for b in blocks))


# ---------------------------------------------------------------------------
# Root extraction
# ---------------------------------------------------------------------------

def largest_real_root(p: Polynomial, lo: float, hi: float) -> float:
    """Largest real root of p in [lo, hi], correctly rounded; ValueError if none.

    Exact: points are dyadic, x / 2^s like lo and hi, and signs are integers'.
    p's Sturm chain over gcd(p, p') counts the distinct roots above a point;
    its head has p's roots, each simple.  Bisect by that count until (a, b)
    holds the top root alone, then by the head's sign, until a and b round to
    one float.  Midpoints on the grid of a and b meet a dyadic root exactly.
    """
    if hi < lo:
        raise ValueError("empty bracket")
    chain = _sturm_chain(p)
    s = max(Fraction(x).denominator for x in (lo, hi)).bit_length() - 1
    a, b = (int(Fraction(x) * (1 << s)) for x in (lo, hi))

    def value(q, x):  # 2^(s deg q) q(x / 2^s), an integer of its sign
        acc = 0
        for i, c in enumerate(reversed(q)):
            acc = acc * x + (c << s * i)
        return acc

    def variations(x):  # sign changes along the chain at x / 2^s
        signs = [v > 0 for v in (value(q, x) for q in chain) if v]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    up, top = value(chain[0], b), variations(b)
    if not up:
        return b / (1 << s)
    count = variations(a) - top  # roots of p in (a, b)
    if not count and value(chain[0], a):
        raise ValueError(f"no real root of polynomial in [{lo}, {hi}]")
    while count and a / (1 << s) != b / (1 << s):
        if b - a == 1:
            a, b, s = 2 * a, 2 * b, s + 1
        mid = (a + b) >> 1
        v = value(chain[0], mid)
        above = variations(mid) - top if count > 1 else int(v * up < 0)
        if above:
            a, count = mid, above
        elif v:
            b = mid
        else:
            return mid / (1 << s)
    return a / (1 << s)


def _sturm_chain(p: Polynomial) -> list[list[int]]:
    """p's Sturm chain in integers, over gcd(p, p') if p has a multiple root."""
    scale = math.lcm(*(c.denominator for c in p.coeffs))
    chain = [[int(c * scale) for c in q.coeffs] for q in (p, p.derivative())]
    while any(chain[-1]):
        chain.append([-c for c in _divmod(chain[-2], chain[-1])[1]])
    chain.pop()
    return [_divmod(q, chain[-1])[0] for q in chain] if len(chain[-1]) > 1 else chain


def _divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Positive multiples of the quotient and remainder of a by b."""
    m, r, q = b[-1] ** 2, list(a), []
    while len(r) >= len(b):
        c, j = r[-1] * b[-1], len(r) - len(b)
        q = [m * x for x in q] + [c]
        r = [m * x - (c * b[i - j] if i >= j else 0) for i, x in enumerate(r[:-1])]
    while r and not r[-1]:
        r.pop()
    return q[::-1], r


def theta(n: int) -> float:
    """Largest real root of x^3 - (n-4)x^2 - (n-1)x + 2(n-4).

    This equals the spectral radius of the join of a single vertex with
    (a clique on n-3 vertices plus two isolated vertices); defined for
    even n >= 4, where the cubic's top root is simple.
    """
    if n % 2 != 0 or n < 4:
        raise ValueError("theta is defined for even n >= 4")
    p = Polynomial((2 * (n - 4), -(n - 1), -(n - 4), 1))
    return largest_real_root(p, 0.0, float(n))


__all__ = [
    "SpectralResult", "adjacency_matrix", "eigenvalues", "spectral_radius",
    "radius_upper_bound", "Polynomial",
    "characteristic_polynomial", "Partition", "QuotientMatrix",
    "quotient_matrix", "largest_real_root", "theta",
]
