import math
import random
from fractions import Fraction

import numpy as np
import pytest

from matchspec import enumeration, families
from matchspec.families import (build, build_named, canonical_partition, named_spec,
                                quotient_rows)
from matchspec.graphs import (complete_graph, cycle_graph, delete_vertices,
                              disjoint_union, empty_graph, from_edge_list, join)
from matchspec.spectral import (Partition, Polynomial, adjacency_matrix,
                                characteristic_polynomial, eigenvalues,
                                largest_real_root, quotient_matrix,
                                spectral_radius, theta)
from matchspec.theorems import exception_candidates, statements
from oracles import (adjacency_matrix_exact, characteristic_polynomial_reference,
                     power_iteration_rho)


def random_graph(rng, n, p=0.5):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                              if rng.random() < p])


# --- spectral radius --------------------------------------------------------

def test_complete_graph_radius():
    for n in (1, 2, 3, 5, 8, 13):
        r = spectral_radius(complete_graph(n))
        assert abs(r.rho - (n - 1)) < 1e-10


def test_paper_radius_values():
    g = join(complete_graph(2), empty_graph(4))
    assert abs(spectral_radius(g).rho - (1 + math.sqrt(33)) / 2) < 1e-12
    assert abs(spectral_radius(build_named("thm13-f1")).rho - 3.6262) < 5e-4
    assert abs(spectral_radius(build_named("thm13-f2")).rho - 5.1757) < 5e-4


def test_perron_vector_properties():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 12)
        g = random_graph(rng, n)
        r = spectral_radius(g)
        assert r.residual <= 1e-10
        assert abs(sum(x * x for x in r.perron) - 1.0) < 1e-12
    # strictly positive on connected graphs, including at the size ceiling
    big = join(complete_graph(1), random_graph(rng, 61, 0.08))
    r = spectral_radius(big)
    assert big.n == 62 and r.residual <= 1e-10
    assert all(x > 0 for x in r.perron)


def test_power_iteration_cross_check():
    rng = random.Random(43)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 10))
        assert abs(power_iteration_rho(g) - spectral_radius(g).rho) < 1e-7


def test_eigenvalues():
    assert np.allclose(eigenvalues(complete_graph(4)), [3, -1, -1, -1])
    assert np.allclose(eigenvalues(cycle_graph(4)), [2, 0, 0, -2])
    vals = eigenvalues(random_graph(random.Random(4), 9))
    assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))
    with pytest.raises(ValueError):
        eigenvalues(empty_graph(0))


def test_subgraph_radius_monotone():
    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(3, 10)
        g = join(complete_graph(1), random_graph(rng, n - 1))  # connected
        edges = g.edges()
        e = edges[rng.randrange(len(edges))]
        h = from_edge_list(n, [x for x in edges if x != e])
        assert spectral_radius(h).rho < spectral_radius(g).rho


def test_interlacing_spot():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(2, 10)
        g = random_graph(rng, n)
        t = rng.randint(1, n)
        keep = sorted(rng.sample(range(n), t))
        sub, _ = delete_vertices(g, [v for v in range(n) if v not in keep])
        lam, mu = eigenvalues(g), eigenvalues(sub)
        for i in range(t):
            assert lam[i] >= mu[i] - 1e-9
            assert mu[i] >= lam[n - t + i] - 1e-9


def test_perron_symmetry_on_join_families():
    for fid, params in [("thm11-exc1", {"n": 8, "k": 1}),
                        ("thm13-f2", {}), ("w1", {"n": 10})]:
        g = build_named(fid, **params)
        perron = spectral_radius(g).perron
        for i in range(g.n):
            for j in range(i + 1, g.n):
                if g.adj[i] & ~(1 << j) == g.adj[j] & ~(1 << i):
                    assert abs(perron[i] - perron[j]) <= 1e-9


# --- exact characteristic polynomials ---------------------------------------

def test_charpoly_known_values():
    p = characteristic_polynomial(adjacency_matrix_exact(complete_graph(4)))
    assert p.coeffs == (-3, -8, -6, 0, 1)  # (x-3)(x+1)^3
    p = characteristic_polynomial([[1, 3, 1], [2, 2, 0], [2, 0, 0]])
    assert p.coeffs == (4, -6, -3, 1)
    assert characteristic_polynomial([[7]]).coeffs == (-7, 1)
    with pytest.raises(ValueError):
        characteristic_polynomial([[1, 2]])


def test_charpoly_vs_numpy_oracle():
    rng = random.Random(59)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        exact = characteristic_polynomial(m)
        ref = np.poly(np.array(m, dtype=float))  # descending, leading 1
        ref_ascending = tuple(int(round(c)) for c in ref[::-1])
        assert exact.coeffs == ref_ascending


def test_charpoly_rational_entries():
    m = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
    p = characteristic_polynomial(m)
    assert p.coeffs == (0, -1, 1)  # x^2 - x


def test_charpoly_non_integer_entries():
    assert characteristic_polynomial([[0.5]]).coeffs == (Fraction(-1, 2), 1)
    p = characteristic_polynomial([[False, True], [True, False]])
    assert p.coeffs == (-1, 0, 1) and all(type(c) is int for c in p.coeffs)
    assert characteristic_polynomial([]).coeffs == (1,)
    m = [[Fraction(1, 3), 2], [0.25, -1]]
    assert characteristic_polynomial(m).coeffs == characteristic_polynomial_reference(m)


def _assert_int_charpoly(rows):
    got = characteristic_polynomial(rows).coeffs
    assert got == characteristic_polynomial_reference(rows), rows
    assert all(type(c) is int for c in got), rows


def test_integer_charpoly_matches_fraction_reference_on_random_matrices():
    rng = random.Random(67)
    for _ in range(60):
        n = rng.randint(1, 12)
        _assert_int_charpoly([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])


def test_integer_charpoly_matches_fraction_reference_on_quotients():
    specs = [named_spec(fid, **params)
             for fid, params in enumeration._registry_grid(range(6, 15))]
    specs += [enumeration._IDENTITIES[name](**params)[0]
              for name, params in enumeration.default_identity_grid()]
    assert len(specs) > 100
    for spec in specs:
        _assert_int_charpoly(quotient_rows(spec))


def test_charpoly_vanishes_at_eigenvalues():
    rng = random.Random(61)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 9))
        p = characteristic_polynomial(adjacency_matrix_exact(g))
        for lam in eigenvalues(g):
            assert abs(p(float(lam))) <= 1e-6


def test_polynomial_behavior():
    p = Polynomial((4, -6, -3, 1))
    assert p.degree == 3 and p(0) == 4 and p(1) == -4
    assert p.derivative().coeffs == (-6, -6, 3)
    assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)  # trailing zeros trimmed
    assert Polynomial((Fraction(2, 1),)).coeffs == (2,)


# --- quotient matrices ------------------------------------------------------

def test_quotient_examples():
    g = join(complete_graph(2), empty_graph(4))
    q = quotient_matrix(g, Partition(((0, 1), (2, 3, 4, 5))))
    assert q.equitable and q.as_int_rows() == [[1, 4], [2, 0]]
    cp = characteristic_polynomial(q.as_int_rows())
    assert cp.coeffs == (-8, -1, 1)
    assert abs(largest_real_root(cp, 0, 6) - (1 + math.sqrt(33)) / 2) < 1e-12

    g = join(complete_graph(3), empty_graph(3))
    q = quotient_matrix(g, Partition(((0, 1, 2), (3, 4, 5))))
    assert q.equitable and q.as_int_rows() == [[2, 3], [3, 0]]
    assert characteristic_polynomial(q.as_int_rows()).coeffs == (-9, -2, 1)
    assert abs(largest_real_root(characteristic_polynomial(q.as_int_rows()), 0, 6)
               - (1 + math.sqrt(10))) < 1e-12


def test_quotient_path_endpoints():
    from matchspec.graphs import path_graph
    q = quotient_matrix(path_graph(3), Partition(((0, 2), (1,))))
    assert q.equitable and q.as_int_rows() == [[0, 1], [2, 0]]


def test_quotient_non_equitable():
    from matchspec.graphs import path_graph
    q = quotient_matrix(path_graph(4), Partition(((0, 1), (2, 3))))
    assert not q.equitable
    assert q.entries[0] == (Fraction(1), Fraction(1, 2))
    with pytest.raises(ValueError):
        q.as_int_rows()


def test_partition_validation():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        quotient_matrix(g, Partition(((0, 1), (1, 2, 3))))
    with pytest.raises(ValueError):
        quotient_matrix(g, Partition(((0, 1),)))
    with pytest.raises(ValueError):
        quotient_matrix(g, Partition(((0, 1), (2, 3, 4))))


def test_quotient_radius_matches_graph():
    # equitable quotient shares the top eigenvalue with the graph
    for fid, params in [("thm11-exc1", {"n": 10, "k": 2}),
                        ("lem210", {"n": 12}), ("w2", {"n": 12})]:
        spec = named_spec(fid, **params)
        g = build(spec)
        q = quotient_matrix(g, canonical_partition(spec))
        assert q.equitable
        poly = characteristic_polynomial(q.as_int_rows())
        root = largest_real_root(poly, 0, g.n)
        assert abs(root - spectral_radius(g).rho) <= 1e-9


# --- root extraction --------------------------------------------------------

def test_largest_real_root_examples():
    assert abs(largest_real_root(Polynomial((-8, -1, 1)), 0, 10)
               - (1 + math.sqrt(33)) / 2) < 1e-12
    r = largest_real_root(Polynomial((8, -7, -4, 1)), 0, 10)
    ref = max(x.real for x in np.roots([1, -4, -7, 8]) if abs(x.imag) < 1e-12)
    assert abs(r - 5.0695) < 5e-4 and abs(r - ref) < 1e-9
    assert abs(largest_real_root(Polynomial((0, -3, 0, 1)), 0, 2)
               - math.sqrt(3)) < 1e-12


def _product(*factors):
    coeffs = [1]
    for f in factors:
        out = [0] * (len(coeffs) + len(f) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(f):
                out[i + j] += a * b
        coeffs = out
    return Polynomial(tuple(coeffs))


def test_largest_real_root_two_roots_in_one_unit_cell():
    # (5x - 11)(5x - 13)(x - 1): 2.2 and 2.6 both lie in [2, 3]
    assert largest_real_root(_product((-11, 5), (-13, 5), (-1, 1)), 0.0, 5.0) == 2.6


def test_largest_real_root_of_even_multiplicity():
    # (2x - 5)^2 (x - 1): p does not change sign at its top root
    assert largest_real_root(_product((-5, 2), (-5, 2), (-1, 1)), 0.0, 5.0) == 2.5
    assert largest_real_root(_product((-1, 1), (-1, 1), (-3, 1), (-3, 1)), -1.0, 2.5) == 1.0
    # the first midpoint of [0, 4] is the double root 2, with the root 3 above it
    assert largest_real_root(_product((-2, 1), (-2, 1), (-3, 1)), 0.0, 4.0) == 3.0


def test_largest_real_root_is_correctly_rounded():
    assert largest_real_root(Polynomial((-3, 0, 1)), 0.0, 2.0) == math.sqrt(3)
    assert theta(4) == math.sqrt(3)
    assert largest_real_root(Polynomial((Fraction(-1, 3), 1)), 0, 1) == 1 / 3
    # 1 + 2^-53 and 1 + 3 * 2^-53 lie halfway between two floats: ties go to even
    half = 2 ** 53
    assert largest_real_root(Polynomial((-(half + 1), half)), 0.0, 3.0) == 1.0
    assert largest_real_root(Polynomial((-(half + 3), half)), 0.0, 3.0) == 1 + 4 / half


def test_largest_real_root_at_either_end_of_the_bracket():
    assert largest_real_root(Polynomial((-2, 1)), 0.0, 2.0) == 2.0
    assert largest_real_root(Polynomial((0, 1)), 0.0, 2.0) == 0.0
    assert largest_real_root(_product((-1, 1), (-3, 1)), 1.0, 2.0) == 1.0
    assert largest_real_root(_product((-1, 1), (-3, 1)), -1.0, 3.0) == 3.0
    assert largest_real_root(Polynomial((0,)), 0.0, 3.0) == 3.0  # every point is a root


def test_largest_real_root_errors():
    with pytest.raises(ValueError):
        largest_real_root(Polynomial((1, 0, 1)), -3, 3)  # x^2 + 1
    with pytest.raises(ValueError):
        largest_real_root(Polynomial((1,)), 3, 0)


def _reached_quotient_roots():
    # {charpoly: root} of every quotient behind the pinned thresholds, the
    # charpoly identities and the spectral family grid
    named = [exception_candidates(t, n)[0] for n in range(4, 63, 2)
             for t in statements(n, 4) if t.kind in ("t14", "t16")]
    named += enumeration._registry_grid((6, 8, 10, 12, 14))
    specs = [named_spec(fid, **params) for fid, params in named]
    specs += [enumeration._IDENTITIES[name](**params)[0]
              for name, params in enumeration.default_identity_grid()]
    return dict(families._quotient_root(spec) for spec in specs)


def test_largest_real_root_matches_sympy():
    # sympy isolates the real roots exactly and evaluates the top one to 60
    # digits, far past the 17 that round it to a float: an independent route
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    roots = _reached_quotient_roots()
    assert len(roots) > 150
    for poly, root in roots.items():
        top = max(sympy.Poly(poly.coeffs[::-1], x).real_roots())
        assert root == float(top.evalf(60)), poly


# --- theta ------------------------------------------------------------------

def test_theta_values():
    assert abs(theta(4) - math.sqrt(3)) < 1e-12
    assert abs(theta(8) - 5.0695) < 5e-4


def test_theta_matches_family_radius():
    for n in (4, 8, 10, 12, 14, 16, 18, 20):
        fam = build_named("lem210", n=n)
        assert abs(theta(n) - spectral_radius(fam).rho) <= 1e-9


def test_theta_invalid():
    with pytest.raises(ValueError):
        theta(7)
    with pytest.raises(ValueError):
        theta(2)
