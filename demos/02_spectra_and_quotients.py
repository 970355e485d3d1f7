#!/usr/bin/env python3
"""Spectral radii, equitable quotients, and exact characteristic polynomials.

The float eigensolver and the exact quotient-polynomial route must land on
the same number; this script shows both sides for a few families.
"""

import math

from matchspec import (Partition, characteristic_polynomial, complete_graph,
                       eigenvalues, empty_graph, join, largest_real_root,
                       quotient_matrix, spectral_radius, theta)
from matchspec.families import (build, canonical_partition, named_spec,
                                quotient_rows)

print("== spectral radius basics ==")
print(f"rho(K7) = {spectral_radius(complete_graph(7)).rho:.12f}  (expect 6)")
g = join(complete_graph(2), empty_graph(4))
r = spectral_radius(g)
print(f"rho(K(2) v 4K1) = {r.rho:.12f}  vs (1+sqrt(33))/2 = {(1 + math.sqrt(33)) / 2:.12f}")
print(f"eigensolver residual: {r.residual:.2e}; Perron vector all positive: "
      f"{all(x > 0 for x in r.perron)}")
print(f"full spectrum of C-like join: {[round(x, 4) for x in eigenvalues(g)]}")

print("\n== equitable quotient shares the top eigenvalue ==")
q = quotient_matrix(g, Partition(((0, 1), (2, 3, 4, 5))))
print(f"quotient rows: {q.as_int_rows()}  equitable={q.equitable}")
poly = characteristic_polynomial(q.as_int_rows())
print(f"charpoly (ascending coefficients): {poly.coeffs}")
print(f"largest root = {largest_real_root(poly, 0, 6):.12f}")

print("\n== a 5-block partition, exactly ==")
spec = named_spec("w2", n=12)
graph = build(spec)
part = canonical_partition(spec)
q = quotient_matrix(graph, part)
print(f"family 'w2' at n=12, blocks of sizes {q.block_sizes}")
print("   quotient of the built graph     rows read off the spec")
for built, read in zip(q.as_int_rows(), quotient_rows(spec)):
    print(f"   {str(built):<31} {read}")
poly = characteristic_polynomial(q.as_int_rows())
root = largest_real_root(poly, 0, 12)
print(f"largest root {root:.12f} vs eigensolver "
      f"{spectral_radius(graph).rho:.12f}")

print("\n== the cubic bound for graphs without a perfect matching ==")
for n in (8, 12, 16):
    fam = build(named_spec("lem210", n=n))
    print(f"n={n}: theta(n) = {theta(n):.10f}, "
          f"rho of the attaining family = {spectral_radius(fam).rho:.10f}")
