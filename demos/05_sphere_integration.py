"""Exact sphere integrals against floating-point quadrature.

Integrals over the unit 3-sphere are stored as exact rationals in units
of the volume 2 pi^2.  A torus-times-interval chart gives a tensor
quadrature rule that is exact on polynomials up to roundoff, and a
seeded Monte Carlo estimator provides an independent statistical check.
"""

import math
from fractions import Fraction

from spinor_s3.exactnum import gauss
from spinor_s3.geometry import (
    SPHERE_VOLUME,
    l2_inner_product,
    monomial_integral,
    monte_carlo_quadrature,
    tensor_quadrature,
)
from spinor_s3.polyring import G2, G2_BAR, GM1, Polynomial, Z_VIEW
from spinor_s3.transfer import gram_matrix

print("closed-form monomial integrals (2 pi^2 units):")
for exps in ((0, 0, 0, 0), (1, 1, 0, 0), (2, 2, 0, 0), (1, 1, 1, 1), (1, 0, 0, 0)):
    value = monomial_integral(*exps)  # a Fraction: the closed formula is real
    print(f"  {exps}: {gauss(value)}  (= {float(value) * SPHERE_VOLUME:.12g})")

print("\nnorms of the highest-weight powers: <z2^k, z2^k> = 2 pi^2 / (k+1):")
for k in range(6):
    print(f"  k={k}: {l2_inner_product(G2**k, G2**k)}")

# Tensor rule: trapezoid in the two angles, Gauss-Legendre radially.
print("\ntensor quadrature vs exact:")
polys = (Polynomial.constant(1, Z_VIEW), G2 * G2_BAR, GM1 * GM1)
for label, numeric in zip(("1", "z2 conj(z2)", "z1^2"), tensor_quadrature(polys, 9, 5)):
    print(f"  integral({label}) ~ {numeric.real:.12g}")
print(f"  (volume 2 pi^2 = {SPHERE_VOLUME:.12g})")

# Monte Carlo with an explicit seed; the estimate carries its own
# standard error.
[(value, stderr)] = monte_carlo_quadrature([G2 * G2_BAR], 200_000, 1)
exact = float(monomial_integral(1, 1, 0, 0)) * SPHERE_VOLUME
print(f"\nmonte carlo (200k samples, seed 1): {value.real:.8g}"
      f" +- {stderr:.2g}, exact {exact:.8g}")

# The Gram matrix of the transferred basis is diagonal, and its diagonal
# follows the symmetric-power pattern 1/((k+1) C(k,p) C(k,q)).
K = 2
gram = gram_matrix(K)
n = (K + 1) ** 2
diag = [gram[i][i] for i in range(n)]
off = all(gram[i][j].is_zero() for i in range(n) for j in range(n) if i != j)
print(f"\ngram matrix at k={K}: diagonal={off}")
for p in range(K + 1):
    for q in range(K + 1):
        entry = diag[p * (K + 1) + q]
        predicted = Fraction(1, (K + 1) * math.comb(K, p) * math.comb(K, q))
        print(f"  |{p}>|{q}>: {entry.re}  (pattern {predicted})")
