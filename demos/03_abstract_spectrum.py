"""The Dirac spectrum computed on the abstract side.

On each q slice the shifted operator acts by a 2(k+1) x 2(k+1) integer
matrix that preserves the two-dimensional spans {e0|p>, e2|p-1>}.  Its
quadratic relation (Dbar + k)(Dbar - (k+2)) = 0 means only two
eigenvalues occur; after shifting by -3/2 the Dirac eigenvalues are
k + 1/2 and -k - 3/2 with multiplicities k(k+1) and (k+1)(k+2).
"""

from fractions import Fraction

from spinor_s3 import linalg
from spinor_s3.exactnum import gauss
from spinor_s3.abstract_dirac import (
    dbar_apply,
    dbar_block_int,
    eigenbasis_abstract,
    quadratic_check,
    spectrum_table,
)

K = 2

# The block is a Gaussian-integer matrix whose rows hold only their
# nonzero entries, column: (re, im).
block = dbar_block_int(K)
print(f"Dbar block at k={K} (basis e0|0..k>, e2|0..k>; rows {{column: (re, im)}}):")
for row in block:
    print("  ", dict(sorted(row.items())))

print(f"\nquadratic relation holds: {quadratic_check(K)}")

char = [gauss(re, im) for re, im in linalg.charpoly_int(block)]
expected = linalg.charpoly_from_roots([(Fraction(K + 2), K), (Fraction(-K), K + 2)])
print(f"characteristic polynomial factors as (x-{K + 2})^{K} (x+{K})^{K + 2}:",
      char == expected)

plus, minus = eigenbasis_abstract(K)
print(f"\nexplicit families at k={K}:")
print(f"  eigenvalue {plus.dirac_eigenvalue}: {len(plus)} vectors")
print(f"  eigenvalue {minus.dirac_eigenvalue}: {len(minus)} vectors")
v = plus.vectors[0]
print("  sample plus vector:", dict(v.coeffs))
shifted = Fraction(3, 2) + plus.dirac_eigenvalue
print("  Dbar image:", dict(dbar_apply(v).coeffs), f"= {shifted} * vector")

print("\nspectrum table up to k=4:")
print(f"{'k':>3} {'eigenvalue':>11} {'multiplicity':>13}")
for row in spectrum_table(4):
    print(f"{row.k:>3} {str(row.eigenvalue):>11} {row.multiplicity:>13}")
