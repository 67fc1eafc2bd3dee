"""The symmetric-power representation and its ladder operators.

H_k is spanned by kets |0> .. |k>.  The three imaginary units act by
exact banded matrices; combining them over the complex numbers gives a
standard sl2 triple whose raising operator moves |p> to (k-p) |p+1>.
The Casimir element acts by the scalar k(k+2), which is what later
forces the quadratic relation for the Dirac operator.
"""

from spinor_s3.repspace import KetVector, apply_l, apply_sl2, casimir, casimir_expected, l_matrix_int

K = 3

print(f"action of the imaginary units on H_{K}:")
for p in range(K + 1):
    ket = KetVector.basis(K, p)
    print(f"  l1 |{p}> = {apply_l(1, ket).coeffs}")
print()
for p in range(K + 1):
    ket = KetVector.basis(K, p)
    print(f"  l2 |{p}> = {apply_l(2, ket).coeffs}")

# The ladder normalisation: H is diagonal with weights k, k-2, ..., -k;
# Y raises p (and lowers the weight), X lowers p.
print("\nladder action:")
for p in range(K + 1):
    ket = KetVector.basis(K, p)
    print(
        f"  H|{p}> = {(K - 2 * p)}|{p}>,"
        f"  Y|{p}> -> {apply_sl2('Y', ket).coeffs},"
        f"  X|{p}> -> {apply_sl2('X', ket).coeffs}"
    )

# The Casimir identity, exact for every degree.
print("\nCasimir -(l1^2 + l2^2 + l3^2):")
for k in range(6):
    ok = casimir(*(l_matrix_int(i, k) for i in (1, 2, 3))) == casimir_expected(k)
    print(f"  k={k}: equals {k * (k + 2)} * identity -> {ok}")

# The banded structure of the matrices (bandwidth one): each row of a
# Gaussian-integer matrix holds only its nonzero entries, column: (re, im).
print("\nl2 matrix at k=4 (rows {column: (re, im)}):")
for row in l_matrix_int(2, 4):
    print("  ", dict(sorted(row.items())))
