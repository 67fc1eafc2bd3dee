"""From abstract kets to explicit polynomial eigensections.

The transfer map sends |0>|0> to z2^k and is extended by two commuting
lowering operators, realised as honest derivatives along the sphere's
isometry flows.  Every abstract eigenvector then becomes a pair (f, g)
of harmonic polynomials, and the Dirac operator acts on it by its
eigenvalue -- as an exact polynomial identity, not numerically.
"""

from spinor_s3.geometry import dirac_section, laplace_section
from spinor_s3.polyring import laplacian_r4
from spinor_s3.transfer import (
    LEFT,
    beta_lower,
    iso_closed_form,
    recursive_table,
    transfer_eigenbasis,
)

K = 2

print(f"transfer images at k={K} (z view: u0=z2, u1=conj z2, u2=-z1, u3=conj z1):")
for p in range(K + 1):
    for q in range(K + 1):
        image = iso_closed_form(K, p, q)
        print(f"  |{p}>|{q}>  ->  {image.poly}")

# Two independent constructions must agree exactly: the closed
# multinomial formula and p+q lowering steps from z2^k.
recursive = recursive_table(K)
agree = all(
    iso_closed_form(K, p, q).poly == recursive[(p, q)]
    for p in range(K + 1)
    for q in range(K + 1)
)
print("\nclosed form == recursive lowering:", agree)

img = iso_closed_form(K, 0, 0)
print("one lowering step on z2^2:", beta_lower(LEFT, img.poly))

# All images are harmonic: the flat Laplacian kills them.
harmonic = all(
    laplacian_r4(iso_closed_form(K, p, q).poly).is_zero()
    for p in range(K + 1)
    for q in range(K + 1)
)
print("all images harmonic:", harmonic)

# The transferred eigenbasis: 2(k+1)^2 sections, each an exact
# eigensection of both the Dirac and the Laplace operator.
print(f"\neigensections at k={K}:")
entries = transfer_eigenbasis(K)
print(f"  total: {len(entries)}")
sample = entries[0]
print(f"  sample ({sample.family}, q={sample.q}, p={sample.p}), "
      f"eigenvalue {sample.eigenvalue}:")
print(f"    f = {sample.section.f}")
print(f"    g = {sample.section.g}")

dirac_ok = all(
    (dirac_section(e.section) - e.section.scale(e.eigenvalue)).is_zero() for e in entries
)
lam = 1 - (K + 1) ** 2
laplace_ok = all(
    (laplace_section(e.section) - e.section.scale(lam)).is_zero() for e in entries
)
print(f"  D sigma = lambda sigma for every section: {dirac_ok}")
print(f"  Delta sigma = {lam} sigma for every section: {laplace_ok}")
