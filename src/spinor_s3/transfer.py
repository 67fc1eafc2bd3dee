"""Transfer from the abstract ket basis to concrete harmonic polynomials.

The intertwining map sends |0>|0> to (a multiple of) z2^k and is pushed
along the two complexified lowering operators

    left:   -1/2 * d(. along x e2)  +  i/2 * d(. along x e3)
    right:  -1/2 * d(. along -e2 x) +  i/2 * d(. along -e3 x)

whose action on the degree-one generators forms the diamond

        z2
       /  \\            left arrows:   z2 -> -z1,  conj z1 -> conj z2
    -z1    conj z1      right arrows:  z2 -> conj z1,  -z1 -> conj z2
       \\  /
      conj z2           (all other arrows give 0)

Two independent constructions of the images of |p>|q> are provided, each
as a table of all (k+1)^2: the closed multinomial formula
(:func:`transfer_table`, one :func:`iso_closed_form` per image) and the
recursive lowering (:func:`recursive_table`); ``verify`` and the test
suite require them to agree exactly.  Their exact Gram matrix is diagonal.
:func:`beta_lower` and :func:`recursive_table` lower through
``geometry._lower``.  :func:`transfer_eigenbasis` builds every slice of
both families with :func:`transfer_slice` afresh on each call and returns
a tuple that nothing keeps after its caller drops it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .abstract_dirac import EigenFamily, eigenbasis_abstract
from .exactnum import GaussianRational, Record, add_parts, reduce_parts, scale_parts
from .geometry import LEFT, RIGHT, _lower, l2_inner_product
from .polyring import G2, Polynomial, SpinorSection, Z_VIEW


class TransferImage(Record):
    """Image of |p>|q>: the polynomial ``poly`` without the global scale
    factor.

    The omitted scalar is sqrt((k+1) / 2pi^2); it is irrational, so it is
    carried as the exact ratio ``norm_factor_squared`` = k+1 (a Fraction)
    against the 2pi^2 volume unit instead of numerically.
    """

    __slots__ = _fields = ("k", "p", "q", "poly", "norm_factor_squared")


def beta_lower(side: str, poly: Polynomial) -> Polynomial:
    """Apply the complexified lowering operator to a polynomial.

    Implemented through the actual flow derivatives (not the diamond
    shortcut): one pass over the z view of ``poly`` with ``geometry``'s
    table of -1/2 * d(. along pair(2)) + i/2 * d(. along pair(3)), which is
    combined from the fields' weights; the diamond above is what the tests
    check it against.
    """
    if side not in (LEFT, RIGHT):
        raise ValueError(f"unknown side {side!r}")
    return _lower(side, poly.in_view(Z_VIEW), 1)


def _check_indices(k: int, p: int, q: int) -> None:
    if k < 0:
        raise ValueError("degree k must be >= 0")
    if not 0 <= p <= k or not 0 <= q <= k:
        raise IndexError(f"(p, q) = ({p}, {q}) outside 0..{k}")


def iso_closed_form(k: int, p: int, q: int) -> TransferImage:
    """Closed multinomial formula for the image of |p>|q>.

    The sum runs over the i with all four exponents nonnegative, i.e.
    max(0, p-q) <= i <= min(p, k-q); each term's exponents (a, b, i, d)
    add up to k, and its multinomial k!/(a! b! i! d!) is read as the
    product of binomials C(k, a) C(k - a, b) C(i + d, i).
    """
    _check_indices(k, p, q)
    num = {}
    for i in range(max(0, p - q), min(p, k - q) + 1):
        a, b, d = k - q - i, p - i, q - p + i
        num[(a, b, i, d)] = (math.comb(k, a) * math.comb(k - a, b) * math.comb(i + d, i), 0)
    total = Polynomial._of(*reduce_parts(num, math.comb(k, p) * math.comb(k, q)), Z_VIEW)
    return TransferImage(k, p, q, total, Fraction(k + 1))


def recursive_table(k: int) -> dict[tuple[int, int], Polynomial]:
    """All (k+1)^2 images by lowering, keyed by (p, q): the independent
    counterpart of :func:`transfer_table`.

    The image of |p>|q> is z2^k lowered left p times, then right q times,
    rung j of each ladder dividing out the exact ladder factor k - j (in
    the same reduction as the lowering); it must reproduce
    :func:`iso_closed_form` term for term.  The ladders share their
    prefixes, one left ladder from z2^k and a right ladder from each of its
    rungs, so the whole table takes (k+1)^2 - 1 lowerings instead of
    k(k+1)^2.
    """
    _check_indices(k, 0, 0)
    table = {}
    left = G2**k
    for p in range(k + 1):
        poly = table[(p, 0)] = left
        for j in range(k):
            poly = table[(p, j + 1)] = _lower(RIGHT, poly, k - j)
        if p < k:
            left = _lower(LEFT, left, k - p)
    return table


def transfer_table(k: int) -> dict[tuple[int, int], Polynomial]:
    """All (k+1)^2 closed-form images, keyed by (p, q)."""
    _check_indices(k, 0, 0)
    return {
        (p, q): iso_closed_form(k, p, q).poly
        for p in range(k + 1)
        for q in range(k + 1)
    }


def gram_matrix(k: int) -> list[list[GaussianRational]]:
    """Exact Gram matrix of the (k+1)^2 closed-form images in 2pi^2 units,
    rows and columns ordered by (p, q); diagonal by weight orthogonality."""
    _check_indices(k, 0, 0)
    images = list(transfer_table(k).values())
    return [[l2_inner_product(a, b) for b in images] for a in images]


class TransferredEigenvector(Record):
    """One Dirac eigensection with its provenance in the abstract basis:
    its eigenvalue (a Fraction), its family ("plus" or "minus") and its
    slice q and label p.  It can be referred to weakly."""

    _fields = ("section", "eigenvalue", "family", "q", "p")
    __slots__ = (*_fields, "__weakref__")


def transfer_slice(family: EigenFamily, q: int,
                   table: dict[tuple[int, int], Polynomial]) -> tuple[TransferredEigenvector, ...]:
    """The sections of ``family`` on slice q, in p order: each vector of
    the family on H x H_k paired with the ket |q> of the spectator H_k.

    ``table`` need only hold slice q's images, keyed by (p, q), not the
    whole :func:`transfer_table`.  Each ket e_r (x) |p> of a vector becomes
    the image of |p>|q> keyed by ``(r, exp)``; the section is the sum of
    those images scaled by the vector's coefficients, on the integer parts.
    """
    _check_indices(family.k, 0, q)
    out = []
    for vector, p in zip(family.vectors, family.ps):
        num, den = {}, 1
        for (r, pp), (re, im) in vector._num.items():
            image = table[(pp, q)]
            keyed = {(r, exp): c for exp, c in image._num.items()}
            num, den = add_parts(num, den, *scale_parts(keyed, image._den, re, im, vector._den))
        section = SpinorSection._of(num, den, Z_VIEW)
        out.append(TransferredEigenvector(section, family.dirac_eigenvalue, family.label, q, p))
    return tuple(out)


def transfer_eigenbasis(k: int) -> tuple[TransferredEigenvector, ...]:
    """Translate the abstract eigenvector families into polynomial
    sections; 2(k+1)^2 sections in deterministic (family, q, p) order,
    each family's slices built by :func:`transfer_slice` from one
    :func:`transfer_table` and one :func:`eigenbasis_abstract`."""
    _check_indices(k, 0, 0)
    table = transfer_table(k)
    return tuple(entry for family in eigenbasis_abstract(k) for q in range(k + 1)
                 for entry in transfer_slice(family, q, table))
