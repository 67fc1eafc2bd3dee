"""Exact dense linear algebra over the Gaussian rationals.

Matrices are plain lists of lists of :class:`GaussianRational` in and
out.  The three kernels that do real work (:func:`mat_mul`, :func:`rank`
and :func:`charpoly`) convert a matrix once to a triple ``(d, R, I)``
with ``A = (R + iI)/d``, where ``R`` and ``I`` are integer matrices and
``d`` is the lcm of all denominators, compute on Python ints, and convert
back only when they return:

* ``mat_mul`` forms integer row combinations, skipping the zero real and
  imaginary parts of the left factor and the all-zero rows of the right;
* ``rank`` is fraction-free echelon elimination over Z[i]: a row is
  cleared by ``p*row - f*pivot_row`` and then divided by the gcd of its
  integer parts, so nothing is ever divided in Q(i);
* ``charpoly`` runs Faddeev-LeVerrier on the Gaussian-integer matrix
  ``dA``; the trace of each iterate is exactly divisible by the step
  number, and coefficient ``j`` is scaled back by ``d^-j``.

No result is rounded.  :func:`charpoly_from_roots` and :func:`poly_mul`
stay on :class:`GaussianRational` on purpose: they are the independent
route that ``charpoly`` is checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import GAUSS_ONE, GAUSS_ZERO, GaussianRational, gauss

Matrix = list[list[GaussianRational]]
IntMatrix = list[list[int]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[GAUSS_ZERO for _ in range(cols)] for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = GAUSS_ONE
    return m


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, s: GaussianRational | Fraction | int) -> Matrix:
    return [[x * s if x else GAUSS_ZERO for x in row] for row in a]


# -- the Gaussian-integer form ------------------------------------------------


def _to_int(a: Matrix) -> tuple[int, IntMatrix, IntMatrix]:
    """``(d, R, I)`` with ``a = (R + iI)/d`` and ``d`` the lcm of all
    denominators."""
    d = math.lcm(*{x.re.denominator for row in a for x in row},
                 *{x.im.denominator for row in a for x in row})
    return (
        d,
        [[x.re.numerator * (d // x.re.denominator) for x in row] for row in a],
        [[x.im.numerator * (d // x.im.denominator) for x in row] for row in a],
    )


def _gauss_over(re: int, im: int, d: int) -> GaussianRational:
    """The Gaussian rational ``(re + i im)/d``."""
    if not re and not im:
        return GAUSS_ZERO
    return GaussianRational(Fraction(re, d), Fraction(im, d))


def _from_int(d: int, re: IntMatrix, im: IntMatrix) -> Matrix:
    return [[_gauss_over(x, y, d) for x, y in zip(rr, ri)] for rr, ri in zip(re, im)]


def _int_mul(ar: IntMatrix, ai: IntMatrix, br: IntMatrix, bi: IntMatrix,
             cols: int) -> tuple[IntMatrix, IntMatrix]:
    """``(ar + i ai)(br + i bi)`` over Z[i], one output row at a time as a
    combination of the rows of the right factor."""
    br_live = [any(row) for row in br]
    bi_live = [any(row) for row in bi]
    out_r, out_i = [], []
    for row_r, row_i in zip(ar, ai):
        acc_r = [0] * cols
        acc_i = [0] * cols
        for t, (x, y) in enumerate(zip(row_r, row_i)):
            if x:
                if br_live[t]:
                    acc_r = [s + x * u for s, u in zip(acc_r, br[t])]
                if bi_live[t]:
                    acc_i = [s + x * v for s, v in zip(acc_i, bi[t])]
            if y:
                if bi_live[t]:
                    acc_r = [s - y * v for s, v in zip(acc_r, bi[t])]
                if br_live[t]:
                    acc_i = [s + y * u for s, u in zip(acc_i, br[t])]
        out_r.append(acc_r)
        out_i.append(acc_i)
    return out_r, out_i


# -- kernels --------------------------------------------------------------------


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return [[] for _ in a]
    assert len(a[0]) == len(b)
    da, ar, ai = _to_int(a)
    db, br, bi = _to_int(b)
    return _from_int(da * db, *_int_mul(ar, ai, br, bi, len(b[0])))


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return a == b


def is_zero_matrix(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def is_diagonal(a: Matrix) -> bool:
    return all(a[i][j].is_zero() for i in range(len(a)) for j in range(len(a[i])) if i != j)


def trace(a: Matrix) -> GaussianRational:
    t = GAUSS_ZERO
    for i in range(len(a)):
        t = t + a[i][i]
    return t


def rank(a: Matrix) -> int:
    """Rank by fraction-free echelon elimination over the Gaussian integers.

    The common denominator does not change the rank, so only the integer
    parts are kept.  Each step takes the first row that is nonzero in the
    current column as pivot ``p``; every other row with entry ``f`` there
    becomes ``p*row - f*pivot`` and is divided by the gcd of its integer
    parts.  Rows are kept from the current column on, so they shrink as the
    elimination moves right.
    """
    if not a or not a[0]:
        return 0
    _, re, im = _to_int(a)
    rows = [(r, i) for r, i in zip(re, im) if any(r) or any(i)]
    found = 0
    for _ in range(len(a[0])):
        if not rows:
            break
        piv = next((j for j, (r, i) in enumerate(rows) if r[0] or i[0]), None)
        if piv is None:
            rows = [(r[1:], i[1:]) for r, i in rows]
            continue
        found += 1
        yr, yi = rows.pop(piv)
        pr, pi = yr[0], yi[0]
        yr, yi = yr[1:], yi[1:]
        rest = []
        for xr, xi in rows:
            fr, fi = xr[0], xi[0]
            xr, xi = xr[1:], xi[1:]
            if fr or fi:
                # (pr + i pi)(xr + i xi) - (fr + i fi)(yr + i yi)
                nr = [pr * u - pi * v - fr * s + fi * t
                      for u, v, s, t in zip(xr, xi, yr, yi)]
                ni = [pr * v + pi * u - fr * t - fi * s
                      for u, v, s, t in zip(xr, xi, yr, yi)]
                g = math.gcd(*nr, *ni)
                if not g:
                    continue
                if g > 1:
                    nr = [x // g for x in nr]
                    ni = [x // g for x in ni]
                xr, xi = nr, ni
            rest.append((xr, xi))
        rows = rest
    return found


def nullity(a: Matrix) -> int:
    return (len(a[0]) if a else 0) - rank(a)


def charpoly(a: Matrix) -> list[GaussianRational]:
    """Monic characteristic polynomial det(xI - A), coefficients by descending
    power (length n+1), by the Faddeev-LeVerrier recursion on ``B = dA``.

    With ``M_1 = B`` and ``M_(j+1) = B (M_j + b_j I)``, the coefficient
    ``b_j = -tr(M_j)/j`` of det(xI - B) is a Gaussian integer, so the
    division is exact; the coefficient of A is ``b_j / d^j``.
    """
    n = len(a)
    coeffs = [GAUSS_ONE]
    d, br, bi = _to_int(a)
    mr = [row[:] for row in br]
    mi = [row[:] for row in bi]
    scale = 1
    for j in range(1, n + 1):
        cr, rem_r = divmod(-sum(mr[i][i] for i in range(n)), j)
        ci, rem_i = divmod(-sum(mi[i][i] for i in range(n)), j)
        if rem_r or rem_i:
            raise ArithmeticError(f"Faddeev-LeVerrier trace not divisible by {j}")
        scale *= d
        coeffs.append(_gauss_over(cr, ci, scale))
        if j < n:
            for i in range(n):
                mr[i][i] += cr
                mi[i][i] += ci
            mr, mi = _int_mul(br, bi, mr, mi, n)
    return coeffs


def poly_mul(p: list[GaussianRational], q: list[GaussianRational]) -> list[GaussianRational]:
    out = [GAUSS_ZERO] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] = out[i + j] + x * y
    return out


def charpoly_from_roots(roots: list[tuple[Fraction, int]]) -> list[GaussianRational]:
    """Expand prod (x - r)^mult, coefficients by descending power."""
    p = [GAUSS_ONE]
    for r, mult in roots:
        factor = [GAUSS_ONE, gauss(-r)]
        for _ in range(mult):
            p = poly_mul(p, factor)
    return p
