"""Exact linear algebra over the Gaussian integers.

A library matrix is a Gaussian-integer matrix ``(R, I)``, the matrix
``R + iI`` with ``R`` and ``I`` lists of lists of Python ints.  The
kernels are:

* :func:`mat_mul_int` forms integer row combinations, skipping the zero
  real and imaginary parts of the left factor and the all-zero rows of the
  right;
* :func:`shift_int` forms ``A + cI``;
* :func:`charpoly_int` and :func:`rank_int` on ``(R, I)``, and
  :func:`rank_sparse` on sparse rows ``{col: (re, im)}``, first split the
  matrix into the connected components of its nonzero pattern, found from
  the entries alone by one union-find (:func:`_components`).  For the
  characteristic polynomial, row i joins column i and the columns of its
  nonzeros, so each component is a principal block and det(xI - A) is the
  product of the blocks' polynomials.  For the rank, rows join through
  shared columns and the rank is the sum over the components: a one-row
  component counts 1, a two-row one 1 or 2 by an exact proportionality
  test, and only a larger one is eliminated densely;
* the component kernels are Faddeev-LeVerrier (:func:`_faddeev_leverrier`:
  the trace of each iterate is exactly divisible by the step number) and
  fraction-free echelon elimination over Z[i] (:func:`_echelon_rank`: a
  row is cleared by ``p*row - f*pivot_row`` and then divided by the gcd
  of its integer parts, so nothing is ever divided in Q(i)).

Ragged rows, an ``(R, I)`` pair of two shapes, and a non-square operand
of :func:`charpoly_int` or :func:`shift_int`, raise ``ValueError``
(:func:`_check_matrix`, one pass over the rows).  No result is rounded.
:func:`charpoly_from_roots` is the independent route that
:func:`charpoly_int` is checked against and shares no code with it: an
integer expansion of the product of its linear factors, divided by the
roots' denominators once and returned as :class:`GaussianRational`.  At
the edge, :func:`from_int` converts an integer matrix to
:class:`GaussianRational` entries; only the benchmark's micro mode reaches
it, through ``abstract_dirac.dbar_block_matrix`` and :func:`mat_mul`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable

from .exactnum import GAUSS_ONE, GAUSS_ZERO, GaussianRational, GaussInt, gauss, gauss_over

Matrix = list[list[GaussianRational]]
IntMatrix = list[list[int]]
#: The Gaussian-integer matrix R + iI as the pair (R, I).
GaussIntMatrix = tuple[IntMatrix, IntMatrix]


# zeros, identity, mat_add, mat_scale, trace and mat_mul (with _to_int)
# have no caller in the library: the benchmark's micro mode
# (``perfbench/child.py``) replays a Faddeev-LeVerrier loop with them.
# They go with that mode (ROADMAP item 1).


def zeros(rows: int, cols: int) -> Matrix:
    return [[GAUSS_ZERO for _ in range(cols)] for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = GAUSS_ONE
    return m


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, s: GaussianRational | Fraction | int) -> Matrix:
    return [[x * s if x else GAUSS_ZERO for x in row] for row in a]


def trace(a: Matrix) -> GaussianRational:
    t = GAUSS_ZERO
    for i in range(len(a)):
        t = t + a[i][i]
    return t


# -- conversion ---------------------------------------------------------------


def _check_matrix(a: GaussIntMatrix, square: bool = False) -> None:
    """``ValueError`` if a row of ``R`` or ``I`` has another length than the
    first row of ``R``, if ``R`` and ``I`` differ in their number of rows
    or, with ``square``, if A is not square."""
    re, im = a
    cols = len(re[0]) if re else 0
    if len(im) != len(re) or any(len(r) != cols or len(i) != cols for r, i in zip(re, im)):
        raise ValueError("not a matrix: the rows of (R, I) differ in length or number")
    if square and cols != len(re):
        raise ValueError(f"not square: {len(re)} rows of {cols} entries")


def _to_int(a: Matrix) -> tuple[int, GaussIntMatrix]:
    """``(d, (R, I))`` with ``a = (R + iI)/d`` and ``d`` the lcm of all
    denominators."""
    d = math.lcm(*{x.re.denominator for row in a for x in row},
                 *{x.im.denominator for row in a for x in row})
    return d, (
        [[x.re.numerator * (d // x.re.denominator) for x in row] for row in a],
        [[x.im.numerator * (d // x.im.denominator) for x in row] for row in a],
    )


def from_int(a: GaussIntMatrix, d: int = 1) -> Matrix:
    """The Gaussian-rational matrix ``(R + iI)/d``; ``ValueError`` if ``R``
    and ``I`` differ in shape or their rows are ragged."""
    _check_matrix(a)
    re, im = a
    return [[gauss_over(x, y, d) for x, y in zip(rr, ri)] for rr, ri in zip(re, im)]


# -- integer kernels ------------------------------------------------------------


def shift_int(a: GaussIntMatrix, c: int) -> GaussIntMatrix:
    """A + cI for a square Gaussian-integer matrix A and an integer c;
    ``ValueError`` unless A is square, with ``R`` and ``I`` of one shape."""
    _check_matrix(a, square=True)
    re = [row[:] for row in a[0]]
    for i, row in enumerate(re):
        row[i] += c
    return re, [row[:] for row in a[1]]


def _row_terms(a: GaussIntMatrix) -> list[list[tuple[int, int, int]]]:
    """The nonzero entries of each row of A as ``(column, re, im)``."""
    return [[(t, x, y) for t, (x, y) in enumerate(zip(row_r, row_i)) if x or y]
            for row_r, row_i in zip(*a)]


def _mul_terms(terms: list[list[tuple[int, int, int]]], b: GaussIntMatrix) -> GaussIntMatrix:
    """A B for A given by its :func:`_row_terms`, one output row at a time as
    a combination of the rows of B."""
    br, bi = b
    cols = len(br[0]) if br else 0
    br_live = [any(row) for row in br]
    bi_live = [any(row) for row in bi]
    out_r, out_i = [], []
    for row in terms:
        acc_r = [0] * cols
        acc_i = [0] * cols
        for t, x, y in row:
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


def mat_mul_int(a: GaussIntMatrix, b: GaussIntMatrix) -> GaussIntMatrix:
    """``(ar + i ai)(br + i bi)`` over Z[i], one output row at a time as a
    combination of the rows of the right factor; ``ValueError`` unless every
    row of ``a`` has one entry per row of ``b`` and each operand's ``R`` and
    ``I`` have one shape."""
    for row in a[0]:
        if len(row) != len(b[0]):
            raise ValueError(f"cannot multiply: a row of {len(row)} against {len(b[0])} rows")
    _check_matrix(a)
    _check_matrix(b)
    return _mul_terms(_row_terms(a), b)


def _components(supports: list) -> list[list[int]]:
    """The indices of ``supports`` grouped into connected components, two
    supports meeting when they share an element, by a union-find over the
    elements.  Each group ascends, the groups come in order of their first
    index, and an empty support is in none."""
    parent: dict[Hashable, Hashable] = {}

    def find(c: Hashable) -> Hashable:
        parent.setdefault(c, c)
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for support in supports:
        if support:
            first, *rest = support
            root = find(first)
            for c in rest:
                other = find(c)
                if other != root:
                    parent[other] = root
    groups: dict[Hashable, list[int]] = {}
    for index, support in enumerate(supports):
        if support:
            groups.setdefault(find(next(iter(support))), []).append(index)
    return list(groups.values())


def _echelon_rank(a: GaussIntMatrix) -> int:
    """Rank by fraction-free echelon elimination over the Gaussian integers.

    Each step takes the first row that is nonzero in the current column as
    pivot ``p``; every other row with entry ``f`` there becomes
    ``p*row - f*pivot`` and is divided by the gcd of its integer parts.
    Rows are kept from the current column on, so they shrink as the
    elimination moves right.
    """
    re, im = a
    rows = [(r, i) for r, i in zip(re, im) if any(r) or any(i)]
    found = 0
    for _ in range(len(re[0])):
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


def _proportional(r1: dict[Hashable, GaussInt], r2: dict[Hashable, GaussInt]) -> bool:
    """Whether two nonzero sparse rows span one line over Q(i): they have
    the same columns and, for the first column c0,
    ``r1[c0]*r2[c] == r2[c0]*r1[c]`` in every column c."""
    if r1.keys() != r2.keys():
        return False
    c0 = next(iter(r1))
    (a, b), (c, d) = r1[c0], r2[c0]
    for col, (x1, y1) in r1.items():
        x2, y2 = r2[col]
        # (a + ib)(x2 + iy2) against (c + id)(x1 + iy1)
        if a * x2 - b * y2 != c * x1 - d * y1 or a * y2 + b * x2 != c * y1 + d * x1:
            return False
    return True


def _rank_rows(rows: list[dict[Hashable, GaussInt]]) -> int:
    """Rank of sparse rows ``{col: (re, im)}`` with no zero entries: the sum
    over the :func:`_components` of their columns.  A one-row component
    counts 1, a two-row one 1 or 2 by :func:`_proportional`, and a larger
    one is laid out densely on its own columns for :func:`_echelon_rank`."""
    total = 0
    for group in _components(rows):
        block = [rows[r] for r in group]
        if len(block) <= 2:
            total += 1 if len(block) == 1 or _proportional(*block) else 2
            continue
        cols = {c: j for j, c in enumerate(dict.fromkeys(c for row in block for c in row))}
        re = [[0] * len(cols) for _ in block]
        im = [[0] * len(cols) for _ in block]
        for r, row in enumerate(block):
            for c, (x, y) in row.items():
                re[r][cols[c]] = x
                im[r][cols[c]] = y
        total += _echelon_rank((re, im))
    return total


def rank_int(a: GaussIntMatrix) -> int:
    """Rank of a Gaussian-integer matrix, by :func:`_rank_rows` on its
    nonzero entries; ``ValueError`` if its rows are ragged or ``R`` and
    ``I`` differ in shape."""
    _check_matrix(a)
    return _rank_rows([{t: (x, y) for t, x, y in row} for row in _row_terms(a)])


def rank_sparse(rows: list[dict[Hashable, GaussInt]]) -> int:
    """Rank of sparse Gaussian-integer rows ``{col: (re, im)}``, by
    :func:`_rank_rows` once explicit ``(0, 0)`` entries are dropped, so
    that they join nothing."""
    return _rank_rows([{c: v for c, v in row.items() if v != (0, 0)} for row in rows])


def _faddeev_leverrier(a: GaussIntMatrix) -> list[GaussInt]:
    """det(xI - A) of a square Gaussian-integer matrix by the
    Faddeev-LeVerrier recursion, coefficients by descending power.

    With ``M_1 = A`` and ``M_(j+1) = A (M_j + b_j I)``, the coefficient
    ``b_j = -tr(M_j)/j`` is a Gaussian integer, so the division is exact; a
    remainder raises ``ArithmeticError``.
    """
    ar, ai = a
    n = len(ar)
    terms = _row_terms(a)
    coeffs = [(1, 0)]
    mr = [row[:] for row in ar]
    mi = [row[:] for row in ai]
    for j in range(1, n + 1):
        cr, rem_r = divmod(-sum(mr[i][i] for i in range(n)), j)
        ci, rem_i = divmod(-sum(mi[i][i] for i in range(n)), j)
        if rem_r or rem_i:
            raise ArithmeticError(f"Faddeev-LeVerrier trace not divisible by {j}")
        coeffs.append((cr, ci))
        if j < n:
            for i in range(n):
                mr[i][i] += cr
                mi[i][i] += ci
            mr, mi = _mul_terms(terms, (mr, mi))
    return coeffs


def _poly_mul_int(p: list[GaussInt], q: list[GaussInt]) -> list[GaussInt]:
    """The product of two polynomials over Z[i], coefficients by descending
    power."""
    re = [0] * (len(p) + len(q) - 1)
    im = [0] * len(re)
    for i, (a, b) in enumerate(p):
        for j, (c, d) in enumerate(q):
            re[i + j] += a * c - b * d
            im[i + j] += a * d + b * c
    return list(zip(re, im))


def charpoly_int(a: GaussIntMatrix) -> list[GaussInt]:
    """Monic characteristic polynomial det(xI - A) of a square Gaussian-integer
    matrix, coefficients by descending power (length n+1); ``ValueError``
    unless A is square.

    Row i touches the columns {i} and those of its nonzeros, so each of the
    :func:`_components` of these supports is a principal index set: A is
    block-diagonal after a permutation, and det(xI - A) is the product of
    :func:`_faddeev_leverrier` over the blocks.
    """
    _check_matrix(a, square=True)
    ar, ai = a
    char = [(1, 0)]
    for group in _components([[i, *(t for t, _, _ in row)] for i, row in enumerate(_row_terms(a))]):
        block = ([[ar[i][j] for j in group] for i in group],
                 [[ai[i][j] for j in group] for i in group])
        char = _poly_mul_int(char, _faddeev_leverrier(block))
    return char


# -- the Gaussian-rational edge ---------------------------------------------------


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product of two Gaussian-rational matrices: :func:`mat_mul_int` of
    their numerators over the product of their common denominators."""
    da, ai = _to_int(a)
    db, bi = _to_int(b)
    return from_int(mat_mul_int(ai, bi), da * db)


def charpoly_from_roots(roots: list[tuple[Fraction, int]]) -> list[GaussianRational]:
    """Expand prod (x - r)^mult, coefficients by descending power.

    With r = u/d in lowest terms, this is prod (d x - u)^mult divided by
    prod d^mult.  The integer product is expanded one linear factor at a
    time, ``new[i] = d p[i] - u p[i-1]``, and divided once at the end."""
    p = [1]
    scale = 1
    for r, mult in roots:
        u, d = r.numerator, r.denominator
        scale *= d**mult
        for _ in range(mult):
            p.append(0)
            for i in range(len(p) - 1, 0, -1):
                p[i] = d * p[i] - u * p[i - 1]
            p[0] *= d
    return [gauss(Fraction(c, scale)) for c in p]
