"""Exact linear algebra over the Gaussian integers.

A library matrix is a list of rows, each the canonical sparse row
``{col: (re, im)}`` of its nonzero Gaussian-integer entries, with no
``(0, 0)`` entry: a row is exactly the ``_num`` of a denominator-1
``exactnum.GaussParts`` vector, and ``==`` on two matrices is structural.
The rows give the row count; a column count is only known from a square
shape or from the caller.  The kernels are:

* :func:`mat_mul_int` combines the rows of the right factor, one output
  row at a time, touching only nonzero entries;
* :func:`shift_int` forms ``A + cI``;
* :func:`charpoly_int` and :func:`rank_sparse` first split the matrix
  into the connected components of its nonzero pattern, found from the
  entries alone by one union-find (:func:`_components`).  For the
  characteristic polynomial, row i joins column i and the columns of its
  nonzeros, so each component is a principal block and det(xI - A) is the
  product of the blocks' polynomials.  For the rank, rows join through
  shared columns and the rank is the sum over the components, each
  eliminated on its own;
* the component kernels are Faddeev-LeVerrier (:func:`_faddeev_leverrier`:
  the trace of each iterate is exactly divisible by the step number) and
  fraction-free echelon elimination over Z[i] (:func:`_echelon_rank`: a
  row is cleared by ``p*row - f*pivot_row`` and then divided by the gcd
  of its integer parts, so nothing is ever divided in Q(i)).

A column index outside the matrix raises ``ValueError``
(:func:`_check_columns`): outside ``range(len(b))`` for the left factor of
:func:`mat_mul_int`, outside ``range(len(a))`` for :func:`charpoly_int`
and :func:`shift_int`, and outside ``range(cols)`` for :func:`from_int`;
a shift that is not an int raises it too.
:func:`rank_sparse` takes any hashable columns.
No result is rounded.  :func:`charpoly_from_roots` is the independent
route that :func:`charpoly_int` is checked against and shares no code
with it: an integer expansion of the product of its linear factors,
returned as Gaussian integers over the one denominator prod d^mult, so
that ``verify`` compares it with ``(charpoly_int(a), 1)`` by ``==``; a root
that is neither an int nor a Fraction, or a multiplicity that is not an
int >= 0, raises ``ValueError``.
``GaussianRational`` appears only at the edge: :func:`from_int` converts
rows to a dense :class:`GaussianRational` matrix of a given column count;
only the benchmark's micro mode reaches it, through
``abstract_dirac.dbar_block_matrix`` and :func:`mat_mul`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Hashable

from .exactnum import GAUSS_ONE, GAUSS_ZERO, GaussianRational, GaussInt, gauss_over, parts_over

Matrix = list[list[GaussianRational]]
#: A Gaussian-integer matrix: one canonical sparse row ``{col: (re, im)}``
#: per row.
Rows = list[dict[int, GaussInt]]


# zeros, identity, mat_add, mat_scale, trace and mat_mul (with _to_int)
# have no caller in the library: the benchmark's micro mode
# (``perfbench/child.py``) replays a Faddeev-LeVerrier loop with them.
# They go with that mode (ROADMAP item 1b).


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


def _check_columns(a: Rows, n: int, what: str) -> None:
    """``ValueError`` starting with ``what`` unless every column of ``a``
    is in ``range(n)``."""
    for row in a:
        for c in row:
            if not 0 <= c < n:
                raise ValueError(f"{what}: column {c} outside 0..{n - 1}")


def _to_int(a: Matrix) -> tuple[int, Rows]:
    """``(d, rows)`` with ``a = rows/d`` and ``d`` the lcm of all
    denominators."""
    d = math.lcm(*{x.re.denominator for row in a for x in row},
                 *{x.im.denominator for row in a for x in row})
    return d, [{j: parts_over(x, d) for j, x in enumerate(row) if x} for row in a]


def from_int(a: Rows, cols: int, d: int = 1) -> Matrix:
    """The dense Gaussian-rational matrix ``a/d`` with ``cols`` columns;
    ``ValueError`` for a column of ``a`` outside ``range(cols)``."""
    _check_columns(a, cols, "not a matrix")
    return [[gauss_over(*row.get(j, (0, 0)), d) for j in range(cols)] for row in a]


# -- integer kernels ------------------------------------------------------------


def _shift(a: Rows, cr: int, ci: int) -> Rows:
    """A + (cr + i ci) I for the rows of a square A, canonical."""
    out = []
    for i, row in enumerate(a):
        x, y = row.get(i, (0, 0))
        row = dict(row)
        if x + cr or y + ci:
            row[i] = (x + cr, y + ci)
        else:
            row.pop(i, None)
        out.append(row)
    return out


def shift_int(a: Rows, c: int) -> Rows:
    """A + cI for a square Gaussian-integer matrix A and an integer c;
    ``ValueError`` for a c that is not an int or a column outside
    ``range(len(a))``."""
    if not isinstance(c, int):
        raise ValueError(f"shift must be an int, got {c!r}")
    _check_columns(a, len(a), "not square")
    return _shift(a, c, 0)


def mat_mul_int(a: Rows, b: Rows) -> Rows:
    """A B over Z[i], each output row the combination of the rows of B
    that the row of A names; ``ValueError`` for a column of A outside
    ``range(len(b))``."""
    _check_columns(a, len(b), "cannot multiply")
    out = []
    for row in a:
        acc: dict[int, GaussInt] = {}
        for t, (x, y) in row.items():
            for c, (u, v) in b[t].items():
                s = acc.get(c)
                if s is None:
                    acc[c] = (x * u - y * v, x * v + y * u)
                else:
                    acc[c] = (s[0] + x * u - y * v, s[1] + x * v + y * u)
        out.append({c: s for c, s in acc.items() if s[0] or s[1]})
    return out


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


def _echelon_rank(rows: list[dict[Hashable, GaussInt]]) -> int:
    """Rank of nonzero sparse rows by fraction-free elimination over the
    Gaussian integers.

    Each step takes the last row as pivot, at its first column c with entry
    ``p``; every other row with entry ``f`` at c becomes ``p*row - f*pivot``,
    which is zero at c, and is divided by the gcd of its integer parts, or
    dropped when it vanishes.  The list ``rows`` is consumed.
    """
    found = 0
    while rows:
        pivot = rows.pop()
        c, (pr, pi) = next(iter(pivot.items()))
        found += 1
        rest = []
        for row in rows:
            if c in row:
                (fr, fi), new = row[c], {}
                for col in row.keys() | pivot.keys():
                    (u, v), (s, t) = row.get(col, (0, 0)), pivot.get(col, (0, 0))
                    # (pr + i pi)(u + i v) - (fr + i fi)(s + i t)
                    x, y = pr * u - pi * v - fr * s + fi * t, pr * v + pi * u - fr * t - fi * s
                    if x or y:
                        new[col] = (x, y)
                if not new:
                    continue
                g = math.gcd(*chain.from_iterable(new.values()))
                row = {col: (x // g, y // g) for col, (x, y) in new.items()}
            rest.append(row)
        rows = rest
    return found


def rank_sparse(rows: list[dict[Hashable, GaussInt]]) -> int:
    """Rank of sparse Gaussian-integer rows ``{col: (re, im)}`` over any
    hashable columns: the sum of :func:`_echelon_rank` over the
    :func:`_components` of their columns, once explicit ``(0, 0)`` entries
    are dropped so that they join nothing."""
    rows = [{c: v for c, v in row.items() if v != (0, 0)} if (0, 0) in row.values() else row
            for row in rows]
    return sum(_echelon_rank([rows[r] for r in group]) for group in _components(rows))


def _faddeev_leverrier(a: Rows) -> list[GaussInt]:
    """det(xI - A) of a square Gaussian-integer matrix by the
    Faddeev-LeVerrier recursion, coefficients by descending power.

    With ``M_1 = A`` and ``M_(j+1) = A (M_j + b_j I)``, the coefficient
    ``b_j = -tr(M_j)/j`` is a Gaussian integer, so the division is exact; a
    remainder raises ``ArithmeticError``.
    """
    n = len(a)
    coeffs = [(1, 0)]
    m = a
    for j in range(1, n + 1):
        diagonal = [row.get(i, (0, 0)) for i, row in enumerate(m)]
        cr, rem_r = divmod(-sum(x for x, _ in diagonal), j)
        ci, rem_i = divmod(-sum(y for _, y in diagonal), j)
        if rem_r or rem_i:
            raise ArithmeticError(f"Faddeev-LeVerrier trace not divisible by {j}")
        coeffs.append((cr, ci))
        if j < n:
            m = mat_mul_int(a, _shift(m, cr, ci))
    return coeffs


def _poly_mul_int(p: list[GaussInt], q: list[GaussInt]) -> list[GaussInt]:
    """The product of two polynomials over Z[i], coefficients by descending
    power."""
    out = [(0, 0)] * (len(p) + len(q) - 1)
    for j, (c, d) in enumerate(q):
        if c or d:
            out[j:j + len(p)] = [(x + a * c - b * d, y + a * d + b * c)
                                 for (x, y), (a, b) in zip(out[j:j + len(p)], p)]
    return out


def charpoly_int(a: Rows) -> list[GaussInt]:
    """Monic characteristic polynomial det(xI - A) of a square Gaussian-integer
    matrix, coefficients by descending power (length n+1); ``ValueError``
    for a column outside ``range(len(a))``.

    Row i touches the columns {i} and those of its nonzeros, so each of the
    :func:`_components` of these supports is a principal index set: A is
    block-diagonal after a permutation, and det(xI - A) is the product of
    :func:`_faddeev_leverrier` over the blocks.
    """
    _check_columns(a, len(a), "not square")
    char = [(1, 0)]
    for group in _components([[i, *row] for i, row in enumerate(a)]):
        index = {c: j for j, c in enumerate(group)}
        block = [{index[c]: x for c, x in a[i].items()} for i in group]
        char = _poly_mul_int(char, _faddeev_leverrier(block))
    return char


# -- the Gaussian-rational edge ---------------------------------------------------


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product of two Gaussian-rational matrices: :func:`mat_mul_int` of
    their numerators over the product of their common denominators;
    ``ValueError`` unless every row of ``a`` has one entry per row of
    ``b``."""
    for row in a:
        if len(row) != len(b):
            raise ValueError(f"cannot multiply: a row of {len(row)} against {len(b)} rows")
    da, ai = _to_int(a)
    db, bi = _to_int(b)
    return from_int(mat_mul_int(ai, bi), len(b[0]) if b else 0, da * db)


def charpoly_from_roots(roots: list[tuple[Fraction | int, int]]) -> tuple[list[GaussInt], int]:
    """Expand prod (x - r)^mult as ``(coeffs, den)``: Gaussian-integer
    coefficients by descending power over one positive denominator.

    With r = u/d in lowest terms (a Fraction or an int), this is
    prod (d x - u)^mult over its leading coefficient prod d^mult.  The
    integer product is expanded one linear factor at a time,
    ``new[i] = d p[i] - u p[i-1]``.  Each factor is primitive, so the
    product is too (Gauss's lemma) and the pair is in lowest terms: it
    equals ``(charpoly_int(a), 1)`` exactly when the polynomials agree.  A
    root that is neither an int nor a Fraction, or a multiplicity that is
    not an int >= 0, raises ``ValueError``."""
    p = [1]
    for r, mult in roots:
        if not isinstance(r, (int, Fraction)):
            raise ValueError(f"root must be an int or a Fraction, got {r!r}")
        if not isinstance(mult, int) or mult < 0:
            raise ValueError(f"multiplicity must be an int >= 0, got {mult!r}")
        u, d = r.numerator, r.denominator
        for _ in range(mult):
            p.append(0)
            for i in range(len(p) - 1, 0, -1):
                p[i] = d * p[i] - u * p[i - 1]
            p[0] *= d
    return [(c, 0) for c in p], p[0]
