"""The shifted Dirac operator on the abstract representation side.

On degree k the spinors are H x H_k x H_k, and the shifted operator Dbar
acts only on the slice H x H_k; the second H_k is a spectator that only
the transfer to polynomials reads (``transfer.transfer_slice``).
Elements of the slice live on the complex basis e_r (x) |p>, r in {0, 2}.
Dbar acts there by

    Dbar(e0 (x) |p>) = (2p - k) e0 (x) |p>   - 2p      e2 (x) |p-1>
    Dbar(e2 (x) |p>) = -(2p - k) e2 (x) |p>  - 2(k-p)  e0 (x) |p+1>

(the |p+1> target in the second line is forced by the invariant spans
{e0 (x) |p>, e2 (x) |p-1>}; see VERIFICATION.md).  The Dirac operator
itself is Dbar - 3/2, with eigenvalues k + 1/2 and -k - 3/2.  All linear
algebra happens on the 2(k+1)-dimensional slice, and
:func:`eigenbasis_abstract` builds and checks each family there once.

Storage: a :class:`SpinorVector` is an ``exactnum.GaussParts`` in the
space (k,): its nonzero coefficients are Gaussian integers
``{(r, p): (re, im)}`` over one positive denominator, in canonical form,
so equality stays structural.  :func:`dbar_apply`, the vector arithmetic,
the eigenvector families and their self-check compute on those ints.  The
block :func:`dbar_block_int` is a Gaussian-integer matrix in ``linalg``'s
format, one sparse row ``{col: (re, im)}`` per basis vector;
:func:`dbar_apply_first_principles` builds the same matrix from the
definition, on ``repspace.l_matrix_int``'s integer rows.
:func:`quadratic_check` takes a block and builds none: it reads k off the
2(k+1) rows and multiplies with ``linalg.mat_mul_int``.  ``verify`` builds
the block once per degree and hands it to the quadratic relation, the
characteristic polynomial, both nullities and the first-principles ``==``.
``GaussianRational`` appears only at the edge: the constructor, ``coeffs``
and :func:`dbar_block_matrix`.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .exactnum import (
    BASIS,
    GaussianRational,
    GaussInt,
    GaussParts,
    Record,
    complex_split,
    parts_over,
    quat_multiply,
    rational_to_str,
    reduce_parts,
)
from .repspace import l_matrix_int

Key = tuple[int, int]  # (r, p) with r in {0, 2}


def _index(r: int, p: int, n: int) -> int:
    """Position of e_r (x) |p> in the block basis e0 (x) |0..k>, then
    e2 (x) |0..k>, where n = k + 1."""
    return p if r == 0 else n + p


class SpinorVector(GaussParts):
    """A vector in the slice H x H_k, as sparse (r, p) coefficients
    (storage: see the module docstring)."""

    __slots__ = ()

    def __init__(self, k: int, coeffs):
        if k < 0:
            raise ValueError("degree k must be >= 0")
        coeffs = tuple(coeffs)
        for (r, p), _ in coeffs:
            if r not in (0, 2):
                raise ValueError(f"slot index r={r} must be 0 or 2")
            if not 0 <= p <= k:
                raise ValueError(f"ket index p={p} outside 0..{k}")
        super().__init__(coeffs, k)

    @property
    def k(self) -> int:
        return self._space[0]

    @staticmethod
    def basis(k: int, r: int, p: int) -> "SpinorVector":
        return SpinorVector(k, (((r, p), 1),))

    @property
    def coeffs(self) -> tuple[tuple[Key, GaussianRational], ...]:
        """The nonzero coefficients as Gaussian rationals, sorted by key (a
        new tuple)."""
        return tuple(sorted(self.terms.items()))

    def __repr__(self) -> str:
        return f"SpinorVector(k={self.k}, coeffs={self.coeffs!r})"


def dbar_apply(v: SpinorVector) -> SpinorVector:
    """Apply Dbar using the closed two-term formulas."""
    k = v.k
    out: dict[Key, GaussInt] = {}
    for (r, p), (re, im) in v._num.items():
        # (target key, integer factor) pairs; |-1> and |k+1> are zero
        if r == 0:
            terms = [((0, p), 2 * p - k)]
            if p:
                terms.append(((2, p - 1), -2 * p))
        else:
            terms = [((2, p), k - 2 * p)]
            if p < k:
                terms.append(((0, p + 1), -2 * (k - p)))
        for key, f in terms:
            c = out.get(key)
            out[key] = (re * f, im * f) if c is None else (c[0] + re * f, c[1] + im * f)
    return SpinorVector._of(*reduce_parts(out, v._den), k)


#: complex_split(e_r * e_i) for r in {0, 2} and i = 1..3, as Gaussian
#: integers, from actual quaternion products.  ``geometry._dirac_weights``
#: reads the same unit products through the same ``quat_multiply`` and
#: ``complex_split``, so this route shares those two exact functions with
#: the polynomial Dirac operator; the table itself is built here, and
#: :func:`dbar_block_int`, the route it is checked against, reads none of them.
_RIGHT_MUL = {
    (r, i): tuple(parts_over(c, 1) for c in complex_split(quat_multiply(BASIS[r], BASIS[i])))
    for r in (0, 2)
    for i in (1, 2, 3)
}


def dbar_apply_first_principles(k: int) -> linalg.Rows:
    """The matrix of Dbar on the slice H x H_k from its definition
    -sum_i (l_i sigma) * e_i, as Gaussian-integer rows in the basis of
    :func:`dbar_block_int`, built in one pass over the entries.

    The entry at row (s, t), column (r, p) is -sum_i l_i[t][p] (e_r e_i)_s:
    ``repspace.l_matrix_int`` gives the action on the ket factor and
    ``_RIGHT_MUL`` the right multiplication on the e_r factor, re-split
    into (e0, e2).  Slot s starts at row (s // 2)(k + 1), an expression of
    its own, so the two routes share no layout.
    """
    n = k + 1
    rows: linalg.Rows = [{} for _ in range(2 * n)]
    for i in (1, 2, 3):
        for t, l_row in enumerate(l_matrix_int(i, k)):
            for p, (x, y) in l_row.items():
                for r in (0, 2):
                    for s, (ar, ai) in zip((0, 2), _RIGHT_MUL[(r, i)]):
                        row, col = rows[s // 2 * n + t], r // 2 * n + p
                        # -(x + i y)(ar + i ai)
                        re, im = row.get(col, (0, 0))
                        row[col] = (re + y * ai - x * ar, im - x * ai - y * ar)
    return [{c: v for c, v in row.items() if v != (0, 0)} for row in rows]


def dbar_block_int(k: int) -> linalg.Rows:
    """The Gaussian-integer matrix of Dbar on the slice H x H_k as rows,
    basis e0 (x) |0..k> then e2 (x) |0..k>."""
    if k < 0:
        raise ValueError("degree k must be >= 0")
    n = k + 1
    rows: linalg.Rows = [{} for _ in range(2 * n)]
    for r in (0, 2):
        for p in range(n):
            # a basis vector is canonical as it stands, and the closed
            # formulas have integer factors, so its image has denominator 1
            for (s, t), c in dbar_apply(SpinorVector._of({(r, p): (1, 0)}, 1, k))._num.items():
                rows[_index(s, t, n)][_index(r, p, n)] = c
    return rows


def dbar_block_matrix(k: int) -> linalg.Matrix:
    """:func:`dbar_block_int` as dense Gaussian rationals.  Only the
    benchmark's micro mode (``perfbench/child.py``) calls it; it goes with
    that mode (ROADMAP item 1b)."""
    return linalg.from_int(dbar_block_int(k), 2 * (k + 1))


def quadratic_check(block: linalg.Rows) -> bool:
    """True iff (Dbar + k)(Dbar - (k+2)) vanishes on Dbar's 2(k+1) rows
    ``block`` (:func:`dbar_block_int`); ``ValueError`` for any other count."""
    if len(block) < 2 or len(block) % 2:
        raise ValueError(f"a Dbar block has 2(k+1) rows, got {len(block)}")
    k = len(block) // 2 - 1
    product = linalg.mat_mul_int(linalg.shift_int(block, k), linalg.shift_int(block, -(k + 2)))
    return not any(product)


class EigenFamily(Record):
    """One Dirac eigenvalue (a Fraction) with its explicit eigenvectors on
    the slice H x H_k, labelled "plus" or "minus".

    ``vectors`` is a tuple of SpinorVectors and ``ps[j]`` the p label of
    ``vectors[j]``; for the minus family p runs 0..k+1, the two boundary
    values marking the one-dimensional invariant spans.  On H x H_k x H_k
    the family is these vectors tensored with each of the k+1 kets |q>, and
    ``len`` counts all of them.
    """

    __slots__ = _fields = ("k", "dirac_eigenvalue", "label", "vectors", "ps")

    def __len__(self) -> int:
        return (self.k + 1) * len(self.vectors)


def eigenbasis_abstract(k: int) -> tuple[EigenFamily, EigenFamily]:
    """The explicit eigenvector families on the slice H x H_k, each vector
    checked to be a Dbar eigenvector.

    Plus family (Dirac eigenvalue k + 1/2), p = 1..k:
        e0 (x) |p>  -  e2 (x) |p-1>
    Minus family (Dirac eigenvalue -k - 3/2):
        e0 (x) |0>,
        (p-k-1) e0 (x) |p>  -  p e2 (x) |p-1>   for p = 1..k,
        e2 (x) |k>.
    """
    if k < 0:
        raise ValueError("degree k must be >= 0")
    # (p, coefficients) of the slice; every factor is a nonzero integer,
    # so the parts are already canonical over denominator 1
    plus_slice = [(p, {(0, p): (1, 0), (2, p - 1): (-1, 0)}) for p in range(1, k + 1)]
    minus_slice = [
        (0, {(0, 0): (1, 0)}),
        *((p, {(0, p): (p - k - 1, 0), (2, p - 1): (-p, 0)}) for p in range(1, k + 1)),
        (k + 1, {(2, k): (1, 0)}),
    ]
    families = []
    for label, dirac_eigenvalue, dbar_eigenvalue, slice_ in (
        ("plus", Fraction(2 * k + 1, 2), k + 2, plus_slice),
        ("minus", Fraction(-2 * k - 3, 2), -k, minus_slice),
    ):
        vectors = tuple(SpinorVector._of(num, 1, k) for _, num in slice_)
        for v in vectors:
            if dbar_apply(v) != v.scale(dbar_eigenvalue):
                raise AssertionError(
                    f"vector {v} is not a Dbar eigenvector for {dbar_eigenvalue}"
                )
        families.append(EigenFamily(k, dirac_eigenvalue, label, vectors,
                                    tuple(p for p, _ in slice_)))
    plus, minus = families
    return plus, minus


class SpectrumRow(Record):
    """A Dirac eigenvalue (a Fraction) of degree k with its multiplicity."""

    __slots__ = _fields = ("k", "eigenvalue", "multiplicity")

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "eigenvalue": rational_to_str(self.eigenvalue),
            "multiplicity": self.multiplicity,
        }


def spectrum_table(k_max: int) -> list[SpectrumRow]:
    """Dirac eigenvalues with complex multiplicities, counted from the
    explicit families; zero-multiplicity rows are omitted."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    rows = []
    for k in range(k_max + 1):
        plus, minus = eigenbasis_abstract(k)
        for family in (plus, minus):
            if len(family):
                rows.append(SpectrumRow(k, family.dirac_eigenvalue, len(family)))
    return rows
