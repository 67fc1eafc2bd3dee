"""The irreducible Sp(1) representation on symmetric powers.

H_k has the ket basis |p>, p = 0..k, where |p> carries p factors e2 and
k-p factors e0.  The infinitesimal actions of the imaginary units are

    l1 |p> = (2p - k) i |p>
    l2 |p> = (p - k) |p+1> + p |p-1>
    l3 |p> = (p - k) i |p+1> - p i |p-1>

with |-1> and |k+1> read as zero.  The (p - k) coefficient in l3 is the
only bandwidth-one choice compatible with [l2, l3] = 2 l1 given l1 and l2;
see VERIFICATION.md for the full pinning argument.

The complexified ladder operators are normalised so that

    H |p> = (k - 2p) |p>      (H = i * l1, highest weight +k on |0>)
    X |p> = p |p-1>           (X = (l2 + i*l3)/2, lowers p)
    Y |p> = (k - p) |p+1>     (Y = (-l2 + i*l3)/2, raises p)

which satisfy [H, X] = 2X, [H, Y] = -2Y and [X, Y] = H exactly.

Storage: a :class:`KetVector` is an ``exactnum.GaussParts`` in the space
(k,): its nonzero coefficients are Gaussian integers ``{p: (re, im)}``
over one positive denominator, in canonical form, so equality stays
structural.  :func:`apply_l`, :func:`apply_sl2` and the vector arithmetic
compute on those ints.  The l_i have Gaussian-integer matrices
(:func:`l_matrix_int`) in ``linalg``'s format, one sparse row
``{p: (re, im)}`` per ket, each row the ``_num`` of a denominator-1
vector.  :func:`casimir` takes the three matrices and builds none: it
squares each with ``linalg.mat_mul_int`` and sums the squares row by row
with ``exactnum.add_parts``.  ``verify`` builds each l_i once per degree
and hands it to the casimir and commutator lines, and
``abstract_dirac.dbar_apply_first_principles`` builds Dbar's block from
them.  ``GaussianRational`` appears only at the edge: the constructor,
``coeffs`` and the factors i, 1/2 and i/2 of :func:`apply_sl2`.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .exactnum import (
    GAUSS_I,
    GAUSS_ZERO,
    GaussianRational,
    GaussInt,
    GaussParts,
    add_parts,
    gauss,
    reduce_parts,
)


class KetVector(GaussParts):
    """A vector in H_k over the kets |0>..|k> (storage: see the module
    docstring)."""

    __slots__ = ()

    def __init__(self, k: int, coeffs):
        if k < 0:
            raise ValueError("degree k must be >= 0")
        coeffs = tuple(coeffs)
        if len(coeffs) != k + 1:
            raise ValueError(f"expected {k + 1} coefficients, got {len(coeffs)}")
        super().__init__(enumerate(coeffs), k)

    @property
    def k(self) -> int:
        return self._space[0]

    @staticmethod
    def zero(k: int) -> "KetVector":
        return KetVector(k, (0,) * (k + 1))

    @staticmethod
    def basis(k: int, p: int) -> "KetVector":
        if not 0 <= p <= k:
            raise ValueError(f"ket index p={p} outside 0..{k}")
        return KetVector._of({p: (1, 0)}, 1, k)

    @property
    def coeffs(self) -> tuple[GaussianRational, ...]:
        """The k+1 coefficients as Gaussian rationals (a new tuple)."""
        terms = self.terms
        return tuple(terms.get(p, GAUSS_ZERO) for p in range(self.k + 1))

    def __repr__(self) -> str:
        return f"KetVector(k={self.k}, coeffs={self.coeffs!r})"


def _put(out: dict, key, re: int, im: int) -> None:
    c = out.get(key)
    out[key] = (re, im) if c is None else (c[0] + re, c[1] + im)


def apply_l(i: int, v: KetVector) -> KetVector:
    """Infinitesimal action of the i-th imaginary unit on H_k."""
    if i not in (1, 2, 3):
        raise ValueError(f"axis index must be 1, 2 or 3, got {i}")
    k = v.k
    out: dict[int, GaussInt] = {}
    for p, (re, im) in v._num.items():
        # (re + i im) times a coefficient m (l2) or m*i (l1, l3); the
        # kets |-1> and |k+1> are zero
        if i == 1:
            m = 2 * p - k
            _put(out, p, -im * m, re * m)
        elif i == 2:
            if p < k:
                _put(out, p + 1, re * (p - k), im * (p - k))
            if p:
                _put(out, p - 1, re * p, im * p)
        else:
            if p < k:
                _put(out, p + 1, -im * (p - k), re * (p - k))
            if p:
                _put(out, p - 1, im * p, -re * p)
    return KetVector._of(*reduce_parts(out, v._den), k)


_HALF = gauss(Fraction(1, 2))
_I_HALF = gauss(0, Fraction(1, 2))


def apply_sl2(which: str, v: KetVector) -> KetVector:
    """Complexified ladder operators H, X, Y (see module docstring)."""
    if which == "H":
        return apply_l(1, v).scale(GAUSS_I)
    if which == "X":
        return apply_l(2, v).scale(_HALF) + apply_l(3, v).scale(_I_HALF)
    if which == "Y":
        return apply_l(2, v).scale(-_HALF) + apply_l(3, v).scale(_I_HALF)
    raise ValueError(f"unknown sl2 element {which!r}")


def l_matrix_int(i: int, k: int) -> linalg.Rows:
    """The Gaussian-integer matrix of apply_l(i, .) on H_k as rows; column
    p is the image of |p>."""
    if k < 0:
        raise ValueError("degree k must be >= 0")
    rows: linalg.Rows = [{} for _ in range(k + 1)]
    for p in range(k + 1):
        # the image of a basis ket has integer parts, so its denominator is 1
        for r, c in apply_l(i, KetVector.basis(k, p))._num.items():
            rows[r][p] = c
    return rows


def casimir(l1: linalg.Rows, l2: linalg.Rows, l3: linalg.Rows) -> linalg.Rows:
    """-(l1^2 + l2^2 + l3^2) as Gaussian-integer rows, k(k+2) times the
    identity for the l_i of H_k; ``ValueError`` for matrices of different sizes."""
    neg: linalg.Rows = [{} for _ in l1]
    for m in (l1, l2, l3):
        neg = [add_parts(acc, 1, row, 1, -1)[0]
               for acc, row in zip(neg, linalg.mat_mul_int(m, m), strict=True)]
    return neg


def casimir_expected(k: int) -> linalg.Rows:
    """k(k+2) times the identity on H_k, as Gaussian-integer rows."""
    if k < 0:
        raise ValueError("degree k must be >= 0")
    c = k * (k + 2)
    return [{p: (c, 0)} if c else {} for p in range(k + 1)]
