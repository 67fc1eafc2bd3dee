"""Geometric operators on polynomial sections of the 3-sphere.

The unit sphere in H carries the left-invariant frame of the three imaginary
units.  Derivatives along the flows x -> t^{-1} x s are exact polynomial
operations (the generating vector fields x -> xS - Tx are linear), and every
operator here is a polynomial in the frame derivatives l_i:
D = -sum_i (l_i sigma) e_i - 3/2, Delta = sum_i l_i l_i, and the two lowerings
that ``transfer`` ladders with (``_lower``).  Each is built as weights,
canonical exact parts of the vector core keyed by (shift, *indices): each
field's weights are read off its integer matrix (integer Hamilton products and
the integer frame change), and every other operator's are built from those by
a linear combination (``_combine``, a fold of ``add_parts``/``scale_parts``)
and a composition of any order (``_compose``), so an operator identity is an
``==`` of weights.  ``_table`` compiles weights once per process to the one
runtime format that the interpreter ``_apply`` runs: each operator is one
integer pass over its operand's numerators, and no cache grows with the degree.
``_OPERATORS`` names the weights, and those of the flat Laplacian Delta_R4,
read off ``polyring._LAPLACIAN`` and nothing of the frame fields; ``verify``
only composes and compares them, so its identities hold for what ``_apply``
runs.  No other module builds weights or compiles or runs a table.  The
operators' references -- one derivative per frame field, the Hessian
Laplacian, the connection constants -- live in ``tests/operator_reference.py``.
Integrals over the sphere are exact (``Fraction``, ``GaussianRational``)
in units of the total volume 2*pi^2, and nothing here is a float: the
quadrature that cross-checks them, and ``SPHERE_VOLUME``, which turns them
into floats, live in ``verify``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .exactnum import (
    BASIS,
    GaussianRational,
    RationalQuaternion,
    Record,
    add_parts,
    complex_split,
    gauss,
    gauss_parts,
    hamilton,
    quat,
    quat_multiply,
    reduce_parts,
    scale_parts,
)
from .polyring import _FRAME, _FRAME_INV, _LAPLACIAN, Polynomial, SpinorSection, Z_VIEW


class KillingPair(Record):
    """Generator (S, T) of the isometry flow x -> exp(tT)^{-1} x exp(tS),
    two RationalQuaternions.

    The associated vector field x -> xS - Tx is linear in x and, for
    imaginary S and T, tangent to every sphere around the origin.
    """

    __slots__ = _fields = ("S", "T")

    @staticmethod
    def left(i: int) -> "KillingPair":
        """The pair (e_i, 0) generating the left-invariant frame field."""
        if i not in (1, 2, 3):
            raise ValueError(f"axis index must be 1, 2 or 3, got {i}")
        return _LEFT_PAIRS[i]

    @staticmethod
    def right(i: int) -> "KillingPair":
        if i not in (1, 2, 3):
            raise ValueError(f"axis index must be 1, 2 or 3, got {i}")
        return _RIGHT_PAIRS[i]

    def field_at(self, x: RationalQuaternion) -> RationalQuaternion:
        return quat_multiply(x, self.S) - quat_multiply(self.T, x)


_LEFT_PAIRS = {i: KillingPair(BASIS[i], quat()) for i in (1, 2, 3)}
_RIGHT_PAIRS = {i: KillingPair(quat(), BASIS[i]) for i in (1, 2, 3)}


def _field_matrix_int(pair: KillingPair) -> tuple[int, linalg.Rows]:
    """``(den, rows)`` with rows/den the matrix of the linear field
    x -> xS - Tx in the z generators' frame: _FRAME * A * _FRAME_INV for
    the real matrix A whose column n is e_n S - T e_n.  S and T are taken
    over their common denominator d, so the Hamilton products and the frame
    change run on integers, over den = d times _FRAME_INV's."""
    d = math.lcm(*(c.denominator for q in (pair.S, pair.T) for c in q.components()))
    s, t = ([c.numerator * (d // c.denominator) for c in q.components()] for q in (pair.S, pair.T))
    units = [[int(m == n) for m in range(4)] for n in range(4)]
    cols = [[x - y for x, y in zip(hamilton(e, s), hamilton(t, e))] for e in units]
    a = [{n: (col[m], 0) for n, col in enumerate(cols) if col[m]} for m in range(4)]
    inv_den, inv = _FRAME_INV
    return d * inv_den, linalg.mat_mul_int(linalg.mat_mul_int(_FRAME, a), inv)


# An operator on z-view polynomials is kept as a table ``(den, entries)`` of
# Gaussian integers over den > 0.  An entry ``(shift, re, im)`` takes a term
# c*u^e to c*w(e) at e + shift, with
#
#     w(e) = sum c*x[m]*x[n] over the terms (m, n, c) of re
#            + i * the same sum over the terms of im,   x = (e0, e1, e2, e3, 1).
#
# Weights ``(num, den)`` hold the same data as canonical core parts: num maps
# (shift, *ns) to the Gaussian integer c of the term c * prod x[n] over ns,
# shift a 4-tuple and ns the product's sorted indices in 0..3, so a constant
# is keyed (shift,), a first-order term (shift, m) and a quadratic one
# (shift, m, n).  Cubic and higher weights are compared and never compiled.
# The weight of every operator below is 0 wherever its shift would lower an
# exponent below 0 (a field's weight e[m] is, and sums and products keep
# it), so _apply, which skips zero weights, never writes a negative
# exponent.  The weights but Delta_R4's are built once per process from the
# frame fields' by _combine and _compose, and compiled to tables by _table,
# which alone pads a key to (m, n) with x[4] = 1, and a block by _compile.


def _apply(table: tuple, num: dict, acc: dict | None = None) -> dict:
    """Add the operator ``table`` applied to the Gaussian integers ``num``
    into ``acc`` (a new dict by default) and return it, leaving the
    table's denominator to the caller."""
    if acc is None:
        acc = {}
    entries = table[1]
    for exp, (a, b) in num.items():
        x = exp + (1,)
        e0, e1, e2, e3 = exp
        for (s0, s1, s2, s3), re_terms, im_terms in entries:
            wr = wi = 0
            for m, n, c in re_terms:
                wr += c * x[m] * x[n]
            if im_terms:  # most weights are real
                for m, n, c in im_terms:
                    wi += c * x[m] * x[n]
            if wi:
                re, im = a * wr - b * wi, a * wi + b * wr
            elif wr:
                re, im = a * wr, b * wr
            else:
                continue
            key = (e0 + s0, e1 + s1, e2 + s2, e3 + s3)
            t = acc.get(key)
            acc[key] = (re, im) if t is None else (t[0] + re, t[1] + im)
    return acc


def _table(weights: tuple) -> tuple:
    """The runtime table of ``weights`` of order <= 2, as is: nothing is
    reduced, so :func:`_compile` can put a block over one denominator."""
    num, den = weights
    entries: dict = {}
    for (shift, *ns), (wr, wi) in num.items():
        if len(ns) > 2:
            raise ValueError(f"a table runs weights of order <= 2, not the key {(shift, *ns)}")
        m, n = (*ns, 4, 4)[:2]
        re, im = entries.setdefault(shift, ([], []))
        if wr:
            re.append((m, n, wr))
        if wi:
            im.append((m, n, wi))
    return den, tuple((shift, tuple(re), tuple(im)) for shift, (re, im) in entries.items())


#: The identity operator, which carries the Dirac operator's constant.
_IDENTITY = ({((0, 0, 0, 0),): (1, 0)}, 1)


@lru_cache(maxsize=None)
def _field_weights(pair: KillingPair) -> tuple:
    """The derivative along the field x -> xS - Tx, first-order weights:
    the nonzero entry (m, j) of the matrix M of :func:`_field_matrix_int`
    moves c*u^e to c*e[m]*M[m][j] at e - delta_m + delta_j."""
    den, rows = _field_matrix_int(pair)
    num = {}
    for m, row in enumerate(rows):
        for j, c in row.items():
            num[(tuple((n == j) - (n == m) for n in range(4)), m)] = c
    return reduce_parts(num, den)


def _combine(parts) -> tuple:
    """sum c*W over ``parts = ((W, c), ...)``, W weights and c scalars."""
    num, den = {}, 1
    for (w, d), c in parts:
        num, den = add_parts(num, den, *scale_parts(w, d, *gauss_parts(c)))
    return num, den


def _compose(a: tuple, b: tuple) -> tuple:
    """a after b, for weights of any order: the term (s, *i) of b, then the
    term (t, *j) of a, give w(x) * v(x + s) at s + t, where w and v are the
    terms' products of x over i and j."""
    (va, da), (vb, db) = a, b
    num: dict = {}
    for (s, *i), (wr, wi) in vb.items():
        for (t, *j), (vr, vi) in va.items():
            net = tuple(x + y for x, y in zip(s, t))
            # w(x) times x[n] + s[n] for each n of j, as products of x
            prods = [(i, 1)]
            for n in j:
                prods = [((*p, n), c) for p, c in prods] + [(p, c * s[n]) for p, c in prods if s[n]]
            cr, ci = wr * vr - wi * vi, wr * vi + wi * vr
            for p, c in prods:
                key = (net, *sorted(p))
                xr, xi = num.get(key, (0, 0))
                num[key] = (xr + c * cr, xi + c * ci)
    return reduce_parts(num, da * db)


def _compile(block: dict) -> tuple:
    """``(den, tables)``: the runtime table of each weights of ``block``,
    rescaled to den, the lcm of their denominators, so that the tables'
    images sum over den."""
    den = math.lcm(*(d for _, d in block.values()))
    scaled = {key: ({k: (re * (den // d), im * (den // d)) for k, (re, im) in num.items()}, den)
              for key, (num, d) in block.items()}
    return den, {key: _table(weights) for key, weights in scaled.items()}


@lru_cache(maxsize=None)
def _dirac_weights() -> dict:
    """The Dirac operator as a 2x2 block of weights: ``weights[(src, dst)]``
    is -sum_i split(e_src e_i)_dst * l_i, with src and dst the section
    keys' r (0 for f, 2 for g) and split the (f, g) parts of
    :func:`complex_split`, plus -3/2 times the identity on the diagonal."""
    return {(src, dst): _combine(
        [(_field_weights(KillingPair.left(i)),
          -complex_split(quat_multiply(BASIS[src], BASIS[i]))[dst // 2]) for i in (1, 2, 3)]
        + [(_IDENTITY, Fraction(-3, 2))] * (src == dst))
        for src in (0, 2) for dst in (0, 2)}


@lru_cache(maxsize=None)
def _dirac_block() -> tuple:
    """:func:`_dirac_weights`, compiled."""
    return _compile(_dirac_weights())


def _apply_block(block: tuple, sigma: SpinorSection) -> SpinorSection:
    """The section whose r-part is the sum over s of ``tables[(s, r)]`` on
    the s-part of ``sigma``'s z view, ``(den, tables) = block``: one
    :func:`_apply` pass per table, over sigma's denominator times den."""
    den, tables = block
    sigma = sigma.in_view(Z_VIEW)
    src = {0: {}, 2: {}}
    for (r, exp), c in sigma._num.items():
        src[r][exp] = c
    dst = {0: {}, 2: {}}
    for (s, r), table in tables.items():
        _apply(table, src[s], dst[r])
    num = {(r, exp): c for r, acc in dst.items() for exp, c in acc.items()}
    return SpinorSection._of(*reduce_parts(num, sigma._den * den), Z_VIEW)


def dirac_section(sigma: SpinorSection) -> SpinorSection:
    """The Dirac operator on a trivialised section,

        D(sigma) = -sum_i (l_i sigma) * e_i - 3/2 sigma,

    the frame derivatives right-multiplied by the frame units, minus the
    3/2 curvature constant: the 2x2 block :func:`_dirac_block`, run by
    :func:`_apply_block` on the section's numerators in the z view.
    """
    return _apply_block(_dirac_block(), sigma)


@lru_cache(maxsize=None)
def _laplace_weights() -> tuple:
    """sum_i l_i l_i, composed from the frame fields' weights."""
    fields = [_field_weights(KillingPair.left(i)) for i in (1, 2, 3)]
    return _combine((_compose(l, l), 1) for l in fields)


@lru_cache(maxsize=None)
def _laplace_block() -> tuple:
    """:func:`_laplace_weights` on f and on g, compiled."""
    return _compile(dict.fromkeys(((0, 0), (2, 2)), _laplace_weights()))


def laplace_section(sigma: SpinorSection) -> SpinorSection:
    """The Laplace operator sum_i l_i l_i sigma.

    With this sign it acts on degree-k eigensections by 1 - (k+1)^2, i.e.
    the analyst's negative-spectrum convention; negate for the geometer's
    positive Laplacian.  It is second order and acts on f and g alike:
    :func:`_apply_block` runs :func:`_laplace_block`.
    """
    return _apply_block(_laplace_block(), sigma)


LEFT = "left"
RIGHT = "right"


@lru_cache(maxsize=None)
def _lowering_weights(side: str) -> tuple:
    """-1/2 * pair(2) + i/2 * pair(3), combined from the two fields'
    weights, with pair the left fields for ``LEFT`` and the right ones for
    ``RIGHT``: its two terms are the diamond's arrows for ``side``."""
    pair = KillingPair.left if side == LEFT else KillingPair.right
    return _combine((
        (_field_weights(pair(2)), Fraction(-1, 2)),
        (_field_weights(pair(3)), gauss(0, Fraction(1, 2))),
    ))


@lru_cache(maxsize=None)
def _lowering_table(side: str) -> tuple:
    """The runtime table of :func:`_lowering_weights`."""
    return _table(_lowering_weights(side))


def _lower(side: str, poly: Polynomial, factor: int) -> Polynomial:
    """The lowering of ``side`` on a z-view ``poly``, divided by the int
    ``factor`` > 0: one pass of the table and one reduction, over the
    product of the denominators and ``factor``."""
    den, _ = table = _lowering_table(side)
    return Polynomial._of(*reduce_parts(_apply(table, poly._num), poly._den * den * factor),
                          Z_VIEW)


@lru_cache(maxsize=None)
def _flat_laplacian_weights() -> tuple:
    """Delta_R4, the flat Laplacian on R^4, as weights read off
    ``polyring._LAPLACIAN`` and nothing of the frame fields: its term
    (i, j, w) takes c u^e to c w e[i] e[j] at e - delta_i - delta_j."""
    return reduce_parts({(tuple(-(n == i) - (n == j) for n in range(4)), i, j): (w, 0)
                         for i, j, w in _LAPLACIAN}, 1)


def _kills_z2_powers(weights: tuple) -> bool:
    """Whether ``weights`` take z2^k to 0 for every k: every key has a
    factor x[1], x[2] or x[3], which is 0 at z2^k's exponent (k, 0, 0, 0)."""
    return all({1, 2, 3} & set(ns) for _, *ns in weights[0])


#: The operators of ``verify``'s identities, each as its blocks of weights.  An
#: entry looks its builder up when called, so a patch of it reaches both.
_OPERATORS = {
    "D": lambda: tuple(_dirac_weights().values()),
    "Delta": lambda: (_laplace_weights(),),
    "beta_L": lambda: (_lowering_weights(LEFT),),
    "beta_R": lambda: (_lowering_weights(RIGHT),),
    "Delta_R4": lambda: (_flat_laplacian_weights(),),
}


# -- exact integration -------------------------------------------------------


def monomial_integral(l1: int, l2: int, l3: int, l4: int) -> Fraction:
    """Exact sphere integral of z2^l1 conj(z2)^l2 (-z1)^l3 conj(z1)^l4.

    Nonzero only when l1 == l2 and l3 == l4, in which case the value is
    (-1)^l4 * l1! l3! / (l1+l3+1)! in 2*pi^2 units; always real.
    """
    if min(l1, l2, l3, l4) < 0:
        raise ValueError("exponents must be nonnegative")
    if l1 != l2 or l3 != l4:
        return Fraction(0)
    value = Fraction(math.factorial(l1) * math.factorial(l3), math.factorial(l1 + l3 + 1))
    if l4 % 2:
        value = -value
    return value


def l2_inner_product(a: Polynomial, b: Polynomial) -> GaussianRational:
    """Exact L2 pairing integral of conj(a) * b, conjugate-linear in a."""
    product = a.conjugate().in_view(Z_VIEW) * b.in_view(Z_VIEW)
    re = im = Fraction(0)
    for exp, (x, y) in product._num.items():
        weight = monomial_integral(*exp)
        re += x * weight
        im += y * weight
    return GaussianRational(re / product._den, im / product._den)
