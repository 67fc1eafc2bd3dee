"""Geometric operators on polynomial sections of the 3-sphere.

The unit sphere in H carries the left-invariant frame of the three
imaginary units.  Derivatives along the flows x -> t^{-1} x s are exact
polynomial operations (the generating vector fields x -> xS - Tx are
linear), kept as shift tables on z-view exponents.  The tables are built
once per process on Gaussian integers, from integer Hamilton products and
the integer frame change: first-order ones for the frame fields, merged
for the Dirac operator and the lowerings, and one second-order table for
the Laplace operator, composed from the three frame fields' tables.  Each
operator is then one integer pass over its operand's numerators, and no
cache grows with the degree.  The composed forms they are checked against
-- one derivative per frame field, the Hessian Laplacian and the
connection constants -- live in ``tests/operator_reference.py``.
Integrals over the sphere are exact (``Fraction``, ``GaussianRational``)
in units of the total volume 2*pi^2; only ``SPHERE_VOLUME`` makes floats
of them, for the quadrature cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .exactnum import (
    BASIS,
    GAUSS_ONE,
    GaussianRational,
    RationalQuaternion,
    gauss_over,
    gauss_parts,
    hamilton,
    quat,
    quat_multiply,
    reduce_parts,
)
from .polyring import Polynomial, SpinorSection, Z_VIEW, _basis_product_split


@dataclass(frozen=True)
class KillingPair:
    """Generator (S, T) of the isometry flow x -> exp(tT)^{-1} x exp(tS).

    The associated vector field x -> xS - Tx is linear in x and, for
    imaginary S and T, tangent to every sphere around the origin.
    """

    S: RationalQuaternion
    T: RationalQuaternion

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

    @cached_property
    def _hash(self) -> int:
        return hash((self.S, self.T))

    def __hash__(self) -> int:
        # computed once: the field caches below are keyed on pairs, and
        # hashing two quaternions means hashing eight Fractions
        return self._hash


_LEFT_PAIRS = {i: KillingPair(BASIS[i], quat()) for i in (1, 2, 3)}
_RIGHT_PAIRS = {i: KillingPair(quat(), BASIS[i]) for i in (1, 2, 3)}


# Frame change between the real coordinates and the z-view generators
# (z2, conj z2, -z1, conj z1), as Gaussian-integer matrices (R, I): the rows
# of _FRAME express a generator in x coordinates, and _FRAME_INV is its
# inverse as (den, (R, I)), the matrix (R + iI)/den.
_FRAME = (
    [[0, 0, 1, 0], [0, 0, 1, 0], [-1, 0, 0, 0], [1, 0, 0, 0]],
    [[0, 0, 0, 1], [0, 0, 0, -1], [0, -1, 0, 0], [0, -1, 0, 0]],
)
_FRAME_INV = (2, (
    [[0, 0, -1, 1], [0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0]],
    [[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0], [-1, 1, 0, 0]],
))


@lru_cache(maxsize=None)
def _field_matrix_int(pair: KillingPair) -> tuple[int, linalg.GaussIntMatrix]:
    """``(den, (R, I))`` with (R + iI)/den the matrix of the linear field
    x -> xS - Tx in the z generators' frame: _FRAME * A * _FRAME_INV for
    the real matrix A whose column n is e_n S - T e_n.  S and T are taken
    over their common denominator d, so the Hamilton products and the frame
    change run on integers, over den = d times _FRAME_INV's."""
    d = math.lcm(*(c.denominator for q in (pair.S, pair.T) for c in q.components()))
    s, t = ([c.numerator * (d // c.denominator) for c in q.components()] for q in (pair.S, pair.T))
    units = [[int(m == n) for m in range(4)] for n in range(4)]
    cols = [[x - y for x, y in zip(hamilton(e, s), hamilton(t, e))] for e in units]
    a = [list(row) for row in zip(*cols)]
    inv_den, inv = _FRAME_INV
    b = linalg.mat_mul_int(linalg.mat_mul_int(_FRAME, (a, [[0] * 4 for _ in range(4)])), inv)
    return d * inv_den, b


def killing_field_matrix(pair: KillingPair) -> tuple[tuple[GaussianRational, ...], ...]:
    """Matrix of the linear field x -> xS - Tx in the z generators' frame."""
    den, b = _field_matrix_int(pair)
    return tuple(tuple(row) for row in linalg.from_int(b, den))


# A first-order operator on z-view polynomials is kept as a shift table
# ``(den, const, diagonal, moves)`` of Gaussian integers over den > 0: a term
# c*u^e goes to c*(const + sum e[m]*d) at e itself, over the entries (m, d)
# of ``diagonal``, plus c*e[m]*w at e - delta_m + delta_j for each entry
# (m, j, w) of ``moves``.  The field matrices give const = 0; the Dirac
# blocks put their -3/2 there.


def _shift_into(acc: dict, num: dict, table: tuple) -> None:
    """Add the operator ``table`` applied to the Gaussian integers ``num``
    into ``acc``, ignoring the table's denominator."""
    _, (cr, ci), diagonal, moves = table
    for exp, (a, b) in num.items():
        wr, wi = cr, ci
        for m, mr, mi in diagonal:
            e = exp[m]
            wr += e * mr
            wi += e * mi
        if wr or wi:
            re, im = a * wr - b * wi, a * wi + b * wr
            t = acc.get(exp)
            acc[exp] = (re, im) if t is None else (t[0] + re, t[1] + im)
        for m, j, mr, mi in moves:
            e = exp[m]
            if not e:
                continue
            key = list(exp)
            key[m] = e - 1
            key[j] += 1
            key = tuple(key)
            # (a + b i) * e * (mr + mi i), skipping the zero part of the entry
            if not mi:
                re, im = a * e * mr, b * e * mr
            elif not mr:
                re, im = -b * e * mi, a * e * mi
            else:
                re, im = (a * mr - b * mi) * e, (a * mi + b * mr) * e
            t = acc.get(key)
            acc[key] = (re, im) if t is None else (t[0] + re, t[1] + im)


def _first_order(p: Polynomial, table: tuple) -> Polynomial:
    """The operator ``table`` applied to the z-view p in one pass."""
    acc: dict = {}
    _shift_into(acc, p._num, table)
    return Polynomial._of(*reduce_parts(acc, p._den * table[0]), Z_VIEW)


@lru_cache(maxsize=None)
def _merged_shifts(fields: tuple) -> tuple:
    """The shift table of sum_s c_s * M(pair_s) over ``fields = ((pair, c),
    ...)``, M the field matrix of :func:`_field_matrix_int`: entries with
    the same (m, j) are summed over one common denominator on integers, the
    zero ones dropped, and the denominator reduced to the least one."""
    terms = []
    for pair, c in fields:
        d, (re, im) = _field_matrix_int(pair)
        cr, ci, cd = gauss_parts(c)
        terms.append((d * cd, re, im, cr, ci))
    den = math.lcm(*(d for d, *_ in terms))
    acc: dict = {}
    for d, re, im, cr, ci in terms:
        s = den // d
        for m in range(4):
            for j in range(4):
                x, y = re[m][j], im[m][j]
                if x or y:
                    wr, wi = (x * cr - y * ci) * s, (x * ci + y * cr) * s
                    t = acc.get((m, j))
                    acc[(m, j)] = (wr, wi) if t is None else (t[0] + wr, t[1] + wi)
    acc, den = reduce_parts(acc, den)
    entries = [(m, j, mr, mi) for (m, j), (mr, mi) in acc.items()]
    return (
        den,
        (0, 0),
        tuple((m, mr, mi) for m, j, mr, mi in entries if m == j),
        tuple(entry for entry in entries if entry[0] != entry[1]),
    )


@lru_cache(maxsize=None)
def _dirac_tables() -> dict:
    """The Dirac operator as a 2x2 block of shift tables over one
    denominator: ``tables[(src, dst)]`` is T[src -> dst] = -sum_i
    split(e_r e_i)_dst * M(left(i)), with r = 0 for f and 2 for g and split
    the (f, g) parts of :func:`complex_split`, and the blocks f -> f and
    g -> g carry the constant -3/2."""
    merged = {}
    for src, r in (("f", 0), ("g", 2)):
        for dst, part in (("f", 0), ("g", 1)):
            merged[(src, dst)] = _merged_shifts(
                tuple(
                    (KillingPair.left(i), -gauss_over(*_basis_product_split(r, i)[part], 1))
                    for i in (1, 2, 3)
                )
            )
    shift = Fraction(-3, 2)
    den = math.lcm(shift.denominator, *(table[0] for table in merged.values()))
    tables = {}
    for (src, dst), (d, _, diagonal, moves) in merged.items():
        s = den // d
        const = (shift.numerator * (den // shift.denominator), 0) if src == dst else (0, 0)
        tables[(src, dst)] = (
            den,
            const,
            tuple((m, mr * s, mi * s) for m, mr, mi in diagonal),
            tuple((m, j, mr * s, mi * s) for m, j, mr, mi in moves),
        )
    return tables


def dirac_section(sigma: SpinorSection) -> SpinorSection:
    """The Dirac operator on a trivialised section,

        D(sigma) = -sum_i (l_i sigma) * e_i - 3/2 sigma,

    the frame derivatives right-multiplied by the frame units, minus the
    3/2 curvature constant.  Each component of the result is one pass over
    the Gaussian-integer numerators of f and g in the z view, brought to a
    common denominator, with the merged tables of :func:`_dirac_tables`.
    """
    f, g = sigma.f.in_view(Z_VIEW), sigma.g.in_view(Z_VIEW)
    tables = _dirac_tables()
    den = math.lcm(f._den, g._den)
    nums = {}
    for src, comp in (("f", f), ("g", g)):
        s = den // comp._den
        nums[src] = comp._num if s == 1 else {e: (a * s, b * s) for e, (a, b) in comp._num.items()}
    den *= tables[("f", "f")][0]  # the four tables share it
    parts = []
    for dst in ("f", "g"):
        acc: dict = {}
        for src in ("f", "g"):
            _shift_into(acc, nums[src], tables[(src, dst)])
        parts.append(Polynomial._of(*reduce_parts(acc, den), Z_VIEW))
    return SpinorSection(*parts)


# A second-order operator on z-view polynomials is kept as a table
# ``(den, ((shift, re, im), ...))`` of Gaussian integers over den > 0: a term
# c*u^e goes to c*w(e) at e + shift (at e itself when shift is None), where
# w(e) has the real part sum x[t]*c over the entries (t, c) of ``re``, the
# imaginary part likewise over ``im``, and x the monomials of _FORM_BASIS
# at e, so that w is a quadratic plus a linear form in e.

#: The monomials x of a second-order form: e[m]*e[n] for m <= n, then e[m],
#: in the order in which :func:`_laplace_poly` evaluates them.
_FORM_BASIS = tuple((m, n) for m in range(4) for n in range(m, 4)) + tuple((m,) for m in range(4))


@lru_cache(maxsize=None)
def _laplace_table() -> tuple:
    """sum_i l_i l_i as a second-order shift table, composed from the
    first-order tables of the three frame fields.

    Entry (m1, j1, w1) of a first-order table, then (m2, j2, w2), takes u^e
    to w1*w2*e[m1]*(e[m2] + [m2 = j1] - [m2 = m1]) times u^e shifted by
    -delta_m1 + delta_j1 - delta_m2 + delta_j2 (a diagonal entry has j = m).
    The coefficients are summed per shift, over the least common
    denominator; each pair's own coefficient is 0 wherever it would lower an
    exponent below 0, so the sum is too."""
    tables = [_merged_shifts(((KillingPair.left(i), GAUSS_ONE),)) for i in (1, 2, 3)]
    den = math.lcm(*(t[0] ** 2 for t in tables))
    acc: dict = {}  # (shift, index in _FORM_BASIS) -> (re, im)
    for d, _, diagonal, moves in tables:
        s = den // d**2
        entries = [(m, m, mr, mi) for m, mr, mi in diagonal] + list(moves)
        for m1, j1, r1, i1 in entries:
            for m2, j2, r2, i2 in entries:
                shift = [0, 0, 0, 0]
                for m, step in ((m1, -1), (j1, 1), (m2, -1), (j2, 1)):
                    shift[m] += step
                wr, wi = (r1 * r2 - i1 * i2) * s, (r1 * i2 + i1 * r2) * s
                for x, c in (((min(m1, m2), max(m1, m2)), 1), ((m1,), (m2 == j1) - (m2 == m1))):
                    if c:
                        key = (tuple(shift), _FORM_BASIS.index(x))
                        t = acc.get(key, (0, 0))
                        acc[key] = (t[0] + c * wr, t[1] + c * wi)
    acc, den = reduce_parts(acc, den)
    forms: dict = {}
    for (shift, t), (wr, wi) in acc.items():
        re, im = forms.setdefault(shift if any(shift) else None, ([], []))
        if wr:
            re.append((t, wr))
        if wi:
            im.append((t, wi))
    return den, tuple((shift, tuple(re), tuple(im)) for shift, (re, im) in forms.items())


def _laplace_poly(p: Polynomial) -> Polynomial:
    """sum_i l_i l_i p in one integer pass over the z-view terms of p with
    :func:`_laplace_table`: per term, the monomials of _FORM_BASIS once,
    then each shift's weight from them."""
    p = p.in_view(Z_VIEW)
    den, shifts = _laplace_table()
    acc: dict = {}
    for exp, (a, b) in p._num.items():
        e0, e1, e2, e3 = exp
        x = (e0 * e0, e0 * e1, e0 * e2, e0 * e3, e1 * e1, e1 * e2, e1 * e3, e2 * e2, e2 * e3,
             e3 * e3, e0, e1, e2, e3)
        for shift, re_form, im_form in shifts:
            wr = wi = 0
            for t, c in re_form:
                wr += x[t] * c
            for t, c in im_form:
                wi += x[t] * c
            if not (wr or wi):
                continue
            if shift is None:
                key = exp
            else:
                key = (e0 + shift[0], e1 + shift[1], e2 + shift[2], e3 + shift[3])
            re, im = a * wr - b * wi, a * wi + b * wr
            t = acc.get(key)
            acc[key] = (re, im) if t is None else (t[0] + re, t[1] + im)
    return Polynomial._of(*reduce_parts(acc, p._den * den), Z_VIEW)


def laplace_section(sigma: SpinorSection) -> SpinorSection:
    """The Laplace operator sum_i l_i l_i sigma.

    With this sign it acts on degree-k eigensections by 1 - (k+1)^2, i.e.
    the analyst's negative-spectrum convention; negate for the geometer's
    positive Laplacian.  It is second order: each component is one integer
    pass with the second-order shift table that :func:`_laplace_table`
    composes from the frame fields' first-order tables.
    """
    return SpinorSection(_laplace_poly(sigma.f), _laplace_poly(sigma.g))


# -- exact integration -------------------------------------------------------

#: The volume 2*pi^2 of the unit 3-sphere, the unit of every exact integral:
#: ``float(v) * SPHERE_VOLUME`` is the integral whose exact value is v.
SPHERE_VOLUME = 2.0 * math.pi**2


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


# -- numeric quadrature -------------------------------------------------------


def _complex_terms(f: Polynomial):
    fz = f.in_view(Z_VIEW)
    return [(exp, complex(coeff)) for exp, coeff in fz.terms_sorted()]


def _eval_terms(terms, z1, z2):
    u = (z2, np.conj(z2), -z1, np.conj(z1))
    total = np.zeros(np.broadcast(z1, z2).shape, dtype=complex)
    for (a, b, c, d), coeff in terms:
        total = total + coeff * u[0] ** a * u[1] ** b * u[2] ** c * u[3] ** d
    return total


def tensor_quadrature(fs: list[Polynomial], n_angular: int, n_radial: int) -> list[complex]:
    """Sphere integral of each polynomial in ``fs`` on one grid, each equal
    to its one-polynomial call bit for bit, through the chart (t, s, rho) ->
    (e^{it} sqrt(rho), e^{is} sqrt(1-rho)) with volume element dt ds drho / 2:
    trapezoid in both angles with ``n_angular`` nodes, Gauss-Legendre in rho
    with ``n_radial``.  Exact on total degree d (up to roundoff) once
    n_angular > d and 2*n_radial - 1 >= d/2."""
    if n_angular < 1 or n_radial < 1:
        raise ValueError("tensor rule needs n_angular >= 1 and n_radial >= 1")
    t = 2.0 * np.pi * np.arange(n_angular) / n_angular
    nodes, weights = np.polynomial.legendre.leggauss(n_radial)
    rho = (nodes + 1.0) / 2.0
    w_rho = weights / 2.0
    tt = t[:, None, None]
    ss = t[None, :, None]
    rr = rho[None, None, :]
    z1 = np.exp(1j * tt) * np.sqrt(rr)
    z2 = np.exp(1j * ss) * np.sqrt(1.0 - rr)
    cell = (2.0 * np.pi / n_angular) ** 2 * 0.5
    return [
        complex(cell * np.sum(_eval_terms(_complex_terms(f), z1, z2) * w_rho[None, None, :]))
        for f in fs
    ]


_MC_CHUNK = 1 << 16


def monte_carlo_quadrature(fs: list[Polynomial], samples: int,
                           seed: int) -> list[tuple[complex, float]]:
    """(value, standard error) of the sphere integral of each polynomial in
    ``fs`` by Monte Carlo, on one set of draws, each equal to its
    one-polynomial call bit for bit.  The samples are drawn in fixed chunks
    of 2^16, one spawned child stream per chunk from SeedSequence(seed), so
    the estimate is reproducible no matter how chunks are scheduled."""
    if samples < 2:
        # one sample has no variance estimate, so no error bar
        raise ValueError("monte carlo rule needs samples >= 2")
    if seed is None:
        raise ValueError("monte carlo rule needs an explicit seed")
    all_terms = [_complex_terms(f) for f in fs]
    # per polynomial: sums of the real and imaginary parts and of their squares
    sums = [[0.0, 0.0, 0.0, 0.0] for _ in all_terms]
    n = samples
    children = np.random.SeedSequence(seed).spawn((n + _MC_CHUNK - 1) // _MC_CHUNK)
    drawn = 0
    for child in children:
        m = min(_MC_CHUNK, n - drawn)
        rng = np.random.default_rng(child)
        x = rng.standard_normal((m, 4))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        z1 = x[:, 0] + 1j * x[:, 1]
        z2 = x[:, 2] + 1j * x[:, 3]
        for acc, terms in zip(sums, all_terms):
            values = _eval_terms(terms, z1, z2)
            acc[0] += float(np.sum(values.real))
            acc[1] += float(np.sum(values.imag))
            acc[2] += float(np.sum(values.real**2))
            acc[3] += float(np.sum(values.imag**2))
        drawn += m
    results = []
    for total_re, total_im, sq_re, sq_im in sums:
        mean = complex(total_re / n, total_im / n)
        var_re = max(sq_re / n - (total_re / n) ** 2, 0.0)
        var_im = max(sq_im / n - (total_im / n) ** 2, 0.0)
        stderr = SPHERE_VOLUME * math.sqrt((var_re + var_im) / n)
        results.append((mean * SPHERE_VOLUME, stderr))
    return results
