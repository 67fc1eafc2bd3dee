"""Sparse multivariate polynomials on R^4 with Gaussian-rational coefficients.

A polynomial lives in one of two coordinate views, each its own space:

* ``"z"``  -- monomials in the four degree-one generators

      u0 = z2,  u1 = conj(z2),  u2 = -z1,  u3 = conj(z1)

  where z1 = x0 + x1*i and z2 = x2 + x3*i;
* ``"x"``  -- monomials in the real coordinates x0, x1, x2, x3.

z is the one compute view: the eigenbasis lives there, and every operator
(the flat Laplacian here, the Killing-field shift tables in ``geometry``)
computes on ``in_view(Z_VIEW)`` of its operand and returns z.  The x view
is kept for conversion and for the tests' oracles.
Polynomials of different views are unequal and do not combine;
:meth:`Polynomial.in_view`, an exact ring isomorphism, is the one crossing
between them.  Exponent tuples are ordered graded-lexicographically for
deterministic output.

Coefficient storage: a polynomial is an ``exactnum.GaussParts`` in the
space (view,): a map from exponents to Gaussian integers ``(re, im)``
(Python ints) over one positive ``int`` denominator shared by all terms,
kept canonical -- no zero terms, gcd(denominator, every numerator) = 1,
and ``({}, 1)`` for zero -- so equality stays structural.  Every kernel
computes on those ints; ``GaussianRational`` appears only at the edge:
the constructor, ``terms``, ``evaluate`` and ``from_json``, which reads
the ``"num/den"`` strings that ``to_json`` writes straight from each
numerator over the denominator.  The ``eigenbasis`` export in ``cli``
writes the same strings the same way, from a section's ``_num``/``_den``
in ``_term_order``, without building its parts.

A :class:`SpinorSection` (f, g) is one more vector of that core, in the
same space (view,): the numerators of f and g keyed by ``(r, exp)``, r = 0
for f and 2 for g, over one denominator.  It inherits its arithmetic,
equality and hash; ``f`` and ``g`` read the two parts back as canonical
polynomials, and ``degree`` is read off the exponents.

The kernels outside this module (the shift-table passes behind
``geometry.dirac_section``, ``laplace_section``, ``transfer.beta_lower``
and ``recursive_table``, and ``geometry.l2_inner_product``,
``transfer.iso_closed_form`` and ``transfer.transfer_slice``) read
``_num``/``_den`` and build their results with ``_of`` on parts that
``exactnum.reduce_parts``, ``add_parts`` or ``scale_parts`` keep
canonical.  The checks in ``verify`` read ``_num`` directly: the
exponents of the images for the bookkeeping, and the images' and the
sections' numerators as the rows of the sparse rank.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional

from .exactnum import (
    GaussianRational,
    GaussInt,
    GaussParts,
    RationalQuaternion,
    assemble,
    ratio_to_str,
    reduce_parts,
)

X_VIEW = "x"
Z_VIEW = "z"

Exponents = tuple[int, int, int, int]


def _term_order(item):
    exp, _ = item
    return (sum(exp), tuple(-e for e in exp))


def _exponents(exp) -> Exponents:
    """``exp`` as an exponent tuple, refused unless it is 4 nonnegative ints."""
    exp = tuple(exp)
    if len(exp) != 4 or not all(type(e) is int and e >= 0 for e in exp):
        raise ValueError(f"exponents must be 4 nonnegative ints, got {list(exp)}")
    return exp


class Polynomial(GaussParts):
    """Sparse polynomial: nonzero Gaussian-integer numerators keyed by
    exponent tuples, over one shared positive denominator (see the module
    docstring for the canonical form)."""

    __slots__ = ()

    def __init__(self, terms: Optional[dict[Exponents, GaussianRational]] = None,
                 view: str = Z_VIEW):
        if view not in (X_VIEW, Z_VIEW):
            raise ValueError(f"unknown view {view!r}")
        super().__init__(((_exponents(exp), c) for exp, c in (terms or {}).items()), view)

    @property
    def view(self) -> str:
        return self._space[0]

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(view: str = Z_VIEW) -> "Polynomial":
        return Polynomial({}, view)

    @staticmethod
    def constant(c, view: str = Z_VIEW) -> "Polynomial":
        return Polynomial({(0, 0, 0, 0): c}, view)

    @staticmethod
    def variable(index: int, view: str) -> "Polynomial":
        exp = [0, 0, 0, 0]
        exp[index] = 1
        return Polynomial({tuple(exp): 1}, view)

    @staticmethod
    def monomial(exponents: Exponents, coeff, view: str) -> "Polynomial":
        return Polynomial({tuple(exponents): coeff}, view)

    # -- inspection ---------------------------------------------------------

    def degree(self) -> int:
        """Total degree (-1 for the zero polynomial)."""
        if not self._num:
            return -1
        return max(sum(exp) for exp in self._num)

    def terms_sorted(self) -> list[tuple[Exponents, GaussianRational]]:
        return sorted(self.terms.items(), key=_term_order)

    # -- ring operations ------------------------------------------------------

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        other = self._same_space(other)
        out: dict[Exponents, GaussInt] = {}
        for (p0, p1, p2, p3), (a, b) in self._num.items():
            for (q0, q1, q2, q3), (c, d) in other._num.items():
                exp = (p0 + q0, p1 + q1, p2 + q2, p3 + q3)
                re, im = a * c - b * d, a * d + b * c
                t = out.get(exp)
                out[exp] = (re, im) if t is None else (t[0] + re, t[1] + im)
        return Polynomial._of(*reduce_parts(out, self._den * other._den), self.view)

    def __rmul__(self, other) -> "Polynomial":
        return self * other

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(1, self.view)
        for _ in range(n):
            result = result * self
        return result

    # -- view conversion -------------------------------------------------

    def in_view(self, target: str) -> "Polynomial":
        if target == self.view:
            return self
        subs = _substitution_polys(self.view, target)
        out = Polynomial.zero(target)
        for exp, c in self._num.items():
            term = Polynomial._of({(0, 0, 0, 0): c}, 1, target)
            for var, e in enumerate(exp):
                for _ in range(e):
                    term = term * subs[var]
            out = out + term
        return out.scale(Fraction(1, self._den))

    # -- calculus ----------------------------------------------------------

    def partial(self, j: int) -> "Polynomial":
        """Formal partial derivative with respect to the j-th variable of
        this polynomial's own view."""
        out: dict[Exponents, GaussInt] = {}
        for exp, (re, im) in self._num.items():
            e = exp[j]
            if e == 0:
                continue
            new = list(exp)
            new[j] = e - 1
            out[tuple(new)] = (re * e, im * e)
        return Polynomial._of(*reduce_parts(out, self._den), self.view)

    def conjugate(self) -> "Polynomial":
        """Complex conjugate of the polynomial as a function on R^4."""
        if self.view == X_VIEW:
            out = {e: (re, -im) for e, (re, im) in self._num.items()}
        else:
            # In the z view: conj swaps z2 <-> conj(z2) and sends -z1 <-> conj(z1)
            # up to a sign on each of the last two generators.
            out = {
                (b, a, d, c): (-re, im) if (c + d) % 2 else (re, -im)
                for (a, b, c, d), (re, im) in self._num.items()
            }
        return Polynomial._of(out, self._den, self.view)

    def evaluate(self, point) -> GaussianRational:
        """Exact evaluation at a rational point (x0, x1, x2, x3)."""
        x = [Fraction(t) for t in point]
        if len(x) != 4:
            raise ValueError(f"a point has 4 coordinates, got {len(x)}")
        q = lcm(*(t.denominator for t in x))
        n = [t.numerator * (q // t.denominator) for t in x]  # x = n / q
        if self.view == X_VIEW:
            values = [(t, 0) for t in n]
        else:
            values = [(n[2], n[3]), (n[2], -n[3]), (-n[0], -n[1]), (n[0], -n[1])]
        top = self.degree()
        total_re = total_im = 0
        for exp, (re, im) in self._num.items():
            for (vr, vi), e in zip(values, exp):
                for _ in range(e):
                    re, im = re * vr - im * vi, re * vi + im * vr
            w = q ** (top - sum(exp))  # every term over q**top
            total_re += re * w
            total_im += im * w
        den = self._den * q ** max(top, 0)
        return GaussianRational(Fraction(total_re, den), Fraction(total_im, den))

    def __repr__(self) -> str:
        if not self._num:
            return "0"
        names = ("x0", "x1", "x2", "x3") if self.view == X_VIEW else ("u0", "u1", "u2", "u3")
        parts = []
        for exp, coeff in self.terms_sorted():
            mono = "*".join(f"{n}^{e}" for n, e in zip(names, exp) if e) or "1"
            parts.append(f"({coeff})*{mono}")
        return " + ".join(parts)

    # -- JSON ---------------------------------------------------------------

    def to_json(self) -> dict:
        den = self._den
        return {
            "view": self.view,
            "terms": [
                {"exp": list(exp),
                 "coeff": {"re": ratio_to_str(re, den), "im": ratio_to_str(im, den)}}
                for exp, (re, im) in sorted(self._num.items(), key=_term_order)
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "Polynomial":
        """The polynomial of a record; ``ValueError`` if it is malformed."""
        terms = {}
        try:
            for t in obj["terms"]:
                c = t["coeff"]
                exp = tuple(t["exp"])
                if exp in terms:
                    raise ValueError(f"exponent {list(exp)} appears twice")
                terms[exp] = GaussianRational(_ratio(c["re"]), _ratio(c["im"]))
            view = obj["view"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed polynomial record: {type(exc).__name__} {exc}") from None
        return Polynomial(terms, view)


def _ratio(text) -> Fraction:
    """A coefficient part as ``to_json`` writes it: a string that ``Fraction``
    reads, over a nonzero denominator."""
    try:
        if type(text) is str:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"a coefficient part must be a rational string, got {text!r}")


# Degree-one generators of the z view and the real coordinates.
G2 = Polynomial.variable(0, Z_VIEW)       # z2
G2_BAR = Polynomial.variable(1, Z_VIEW)   # conj(z2)
GM1 = Polynomial.variable(2, Z_VIEW)      # -z1
G1_BAR = Polynomial.variable(3, Z_VIEW)   # conj(z1)
X0 = Polynomial.variable(0, X_VIEW)
X1 = Polynomial.variable(1, X_VIEW)
X2 = Polynomial.variable(2, X_VIEW)
X3 = Polynomial.variable(3, X_VIEW)

# Frame change between the real coordinates and the z generators
# (z2, conj z2, -z1, conj z1), as Gaussian-integer rows {col: (re, im)}:
# the rows of _FRAME express a generator in x coordinates (z2 = x2 + i x3,
# -z1 = -x0 - i x1, ...), and _FRAME_INV is its inverse as (den, rows), the
# matrix rows/den (x0 = (conj(z1) - (-z1))/2, ...).
_FRAME = [
    {2: (1, 0), 3: (0, 1)},
    {2: (1, 0), 3: (0, -1)},
    {0: (-1, 0), 1: (0, -1)},
    {0: (1, 0), 1: (0, -1)},
]
_FRAME_INV = (2, [
    {2: (-1, 0), 3: (1, 0)},
    {2: (0, 1), 3: (0, 1)},
    {0: (1, 0), 1: (1, 0)},
    {0: (0, -1), 1: (0, 1)},
])


def _linear_forms(den: int, rows, view: str) -> tuple[Polynomial, ...]:
    """The degree-one polynomials rows/den in the generators of ``view``."""
    units = [tuple(int(m == n) for m in range(4)) for n in range(4)]
    return tuple(
        Polynomial._of(*reduce_parts({units[n]: c for n, c in row.items()}, den), view)
        for row in rows
    )


_Z_IN_X = _linear_forms(1, _FRAME, X_VIEW)
_X_IN_Z = _linear_forms(*_FRAME_INV, Z_VIEW)


def _substitution_polys(source: str, target: str):
    if source == Z_VIEW and target == X_VIEW:
        return _Z_IN_X
    if source == X_VIEW and target == Z_VIEW:
        return _X_IN_Z
    raise ValueError(f"no conversion from {source!r} to {target!r}")


# -- the flat Laplacian -------------------------------------------------------

# The Laplacian as weighted mixed second derivatives (i, j, w) in the z
# generators, 4(d_u0 d_u1 - d_u2 d_u3), because d_z d_zbar =
# (1/4)(d_re^2 + d_im^2) and u2 = -z1; geometry reads them as Delta_R4's weights.
_LAPLACIAN = ((0, 1, 4), (2, 3, -4))


def laplacian_r4(p: Polynomial) -> Polynomial:
    """Flat Laplacian on R^4, exact, computed in the z view."""
    p = p.in_view(Z_VIEW)
    acc: dict[Exponents, GaussInt] = {}
    for exp, (re, im) in p._num.items():
        for i, j, w in _LAPLACIAN:
            factor = exp[i] * exp[j] * w
            if not factor:
                continue
            key = list(exp)
            key[i] -= 1
            key[j] -= 1
            key = tuple(key)
            t = acc.get(key)
            if t is None:
                acc[key] = (re * factor, im * factor)
            else:
                acc[key] = (t[0] + re * factor, t[1] + im * factor)
    return Polynomial._of(*reduce_parts(acc, p._den), Z_VIEW)


class SpinorSection(GaussParts):
    """A quaternion-valued polynomial map, stored as the complex pair (f, g).

    The value at x is ftilde(x)*e0 + gtilde(x)*e2 where a complex scalar
    a + b*i acts as left multiplication by a + b*e1.  The section is one
    exact vector in the space (view,): its Gaussian-integer numerators are
    keyed by ``(r, exp)``, r = 0 for the terms of f and 2 for those of g,
    like a ``SpinorVector``'s ``(r, p)``, over one shared denominator.
    """

    __slots__ = ()

    def __init__(self, f: Polynomial, g: Polynomial):
        if f._space != g._space:
            raise ValueError(f"f and g must share a view, got {f.view} and {g.view}")
        # f and g are canonical, so they stay so over the lcm of their denominators
        den = lcm(f._den, g._den)
        num = {}
        for r, part in ((0, f), (2, g)):
            s = den // part._den
            num.update({(r, exp): (re * s, im * s) for exp, (re, im) in part._num.items()})
        self._num, self._den, self._space = num, den, f._space

    @property
    def view(self) -> str:
        return self._space[0]

    def _part(self, r: int) -> Polynomial:
        num = {exp: c for (s, exp), c in self._num.items() if s == r}
        return Polynomial._of(*reduce_parts(num, self._den), self.view)

    @property
    def f(self) -> Polynomial:
        return self._part(0)

    @property
    def g(self) -> Polynomial:
        return self._part(2)

    @property
    def degree(self) -> Optional[int]:
        """The common homogeneous degree of f and g: 0 for the zero section,
        None if there is none."""
        degs = {sum(exp) for _, exp in self._num}
        if len(degs) > 1:
            return None
        return degs.pop() if degs else 0

    @staticmethod
    def zero(view: str = Z_VIEW) -> "SpinorSection":
        return SpinorSection._of({}, 1, view)

    def in_view(self, target: str) -> "SpinorSection":
        if target == self.view:
            return self
        return SpinorSection(self.f.in_view(target), self.g.in_view(target))

    def evaluate(self, point) -> RationalQuaternion:
        return assemble(self.f.evaluate(point), self.g.evaluate(point))

    def __repr__(self) -> str:
        return f"SpinorSection(f={self.f!r}, g={self.g!r})"

    # -- JSON -------------------------------------------------------------

    def to_json(self) -> dict:
        return {"k": self.degree, "f": self.f.to_json(), "g": self.g.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "SpinorSection":
        """The section of a record; its ``"k"``, if any, must be the degree of
        its f and g: null when they have none, any int >= 0 when both are
        zero.  ``ValueError`` if it is malformed."""
        try:
            f, g = obj["f"], obj["g"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed section record: {type(exc).__name__} {exc}") from None
        section = SpinorSection(Polynomial.from_json(f), Polynomial.from_json(g))
        degree, k = section.degree, obj.get("k")
        if "k" in obj and not (k is None and degree is None
                               or type(k) is int and k >= 0
                               and (section.is_zero() or k == degree)):
            raise ValueError(f"record degree {k!r} is not the degree of its f and g")
        return section
