"""Sparse multivariate polynomials on R^4 with Gaussian-rational coefficients.

Two coordinate views of the same function space are supported:

* ``"x"``  -- monomials in the real coordinates x0, x1, x2, x3;
* ``"z"``  -- monomials in the four degree-one generators

      u0 = z2,  u1 = conj(z2),  u2 = -z1,  u3 = conj(z1)

  where z1 = x0 + x1*i and z2 = x2 + x3*i.

Both views are exact and conversion between them is an exact ring
isomorphism.  z is the compute view: the eigenbasis lives there and the
calculus kernels (the flat Laplacian here, the Killing derivatives in
``geometry``) work directly on its exponents.  The x view is kept for
conversion and as a test oracle.  Exponent tuples are ordered
graded-lexicographically for deterministic output.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .exactnum import (
    GAUSS_ONE,
    GAUSS_ZERO,
    GaussianRational,
    RationalQuaternion,
    assemble,
    complex_split,
    gauss,
    quat_multiply,
    BASIS,
)

X_VIEW = "x"
Z_VIEW = "z"

Exponents = tuple[int, int, int, int]


def _term_order(item):
    exp, _ = item
    return (sum(exp), tuple(-e for e in exp))


class Polynomial:
    """Sparse polynomial: a map from exponent tuples to nonzero coefficients."""

    __slots__ = ("terms", "view")

    def __init__(self, terms: Optional[dict[Exponents, GaussianRational]] = None,
                 view: str = Z_VIEW):
        if view not in (X_VIEW, Z_VIEW):
            raise ValueError(f"unknown view {view!r}")
        clean: dict[Exponents, GaussianRational] = {}
        if terms:
            for exp, coeff in terms.items():
                if not coeff.is_zero():
                    clean[tuple(exp)] = coeff
        self.terms = clean
        self.view = view

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(view: str = Z_VIEW) -> "Polynomial":
        return Polynomial({}, view)

    @staticmethod
    def constant(c, view: str = Z_VIEW) -> "Polynomial":
        c = _coerce_coeff(c)
        return Polynomial({(0, 0, 0, 0): c}, view)

    @staticmethod
    def variable(index: int, view: str) -> "Polynomial":
        exp = [0, 0, 0, 0]
        exp[index] = 1
        return Polynomial({tuple(exp): GAUSS_ONE}, view)

    @staticmethod
    def monomial(exponents: Exponents, coeff, view: str) -> "Polynomial":
        return Polynomial({tuple(exponents): _coerce_coeff(coeff)}, view)

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree (-1 for the zero polynomial)."""
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(exp) for exp in self.terms}
        return len(degs) <= 1

    def terms_sorted(self) -> list[tuple[Exponents, GaussianRational]]:
        return sorted(self.terms.items(), key=_term_order)

    def coefficient(self, exponents: Exponents) -> GaussianRational:
        return self.terms.get(tuple(exponents), GAUSS_ZERO)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        other = self._same_view(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, GAUSS_ZERO) + c
            if s.is_zero():
                out.pop(exp, None)
            else:
                out[exp] = s
        return Polynomial(out, self.view)

    def __neg__(self) -> "Polynomial":
        return Polynomial({e: -c for e, c in self.terms.items()}, self.view)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        other = self._same_view(other)
        out: dict[Exponents, GaussianRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                s = out.get(exp, GAUSS_ZERO) + c1 * c2
                if s.is_zero():
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return Polynomial(out, self.view)

    def __rmul__(self, other) -> "Polynomial":
        return self * other

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(1, self.view)
        for _ in range(n):
            result = result * self
        return result

    def scale(self, c) -> "Polynomial":
        c = _coerce_coeff(c)
        if c.is_zero():
            return Polynomial.zero(self.view)
        return Polynomial({e: coeff * c for e, coeff in self.terms.items()}, self.view)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.in_view(self.view).terms

    def __hash__(self):
        # hash the canonical z form so cross-view equality stays consistent
        return hash(tuple(self.in_view(Z_VIEW).terms_sorted()))

    def _same_view(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        return other.in_view(self.view)

    # -- view conversion -------------------------------------------------

    def in_view(self, target: str) -> "Polynomial":
        if target == self.view:
            return self
        subs = _substitution_polys(self.view, target)
        out = Polynomial.zero(target)
        for exp, coeff in self.terms.items():
            term = Polynomial.constant(coeff, target)
            for var, e in enumerate(exp):
                for _ in range(e):
                    term = term * subs[var]
            out = out + term
        return out

    # -- calculus ----------------------------------------------------------

    def partial(self, j: int) -> "Polynomial":
        """Formal partial derivative with respect to the j-th variable of
        this polynomial's own view."""
        out: dict[Exponents, GaussianRational] = {}
        for exp, coeff in self.terms.items():
            e = exp[j]
            if e == 0:
                continue
            new = list(exp)
            new[j] = e - 1
            key = tuple(new)
            s = out.get(key, GAUSS_ZERO) + coeff * e
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return Polynomial(out, self.view)

    def conjugate(self) -> "Polynomial":
        """Complex conjugate of the polynomial as a function on R^4."""
        if self.view == X_VIEW:
            return Polynomial({e: c.conjugate() for e, c in self.terms.items()}, X_VIEW)
        # In the z view: conj swaps z2 <-> conj(z2) and sends -z1 <-> conj(z1)
        # up to a sign on each of the last two generators.
        out: dict[Exponents, GaussianRational] = {}
        for (a, b, c, d), coeff in self.terms.items():
            sign = -1 if (c + d) % 2 else 1
            key = (b, a, d, c)
            val = coeff.conjugate() * sign
            s = out.get(key, GAUSS_ZERO) + val
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return Polynomial(out, Z_VIEW)

    def evaluate(self, point) -> GaussianRational:
        """Exact evaluation at a rational point (x0, x1, x2, x3)."""
        x = [Fraction(t) for t in point]
        if self.view == X_VIEW:
            values = [gauss(t) for t in x]
        else:
            z1 = GaussianRational(x[0], x[1])
            z2 = GaussianRational(x[2], x[3])
            values = [z2, z2.conjugate(), -z1, z1.conjugate()]
        total = GAUSS_ZERO
        for exp, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exp):
                for _ in range(e):
                    term = term * v
            total = total + term
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = ("x0", "x1", "x2", "x3") if self.view == X_VIEW else ("u0", "u1", "u2", "u3")
        parts = []
        for exp, coeff in self.terms_sorted():
            mono = "*".join(f"{n}^{e}" for n, e in zip(names, exp) if e) or "1"
            parts.append(f"({coeff})*{mono}")
        return " + ".join(parts)

    # -- JSON ---------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "view": self.view,
            "terms": [
                {"exp": list(exp), "coeff": coeff.to_json()}
                for exp, coeff in self.terms_sorted()
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "Polynomial":
        terms = {
            tuple(t["exp"]): GaussianRational.from_json(t["coeff"])
            for t in obj["terms"]
        }
        return Polynomial(terms, obj["view"])


def _coerce_coeff(c) -> GaussianRational:
    if isinstance(c, GaussianRational):
        return c
    if isinstance(c, (int, Fraction)):
        return gauss(c)
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


# Degree-one generators of the z view and the real coordinates.
G2 = Polynomial.variable(0, Z_VIEW)       # z2
G2_BAR = Polynomial.variable(1, Z_VIEW)   # conj(z2)
GM1 = Polynomial.variable(2, Z_VIEW)      # -z1
G1_BAR = Polynomial.variable(3, Z_VIEW)   # conj(z1)
X0 = Polynomial.variable(0, X_VIEW)
X1 = Polynomial.variable(1, X_VIEW)
X2 = Polynomial.variable(2, X_VIEW)
X3 = Polynomial.variable(3, X_VIEW)

_I = gauss(0, 1)
_HALF = gauss(Fraction(1, 2))

# z generators written in x coordinates: z2 = x2 + i x3, -z1 = -x0 - i x1, ...
_Z_IN_X = (
    X2 + X3.scale(_I),
    X2 - X3.scale(_I),
    -X0 - X1.scale(_I),
    X0 - X1.scale(_I),
)
# x coordinates written in z generators: x0 = (conj(z1) - (-z1))/2, ...
_X_IN_Z = (
    (G1_BAR - GM1).scale(_HALF),
    (GM1 + G1_BAR).scale(_I * _HALF),
    (G2 + G2_BAR).scale(_HALF),
    (G2_BAR - G2).scale(_I * _HALF),
)


def _substitution_polys(source: str, target: str):
    if source == Z_VIEW and target == X_VIEW:
        return _Z_IN_X
    if source == X_VIEW and target == Z_VIEW:
        return _X_IN_Z
    raise ValueError(f"no conversion from {source!r} to {target!r}")


# -- the flat Laplacian -------------------------------------------------------

# The Laplacian as weighted second derivatives (i, j, w) in each view's
# variables: sum_j d_j^2 in x, and 4(d_u0 d_u1 - d_u2 d_u3) in z, because
# d_z d_zbar = (1/4)(d_re^2 + d_im^2) and u2 = -z1.
_LAPLACIAN = {
    X_VIEW: ((0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)),
    Z_VIEW: ((0, 1, 4), (2, 3, -4)),
}


def laplacian_r4(p: Polynomial) -> Polynomial:
    """Flat Laplacian on R^4, exact, computed in p's own view."""
    acc: dict = {}
    for exp, coeff in p.terms.items():
        for i, j, w in _LAPLACIAN[p.view]:
            factor = exp[i] * (exp[j] - (i == j)) * w
            if not factor:
                continue
            key = list(exp)
            key[i] -= 1
            key[j] -= 1
            key = tuple(key)
            re, im = coeff.re * factor, coeff.im * factor
            part = acc.get(key)
            if part is None:
                acc[key] = [re, im]
            else:
                part[0] += re
                part[1] += im
    return Polynomial(
        {key: GaussianRational(re, im) for key, (re, im) in acc.items() if re or im},
        p.view,
    )


@lru_cache(maxsize=None)
def _basis_product_split(r: int, i: int) -> tuple[GaussianRational, GaussianRational]:
    """complex_split(e_r * e_i), computed once per (r, i)."""
    return complex_split(quat_multiply(BASIS[r], BASIS[i]))


class SpinorSection:
    """A quaternion-valued polynomial map, stored as the complex pair (f, g).

    The value at x is ftilde(x)*e0 + gtilde(x)*e2 where a complex scalar
    a + b*i acts as left multiplication by a + b*e1.
    """

    __slots__ = ("f", "g", "degree")

    def __init__(self, f: Polynomial, g: Polynomial, degree: Optional[int] = None):
        self.f = f
        self.g = g
        if degree is None:
            degree = self._infer_degree()
        self.degree = degree

    def _infer_degree(self) -> Optional[int]:
        degs = set()
        for comp in (self.f, self.g):
            if not comp.is_zero():
                if not comp.is_homogeneous():
                    return None
                degs.add(comp.degree())
        if len(degs) == 1:
            return degs.pop()
        if not degs:
            return 0
        return None

    @staticmethod
    def zero(view: str = Z_VIEW) -> "SpinorSection":
        return SpinorSection(Polynomial.zero(view), Polynomial.zero(view), 0)

    def is_zero(self) -> bool:
        return self.f.is_zero() and self.g.is_zero()

    def __add__(self, other: "SpinorSection") -> "SpinorSection":
        return SpinorSection(self.f + other.f, self.g + other.g)

    def __sub__(self, other: "SpinorSection") -> "SpinorSection":
        return SpinorSection(self.f - other.f, self.g - other.g)

    def __neg__(self) -> "SpinorSection":
        return SpinorSection(-self.f, -self.g, self.degree)

    def scale(self, c) -> "SpinorSection":
        return SpinorSection(self.f.scale(c), self.g.scale(c), self.degree)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpinorSection):
            return NotImplemented
        return self.f == other.f and self.g == other.g

    def __hash__(self):
        return hash((self.f, self.g))

    def right_mul_basis(self, i: int) -> "SpinorSection":
        """Right quaternion multiplication of the section's values by e_i.

        The coefficient shuffle is derived from the actual quaternion
        products e_r * e_i rather than hard-coded.
        """
        new_f = Polynomial.zero(self.f.view)
        new_g = Polynomial.zero(self.g.view)
        for comp, r in ((self.f, 0), (self.g, 2)):
            if comp.is_zero():
                continue
            alpha, beta = _basis_product_split(r, i)
            if not alpha.is_zero():
                new_f = new_f + comp.scale(alpha)
            if not beta.is_zero():
                new_g = new_g + comp.scale(beta)
        return SpinorSection(new_f, new_g, self.degree)

    def evaluate(self, point) -> RationalQuaternion:
        return assemble(self.f.evaluate(point), self.g.evaluate(point))

    def __repr__(self) -> str:
        return f"SpinorSection(f={self.f!r}, g={self.g!r})"

    # -- JSON -------------------------------------------------------------

    def to_json(self) -> dict:
        return {"k": self.degree, "f": self.f.to_json(), "g": self.g.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "SpinorSection":
        return SpinorSection(
            Polynomial.from_json(obj["f"]),
            Polynomial.from_json(obj["g"]),
            obj.get("k"),
        )
