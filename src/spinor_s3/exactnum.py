"""Exact scalars: rationals, Gaussian rationals and rational quaternions.

Everything in this module is immutable and computes without rounding.
Rationals are plain ``fractions.Fraction`` (already stored reduced, with a
positive denominator), so equality is structural everywhere.

The quaternion basis is written e0, e1, e2, e3 with the multiplication
rules e1*e2 = e3, e2*e3 = e1, e3*e1 = e2 and ei*ei = -e0 for i = 1..3.
A quaternion is identified with a pair of complex numbers through the
basis (e0, e2); the complex scalar a + b*i acts by left multiplication
with a + b*e1.

The exact vectors of the other modules (``Polynomial``, ``KetVector``,
``SpinorVector``) do not store ``GaussianRational``s: each subclasses
:class:`GaussParts`, which keeps Gaussian integers ``(re, im)`` over one
shared positive denominator and does their vector-space arithmetic.  The
helpers before it (``gauss_parts``, ``gauss_over``, ``reduce_parts``,
``add_parts``, ``scale_parts``) convert at the edge and keep that form
canonical.

The library's small immutable records, here and in the other modules,
subclass :class:`Record`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import attrgetter
from typing import Union

RationalLike = Union[int, Fraction]


def rational_to_str(r: Fraction) -> str:
    """Encode a rational as ``"num/den"`` (den always present, e.g. "-3/2")."""
    return f"{r.numerator}/{r.denominator}"


def ratio_to_str(num: int, den: int) -> str:
    """``rational_to_str`` of the rational num/den, for ints with den > 0."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


class Record:
    """An immutable record of the fields that its subclass names, in order,
    in ``_fields`` and keeps in ``__slots__``.  It is built from the field
    values by position, equals a record of its own class with equal fields,
    hashes as the tuple of its fields and is copied and pickled through its
    constructor: what ``@dataclass(frozen=True)`` gives, without generating
    code when a module is imported."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the tuple of the field values, read in C
        cls._values = property(attrgetter(*cls._fields))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields, "
                            f"got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _replace(self, **changes):
        """A copy with the named fields changed."""
        unknown = changes.keys() - set(self._fields)
        if unknown:
            raise TypeError(f"{type(self).__name__} has no field {', '.join(sorted(unknown))}")
        return type(self)(*(changes.get(name, value)
                            for name, value in zip(self._fields, self._values)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __reduce__(self):
        return type(self), self._values

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__name__}({fields})"


class GaussianRational(Record):
    """A complex number with rational real and imaginary parts."""

    __slots__ = _fields = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction):
        # Wrap only what is not a Fraction already; ints and floats are
        # converted exactly (Fraction(0.5) == 1/2).
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        other = _coerce_gauss(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return self + (-_coerce_gauss(other))

    def __rsub__(self, other) -> "GaussianRational":
        return _coerce_gauss(other) + (-self)

    def __mul__(self, other) -> "GaussianRational":
        other = _coerce_gauss(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        other = _coerce_gauss(other)
        n = other.norm_squared()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * other.conjugate() * GaussianRational(Fraction(1, 1) / n, 0)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"({self.re})+({self.im})i"


def gauss(re: RationalLike = 0, im: RationalLike = 0) -> GaussianRational:
    """Shorthand constructor for a Gaussian rational."""
    return GaussianRational(Fraction(re), Fraction(im))


def _coerce_gauss(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(Fraction(x), Fraction(0))
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")


GAUSS_ZERO = gauss(0)
GAUSS_ONE = gauss(1)
GAUSS_I = gauss(0, 1)


# -- Gaussian integers over a common denominator ----------------------------
#
# Used by ``GaussParts`` and ``linalg``.  A map of Gaussian integers over
# den > 0 is canonical when it has no zero entry and gcd(den, every part) =
# 1, so zero is ({}, 1) and equal values have equal parts.

#: A Gaussian integer re + im*i.
GaussInt = tuple[int, int]


def parts_over(c: GaussianRational, den: int) -> GaussInt:
    """The numerators of c's parts over den, a multiple of both their
    denominators."""
    return c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator)


def gauss_parts(c) -> tuple[int, int, int]:
    """A scalar as ints (re, im, den) with c = (re + im*i)/den, den > 0 and
    den the lcm of the parts' denominators."""
    if isinstance(c, int):
        return c, 0, 1
    if isinstance(c, Fraction):
        return c.numerator, 0, c.denominator
    c = _coerce_gauss(c)
    den = lcm(c.re.denominator, c.im.denominator)
    return (*parts_over(c, den), den)


def gauss_over(re: int, im: int, den: int) -> GaussianRational:
    """The Gaussian rational (re + im*i)/den."""
    if not re and not im:
        return GAUSS_ZERO
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def reduce_parts(num: dict, den: int) -> tuple[dict, int]:
    """The canonical form of the Gaussian integers ``num`` (any keys) over
    ``den > 0``: zero entries dropped and the common factor of den and all
    parts divided out, so zero is ``({}, 1)``.  When nothing changes, the
    input dict itself is returned, so callers pass a dict they no longer
    mutate."""
    if (0, 0) in num.values():
        num = {key: c for key, c in num.items() if c[0] or c[1]}
    if den != 1:
        g = gcd(den, *chain.from_iterable(num.values()))
        if g != 1:
            den //= g
            num = {key: (re // g, im // g) for key, (re, im) in num.items()}
    return num, den


def add_parts(a: dict, da: int, b: dict, db: int, sign: int = 1) -> tuple[dict, int]:
    """``a/da + sign*b/db`` for sign = +-1, canonical when both operands are.
    An operand that is returned unchanged is not copied."""
    if not b:
        return a, da
    if not a:
        if sign == 1:
            return b, db
        return {key: (-re, -im) for key, (re, im) in b.items()}, db
    den = da if da == db else lcm(da, db)
    s1, s2 = den // da, sign * (den // db)
    if s1 == 1:
        out = dict(a)
    else:
        out = {key: (re * s1, im * s1) for key, (re, im) in a.items()}
    for key, (re, im) in b.items():
        c = out.get(key)
        if c is None:
            out[key] = (re * s2, im * s2)
        else:
            out[key] = (c[0] + re * s2, c[1] + im * s2)
    return reduce_parts(out, den)


def scale_parts(a: dict, den: int, cr: int, ci: int, cd: int) -> tuple[dict, int]:
    """``a/den`` times ``(cr + ci*i)/cd`` with cd > 0, canonical when
    ``a/den`` is."""
    if cd == 1 and cr * cr + ci * ci == 1:
        # a unit only negates or swaps the parts: still canonical
        if cr == 1:
            return a, den
        if cr == -1:
            return {key: (-re, -im) for key, (re, im) in a.items()}, den
        if ci == 1:
            return {key: (-im, re) for key, (re, im) in a.items()}, den
        return {key: (im, -re) for key, (re, im) in a.items()}, den
    if not (cr or ci):
        return {}, 1
    if not ci:
        out = {key: (re * cr, im * cr) for key, (re, im) in a.items()}
    else:
        out = {key: (re * cr - im * ci, re * ci + im * cr) for key, (re, im) in a.items()}
    return reduce_parts(out, den * cd)


class GaussParts:
    """An exact vector: canonical Gaussian-integer parts ``_num`` (a dict
    keyed by the subclass's basis labels) over ``_den``, in the space that
    the tuple ``_space`` of the subclass's fields names.  Two vectors are
    equal when their spaces and parts are; vectors of different spaces do
    not combine.  Kernels read ``_num``/``_den`` and build results with
    :meth:`_of`."""

    __slots__ = ("_num", "_den", "_space")

    def __init__(self, items, *space):
        """The vector sum of ``(key, scalar)`` pairs (a key may repeat);
        scalars are ints, Fractions or GaussianRationals."""
        parts = [(key, *gauss_parts(c)) for key, c in items]
        den = lcm(*(d for *_, d in parts))
        num: dict = {}
        for key, re, im, d in parts:
            s = den // d
            c = num.get(key)
            num[key] = (re * s, im * s) if c is None else (c[0] + re * s, c[1] + im * s)
        self._num, self._den = reduce_parts(num, den)
        self._space = space

    @classmethod
    def _of(cls, num: dict, den: int, *space):
        """A vector on parts that are already canonical, unchecked."""
        v = object.__new__(cls)
        v._num = num
        v._den = den
        v._space = space
        return v

    @property
    def terms(self) -> dict:
        """The nonzero entries as Gaussian rationals (a new dict)."""
        den = self._den
        return {key: gauss_over(re, im, den) for key, (re, im) in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def _same_space(self, other):
        """``other``, refused unless it is a vector of this space."""
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other._space != self._space:
            raise ValueError(f"{type(self).__name__}s of different spaces: "
                             f"{self._space} and {other._space}")
        return other

    def __add__(self, other):
        other = self._same_space(other)
        return self._of(*add_parts(self._num, self._den, other._num, other._den), *self._space)

    def __sub__(self, other):
        other = self._same_space(other)
        return self._of(*add_parts(self._num, self._den, other._num, other._den, -1),
                        *self._space)

    def __neg__(self):
        return self._of(*scale_parts(self._num, self._den, -1, 0, 1), *self._space)

    def scale(self, c):
        return self._of(*scale_parts(self._num, self._den, *gauss_parts(c)), *self._space)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self._space == other._space and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((self._space, self._den, frozenset(self._num.items())))


class RationalQuaternion(Record):
    """A quaternion c0*e0 + c1*e1 + c2*e2 + c3*e3 with rational components."""

    __slots__ = _fields = ("c0", "c1", "c2", "c3")

    def __init__(self, c0: Fraction, c1: Fraction, c2: Fraction, c3: Fraction):
        for name, c in zip(self._fields, (c0, c1, c2, c3)):
            object.__setattr__(self, name, Fraction(c))

    def components(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.c0, self.c1, self.c2, self.c3)

    def __add__(self, other: "RationalQuaternion") -> "RationalQuaternion":
        return RationalQuaternion(
            self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2, self.c3 + other.c3
        )

    def __neg__(self) -> "RationalQuaternion":
        return RationalQuaternion(-self.c0, -self.c1, -self.c2, -self.c3)

    def __sub__(self, other: "RationalQuaternion") -> "RationalQuaternion":
        return self + (-other)

    def __mul__(self, other) -> "RationalQuaternion":
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            return RationalQuaternion(self.c0 * s, self.c1 * s, self.c2 * s, self.c3 * s)
        return quat_multiply(self, other)

    def __rmul__(self, other) -> "RationalQuaternion":
        if isinstance(other, (int, Fraction)):
            return self * other
        return quat_multiply(other, self)

    def norm_form(self) -> Fraction:
        """The multiplicative norm c0^2 + c1^2 + c2^2 + c3^2."""
        return self.c0**2 + self.c1**2 + self.c2**2 + self.c3**2

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.components())

    def __repr__(self) -> str:
        return f"quat({self.c0}, {self.c1}, {self.c2}, {self.c3})"


def quat(c0=0, c1=0, c2=0, c3=0) -> RationalQuaternion:
    return RationalQuaternion(Fraction(c0), Fraction(c1), Fraction(c2), Fraction(c3))


E0 = quat(1, 0, 0, 0)
E1 = quat(0, 1, 0, 0)
E2 = quat(0, 0, 1, 0)
E3 = quat(0, 0, 0, 1)

#: Imaginary basis, indexed 1..3 (index 0 is the identity e0).
BASIS = (E0, E1, E2, E3)


def hamilton(a: tuple, b: tuple) -> tuple:
    """Hamilton product, with the convention e1*e2 = e3, of two quaternions
    given by their components (c0, c1, c2, c3) in any exact number type."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 + a2 * b0 + a3 * b1 - a1 * b3,
        a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1,
    )


def quat_multiply(a: RationalQuaternion, b: RationalQuaternion) -> RationalQuaternion:
    """Hamilton product with the convention e1*e2 = e3."""
    return RationalQuaternion(*hamilton(a.components(), b.components()))


def complex_split(q: RationalQuaternion) -> tuple[GaussianRational, GaussianRational]:
    """Split q into its complex components along the basis (e0, e2).

    Returns (f, g) with q = (f.re + f.im*e1)*e0 + (g.re + g.im*e1)*e2.
    """
    return (
        GaussianRational(q.c0, q.c1),
        GaussianRational(q.c2, q.c3),
    )


def assemble(f: GaussianRational, g: GaussianRational) -> RationalQuaternion:
    """Inverse of :func:`complex_split`."""
    return RationalQuaternion(f.re, f.im, g.re, g.im)


def clifford_multiply(q: RationalQuaternion, i: int) -> RationalQuaternion:
    """Clifford action of the i-th imaginary direction on a spinor value.

    On the trivialised spinor bundle this is right multiplication by -e_i;
    applying it twice with the same i gives -q.
    """
    if i not in (1, 2, 3):
        raise ValueError(f"axis index must be 1, 2 or 3, got {i}")
    return quat_multiply(q, -BASIS[i])
