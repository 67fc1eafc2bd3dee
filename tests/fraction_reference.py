"""A reference polynomial ring for testing the integer core of ``polyring``.

A reference polynomial is a plain ``dict`` from exponent tuples to
``(re, im)`` pairs of ``Fraction``s with no zero entries.  The arithmetic
below never touches ``Polynomial``; only the converters at the end do.
"""

import math
import random
from fractions import Fraction
from itertools import chain

from spinor_s3.exactnum import GaussianRational
from spinor_s3.polyring import Polynomial

ZERO = (Fraction(0), Fraction(0))


def _clean(d):
    return {e: c for e, c in d.items() if c[0] or c[1]}


def cmul(c, d):
    return (c[0] * d[0] - c[1] * d[1], c[0] * d[1] + c[1] * d[0])


def add(a, b, sign=1):
    out = dict(a)
    for e, (x, y) in b.items():
        u, v = out.get(e, ZERO)
        out[e] = (u + sign * x, v + sign * y)
    return _clean(out)


def scale(a, c):
    return _clean({e: cmul(v, c) for e, v in a.items()})


def mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            x, y = cmul(c1, c2)
            u, v = out.get(e, ZERO)
            out[e] = (u + x, v + y)
    return _clean(out)


def partial(a, j):
    out = {}
    for e, (x, y) in a.items():
        if e[j]:
            k = list(e)
            k[j] -= 1
            out[tuple(k)] = (x * e[j], y * e[j])
    return out


def unit(j):
    """The variable u_j (or x_j)."""
    return tuple(int(n == j) for n in range(4))


def derivative(a, matrix):
    """sum_m d_m a * (sum_j matrix[m][j] v_j), the derivative along the
    linear field v_m -> sum_j matrix[m][j] v_j by the product rule; the
    entries are complex pairs."""
    out = {}
    for m, row in enumerate(matrix):
        field = _clean({unit(j): c for j, c in enumerate(row)})
        out = add(out, mul(partial(a, m), field))
    return out


def substitute(a, images):
    """Replace variable j by the reference polynomial images[j]."""
    out = {}
    for e, c in a.items():
        term = {(0, 0, 0, 0): c}
        for j, n in enumerate(e):
            for _ in range(n):
                term = mul(term, images[j])
        out = add(out, term)
    return out


def conjugate(a, view):
    """Complex conjugation of the function: conjugate each coefficient, and
    in the z view substitute conj(z2) = u1, conj(conj z2) = u0,
    conj(-z1) = -u3 and conj(conj z1) = -u2."""
    conj = {e: (x, -y) for e, (x, y) in a.items()}
    if view == "x":
        return conj
    one, minus_one = (Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))
    images = [{unit(1): one}, {unit(0): one}, {unit(3): minus_one}, {unit(2): minus_one}]
    return substitute(conj, images)


def laplacian(a, view):
    """sum_j d_j^2 in x; 4(d_u0 d_u1 - d_u2 d_u3) in z."""
    if view == "x":
        out = {}
        for j in range(4):
            out = add(out, partial(partial(a, j), j))
        return out
    diff = add(partial(partial(a, 0), 1), partial(partial(a, 2), 3), -1)
    return scale(diff, (Fraction(4), Fraction(0)))


def evaluate(a, values):
    """Value at the point where variable j takes the complex pair values[j]."""
    total = ZERO
    for e, c in a.items():
        for v, n in zip(values, e):
            for _ in range(n):
                c = cmul(c, v)
        total = (total[0] + c[0], total[1] + c[1])
    return total


def random_ref(rng: random.Random, max_degree=4, n_terms=6):
    """Random terms with mixed non-unit denominators."""
    out = {}
    for _ in range(n_terms):
        exp = [0, 0, 0, 0]
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(4)] += 1
        out[tuple(exp)] = (
            Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9, 12))),
            Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5, 8, 15))),
        )
    return _clean(out)


# -- converters to and from the library -----------------------------------------


def to_poly(a, view):
    return Polynomial({e: GaussianRational(x, y) for e, (x, y) in a.items()}, view)


def as_ref(p):
    return {e: (c.re, c.im) for e, c in p.terms.items()}


def assert_canonical(p):
    """Integer parts over a positive denominator, no zero term, nothing
    left to cancel (so zero is ({}, 1))."""
    assert type(p._den) is int and p._den >= 1
    assert all(type(x) is int for x in chain.from_iterable(p._num.values()))
    assert all(c != (0, 0) for c in p._num.values())
    assert math.gcd(p._den, *chain.from_iterable(p._num.values())) == 1
