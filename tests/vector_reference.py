"""A reference for the integer core of ``repspace`` and ``abstract_dirac``.

A reference vector is a plain ``dict`` from a key (a ket index p, or an
``(r, p)`` pair for the spinor slice) to an ``(re, im)`` pair of
``Fraction``s, with no zero entries.  The operators are written out from
the formulas in the module docstrings of ``repspace`` and
``abstract_dirac``.  Nothing here imports ``spinor_s3``; the tests convert.
"""

import random
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
I = (Fraction(0), Fraction(1))
HALF = (Fraction(1, 2), Fraction(0))
I_HALF = (Fraction(0), Fraction(1, 2))


def _clean(d):
    return {key: c for key, c in d.items() if c[0] or c[1]}


def cmul(c, d):
    return (c[0] * d[0] - c[1] * d[1], c[0] * d[1] + c[1] * d[0])


def add(a, b, sign=1):
    out = dict(a)
    for key, (x, y) in b.items():
        u, v = out.get(key, ZERO)
        out[key] = (u + sign * x, v + sign * y)
    return _clean(out)


def scale(a, c):
    return _clean({key: cmul(v, c) for key, v in a.items()})


def _accumulate(pairs):
    """Sum (key, coefficient) pairs into a reference vector."""
    out = {}
    for key, c in pairs:
        u, v = out.get(key, ZERO)
        out[key] = (u + c[0], v + c[1])
    return _clean(out)


def apply_l(i, a, k):
    """l1 |p> = (2p-k) i |p>, l2 |p> = (p-k)|p+1> + p|p-1>,
    l3 |p> = (p-k) i |p+1> - p i |p-1>, with |-1> = |k+1> = 0."""
    pairs = []
    for p, c in a.items():
        if i == 1:
            pairs.append((p, cmul(c, (0, 2 * p - k))))
        elif i == 2:
            pairs += [(p + 1, cmul(c, (p - k, 0))), (p - 1, cmul(c, (p, 0)))]
        else:
            pairs += [(p + 1, cmul(c, (0, p - k))), (p - 1, cmul(c, (0, -p)))]
    return {p: c for p, c in _accumulate(pairs).items() if 0 <= p <= k}


def apply_sl2(which, a, k):
    """H = i l1, X = (l2 + i l3)/2, Y = (-l2 + i l3)/2."""
    if which == "H":
        return scale(apply_l(1, a, k), I)
    l2 = scale(apply_l(2, a, k), HALF)
    l3 = scale(apply_l(3, a, k), I_HALF)
    return add(l3, l2, 1 if which == "X" else -1)


def dbar(a, k):
    """Dbar(e0 |p>) = (2p-k) e0 |p> - 2p e2 |p-1>,
    Dbar(e2 |p>) = -(2p-k) e2 |p> - 2(k-p) e0 |p+1>."""
    pairs = []
    for (r, p), c in a.items():
        if r == 0:
            pairs += [((0, p), cmul(c, (2 * p - k, 0))), ((2, p - 1), cmul(c, (-2 * p, 0)))]
        else:
            pairs += [((2, p), cmul(c, (k - 2 * p, 0))), ((0, p + 1), cmul(c, (-2 * (k - p), 0)))]
    return {(r, p): c for (r, p), c in _accumulate(pairs).items() if 0 <= p <= k}


def random_coeff(rng: random.Random):
    """Mixed non-unit denominators on both parts."""
    return (
        Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9, 12))),
        Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5, 8, 15))),
    )


def random_vector(rng: random.Random, keys, fill=0.7):
    return _clean({key: random_coeff(rng) for key in keys if rng.random() < fill})


def half_cancelling(rng: random.Random, a, keys):
    """A vector whose sum with ``a`` cancels about half of a's entries and
    turns some others into values with a smaller denominator."""
    out = {}
    for key in keys:
        if key in a and rng.random() < 0.5:
            out[key] = (-a[key][0], -a[key][1])
        elif key in a and rng.random() < 0.5:
            # a + this = 1/2 + i/3, over a smaller denominator
            x, y = a[key]
            out[key] = (Fraction(1, 2) - x, Fraction(1, 3) - y)
        elif rng.random() < 0.5:
            out[key] = random_coeff(rng)
    return _clean(out)
