"""The Gaussian-integer core of ``KetVector`` and ``SpinorVector`` against
the ``Fraction`` reference in ``vector_reference``: on seeded random
vectors with mixed non-unit denominators and half-cancelling sums, every
result equals the reference and is in canonical form.  ``SpinorSection``,
the core's third member, is checked for one representation per value and
for its one denominator."""

import math
import operator
import random
from fractions import Fraction
from itertools import chain

import pytest

import vector_reference as ref
from spinor_s3.abstract_dirac import SpinorVector, dbar_apply
from spinor_s3.exactnum import GaussianRational, gauss
from spinor_s3.polyring import X_VIEW, Z_VIEW, Polynomial, SpinorSection
from spinor_s3.repspace import KetVector, apply_l, apply_sl2

SEEDS = range(8)

#: ±1, ±i, 0, an int, a Fraction and two GaussianRationals.
SCALARS = (
    1, -1, gauss(0, 1), gauss(0, -1), 0, 6, Fraction(-5, 6),
    gauss(Fraction(1, 2), Fraction(-2, 3)), gauss(Fraction(3, 4)),
)


def scalar_ref(c):
    if isinstance(c, GaussianRational):
        return (c.re, c.im)
    return (Fraction(c), Fraction(0))


def spinor_keys(k):
    return [(r, p) for r in (0, 2) for p in range(k + 1)]


# -- converters -------------------------------------------------------------------


def to_ket(a, k):
    return KetVector(k, [GaussianRational(*a.get(p, ref.ZERO)) for p in range(k + 1)])


def ket_ref(v):
    return {p: (c.re, c.im) for p, c in enumerate(v.coeffs) if not c.is_zero()}


def to_spinor(a, k):
    return SpinorVector(k, tuple((key, GaussianRational(*c)) for key, c in a.items()))


def spinor_ref(v):
    return {key: (c.re, c.im) for key, c in v.coeffs}


def section_keys(k):
    """(r, exp) for r in {0, 2} and the degree-k monomials in u0, u1, u2."""
    return [(r, (a, b, k - a - b, 0)) for r in (0, 2) for a in range(k + 1) for b in range(k + 1 - a)]


def to_section(a, view=Z_VIEW):
    f, g = (Polynomial({exp: GaussianRational(*c) for (s, exp), c in a.items() if s == r}, view)
            for r in (0, 2))
    return SpinorSection(f, g)


def assert_canonical(v):
    """Integer parts over a positive denominator, no zero entry, nothing
    left to cancel (so zero is ({}, 1))."""
    assert type(v._den) is int and v._den >= 1
    assert all(type(x) is int for x in chain.from_iterable(v._num.values()))
    assert all(c != (0, 0) for c in v._num.values())
    assert math.gcd(v._den, *chain.from_iterable(v._num.values())) == 1


def check_ket(v, expected):
    assert_canonical(v)
    assert ket_ref(v) == expected


def check_spinor(v, expected):
    assert_canonical(v)
    assert spinor_ref(v) == expected


# -- arithmetic ---------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_ket_arithmetic_matches_reference(seed):
    rng = random.Random(seed)
    k = rng.randint(0, 7)
    keys = range(k + 1)
    a = ref.random_vector(rng, keys)
    b = ref.half_cancelling(rng, a, keys)
    va, vb = to_ket(a, k), to_ket(b, k)
    check_ket(va, a)
    check_ket(va + vb, ref.add(a, b))
    check_ket(va - vb, ref.add(a, b, -1))
    check_ket(vb - vb.scale(-1).scale(-1), {})
    check_ket(-va, ref.scale(a, (Fraction(-1), Fraction(0))))
    for c in SCALARS:
        check_ket(va.scale(c), ref.scale(a, scalar_ref(c)))


@pytest.mark.parametrize("seed", SEEDS)
def test_spinor_arithmetic_matches_reference(seed):
    rng = random.Random(100 + seed)
    k = rng.randint(0, 6)
    keys = spinor_keys(k)
    a = ref.random_vector(rng, keys)
    b = ref.half_cancelling(rng, a, keys)
    va, vb = to_spinor(a, k), to_spinor(b, k)
    check_spinor(va, a)
    check_spinor(va + vb, ref.add(a, b))
    check_spinor(va - vb, ref.add(a, b, -1))
    check_spinor(va - va, {})
    for c in SCALARS:
        check_spinor(va.scale(c), ref.scale(a, scalar_ref(c)))


def test_half_cancelling_sums_reduce_the_denominator():
    # the generator must really exercise the renormalization
    rng = random.Random(3)
    seen = False
    for _ in range(20):
        keys = spinor_keys(4)
        a = ref.random_vector(rng, keys)
        b = ref.half_cancelling(rng, a, keys)
        va, vb = to_spinor(a, 4), to_spinor(b, 4)
        seen = seen or (va + vb)._den < math.lcm(va._den, vb._den)
    assert seen


# -- operators ------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_apply_l_and_sl2_match_reference(seed):
    rng = random.Random(200 + seed)
    k = rng.randint(0, 7)
    keys = range(k + 1)
    a = ref.random_vector(rng, keys)
    b = ref.add(a, ref.half_cancelling(rng, a, keys))
    for vec in (a, b, {0: ref.ONE}, {k: ref.ONE}):
        v = to_ket(vec, k)
        for i in (1, 2, 3):
            check_ket(apply_l(i, v), ref.apply_l(i, vec, k))
        for which in ("H", "X", "Y"):
            check_ket(apply_sl2(which, v), ref.apply_sl2(which, vec, k))


@pytest.mark.parametrize("seed", SEEDS)
def test_dbar_apply_matches_reference(seed):
    rng = random.Random(300 + seed)
    k = rng.randint(0, 6)
    keys = spinor_keys(k)
    a = ref.random_vector(rng, keys)
    b = ref.add(a, ref.half_cancelling(rng, a, keys))
    boundary = {(0, 0): ref.ONE, (2, k): ref.I, (0, k): ref.HALF, (2, 0): ref.I_HALF}
    for vec in (a, b, boundary):
        check_spinor(dbar_apply(to_spinor(vec, k)), ref.dbar(vec, k))


# -- one representation -------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_each_value_has_one_representation(seed):
    rng = random.Random(400 + seed)
    k = rng.randint(0, 6)
    ket = to_ket(ref.random_vector(rng, range(k + 1)), k)
    spinor = to_spinor(ref.random_vector(rng, spinor_keys(k)), k)
    other = to_spinor(ref.random_vector(rng, spinor_keys(k)), k)
    section_parts = ref.random_vector(rng, section_keys(k))
    section = to_section(section_parts)
    other_section = to_section(ref.random_vector(rng, section_keys(k)))
    for v in (ket, spinor, section):
        for w in (v.scale(Fraction(1, 3)).scale(3), v.scale(gauss(0, 1)).scale(gauss(0, -1))):
            assert w == v and hash(w) == hash(v)
            assert (w._num, w._den) == (v._num, v._den)
    for v, o in ((spinor, other), (section, other_section)):
        w = (v + o) - o
        assert (w._num, w._den) == (v._num, v._den) and hash(w) == hash(v)
    # the same parts in another space are another value
    assert KetVector.zero(k) != KetVector.zero(k + 1)
    at_k1 = SpinorVector(k + 1, spinor.coeffs)
    assert (at_k1._num, at_k1._den) == (spinor._num, spinor._den) and at_k1 != spinor
    # equal values hash equal, however they were built
    reordered = SpinorVector(k + 1, reversed(spinor.coeffs))
    assert reordered == at_k1 and hash(reordered) == hash(at_k1)
    in_x = to_section(section_parts, X_VIEW)
    assert (in_x._num, in_x._den) == (section._num, section._den) and in_x != section
    zero = Polynomial.zero(Z_VIEW)
    summed = SpinorSection(section.f, zero) + SpinorSection(zero, section.g)
    assert summed == section and hash(summed) == hash(section)


def test_vectors_of_different_spaces_do_not_combine():
    ket = KetVector(1, (1, 2))
    spinor = SpinorVector.basis(2, 0, 1)
    for a, b in ((ket, KetVector(3, (1, 0, 0, 5))),
                 (spinor, SpinorVector.basis(3, 0, 1)),
                 (to_section({(0, (1, 0, 0, 0)): ref.ONE}, X_VIEW),
                  to_section({(0, (1, 0, 0, 0)): ref.ONE}, Z_VIEW))):
        for combine in (operator.add, operator.sub):
            with pytest.raises(ValueError, match="different spaces"):
                combine(a, b)
    with pytest.raises(TypeError):
        ket + spinor
    poly = Polynomial.variable(0, Z_VIEW)
    with pytest.raises(TypeError):
        SpinorSection(poly, poly) + poly


def test_section_is_one_vector_over_one_denominator():
    # f = u0/2 and g = u1/3 are one vector over 6, and read back over 2 and 3
    f = Polynomial.variable(0, Z_VIEW).scale(Fraction(1, 2))
    g = Polynomial.variable(1, Z_VIEW).scale(Fraction(1, 3))
    section = SpinorSection(f, g)
    assert_canonical(section)
    assert section._den == 6
    assert section._num == {(0, (1, 0, 0, 0)): (3, 0), (2, (0, 1, 0, 0)): (2, 0)}
    assert section.f == f and section.g == g
    assert (section.f._den, section.g._den) == (2, 3)


def test_zero_is_canonical():
    for v in (KetVector.zero(3), KetVector(2, (gauss(0), 0, Fraction(0))),
              SpinorVector(2, (((0, 1), gauss(Fraction(1, 2))), ((0, 1), gauss(Fraction(-1, 2))))),
              SpinorSection.zero(), SpinorSection(Polynomial.zero(X_VIEW), Polynomial.zero(X_VIEW))):
        assert v.is_zero() and (v._num, v._den) == ({}, 1)
