"""Exact scalar arithmetic: ring axioms, the Hamilton table and the
quaternion <-> complex-pair identification."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from spinor_s3.exactnum import (
    BASIS,
    E0,
    E1,
    E2,
    E3,
    GaussianRational,
    assemble,
    clifford_multiply,
    complex_split,
    gauss,
    quat,
    quat_multiply,
    rational_to_str,
)


def random_rational(rng, span=20):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_gauss(rng):
    return GaussianRational(random_rational(rng), random_rational(rng))


def random_quat(rng):
    return quat(*(random_rational(rng) for _ in range(4)))


def test_rational_string_roundtrip():
    assert rational_to_str(Fraction(-3, 2)) == "-3/2"
    rng = random.Random(1)
    for _ in range(50):
        r = random_rational(rng)
        assert Fraction(rational_to_str(r)) == r


def test_gaussian_field_axioms_random_triples():
    rng = random.Random(2)
    for _ in range(200):
        a, b, c = (random_gauss(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
    one = gauss(1)
    for _ in range(50):
        a = random_gauss(rng)
        if not a.is_zero():
            assert a / a == one


def test_gaussian_conjugation_involution():
    rng = random.Random(3)
    for _ in range(100):
        a = random_gauss(rng)
        assert a.conjugate().conjugate() == a
        assert (a * a.conjugate()).im == 0


def test_hamilton_table():
    assert quat_multiply(E1, E2) == E3
    assert quat_multiply(E2, E3) == E1
    assert quat_multiply(E3, E1) == E2
    for i in (1, 2, 3):
        assert quat_multiply(BASIS[i], BASIS[i]) == -E0
    # anticommutativity follows: e2*e1 = -e3
    assert quat_multiply(E2, E1) == -E3


def test_identity_and_associativity():
    rng = random.Random(4)
    for _ in range(100):
        q = random_quat(rng)
        assert quat_multiply(E0, q) == q
        assert quat_multiply(q, E0) == q
    for _ in range(100):
        a, b, c = (random_quat(rng) for _ in range(3))
        assert quat_multiply(quat_multiply(a, b), c) == quat_multiply(a, quat_multiply(b, c))
        assert quat_multiply(a, b + c) == quat_multiply(a, b) + quat_multiply(a, c)


def test_norm_multiplicativity_1000_pairs():
    rng = random.Random(5)
    for _ in range(1000):
        p, q = random_quat(rng), random_quat(rng)
        assert quat_multiply(p, q).norm_form() == p.norm_form() * q.norm_form()


def test_complex_split_basis_values():
    assert complex_split(E1) == (gauss(0, 1), gauss(0))
    assert complex_split(E3) == (gauss(0), gauss(0, 1))
    assert complex_split(E0 + E2 * 2) == (gauss(1), gauss(2))


def test_split_assemble_roundtrip():
    for q in BASIS:
        assert assemble(*complex_split(q)) == q
    rng = random.Random(6)
    for _ in range(200):
        q = random_quat(rng)
        assert assemble(*complex_split(q)) == q
        f, g = random_gauss(rng), random_gauss(rng)
        assert complex_split(assemble(f, g)) == (f, g)


def test_split_respects_left_complex_action():
    # left multiplication by e1 is multiplication by i on both components
    rng = random.Random(7)
    for _ in range(100):
        q = random_quat(rng)
        f, g = complex_split(q)
        fi, gi = complex_split(quat_multiply(E1, q))
        assert fi == f * gauss(0, 1) and gi == g * gauss(0, 1)


def test_clifford_multiply():
    assert clifford_multiply(E0, 1) == -E1
    assert clifford_multiply(E2, 1) == E3
    rng = random.Random(8)
    for _ in range(60):
        q = random_quat(rng)
        for i in (1, 2, 3):
            assert clifford_multiply(clifford_multiply(q, i), i) == -q


def test_clifford_rejects_bad_axis():
    with pytest.raises(ValueError):
        clifford_multiply(E0, 0)
    with pytest.raises(ValueError):
        clifford_multiply(E0, 4)


def test_gauss_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gauss(1) / gauss(0)


def test_gaussian_constructor_exact_for_int_float_fraction():
    want = GaussianRational(Fraction(-3, 2), Fraction(2))
    for re, im in ((Fraction(-3, 2), 2), (-1.5, 2.0), (-1.5, Fraction(2)), (Fraction(-6, 4), 2.0)):
        got = GaussianRational(re, im)
        assert type(got.re) is Fraction and type(got.im) is Fraction
        assert got == want and hash(got) == hash(want)
    assert GaussianRational(3, -2) == GaussianRational(3.0, Fraction(-2))
    assert hash(GaussianRational(3, -2)) == hash(GaussianRational(3.0, Fraction(-2)))
    assert GaussianRational(0.5, 1).re == Fraction(1, 2)
    assert GaussianRational(0.1, 0).re == Fraction(0.1)  # the float's exact binary value


def _one_record_of_each_kind():
    from spinor_s3.abstract_dirac import eigenbasis_abstract, spectrum_table
    from spinor_s3.geometry import KillingPair
    from spinor_s3.transfer import iso_closed_form, transfer_eigenbasis
    from spinor_s3.verify import CheckResult

    return [GaussianRational(1, 2), quat(1, 2, 3, 4), KillingPair.left(1),
            eigenbasis_abstract(1)[1], spectrum_table(1)[0], iso_closed_form(2, 1, 0),
            transfer_eigenbasis(1)[0], CheckResult("suite", "name", True, "detail")]


@pytest.mark.parametrize("record", _one_record_of_each_kind(), ids=lambda r: type(r).__name__)
def test_records_are_immutable_values(record):
    # what the frozen dataclasses they replaced gave: no field can be set
    # or deleted, equality and hash are over the fields and within the
    # class, and copies are equal values
    fields = type(record)._fields
    assert not hasattr(record, "__dict__")
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None
    values = tuple(getattr(record, name) for name in fields)
    assert record != values and hash(record) == hash(values)
    for twin in (type(record)(*values), record._replace(), copy.copy(record),
                 copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record and hash(twin) == hash(record)
    changed = record._replace(**{fields[0]: values[-1]})
    assert changed != record and getattr(changed, fields[0]) == values[-1]
    with pytest.raises(TypeError):
        record._replace(no_such_field=None)
    with pytest.raises(TypeError):
        type(record)(*values, None)
