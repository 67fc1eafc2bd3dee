"""JSON encodings: every documented schema round-trips."""

import json
from fractions import Fraction

from spinor_s3.abstract_dirac import SpinorVector, spectrum_table
from spinor_s3.exactnum import GaussianRational, gauss, quat, rational_to_str
from spinor_s3.geometry import IntegralValue, QuadratureSpec
from spinor_s3.polyring import G2, GM1, Polynomial, SpinorSection
from spinor_s3.transfer import TransferImage, iso_closed_form


def roundtrip(obj):
    """Push through an actual JSON string, not just dict equality."""
    return json.loads(json.dumps(obj))


def test_rational_encoding():
    assert rational_to_str(Fraction(-3, 2)) == "-3/2"
    assert rational_to_str(Fraction(4)) == "4/1"


def test_gaussian_rational_json():
    x = gauss(Fraction(-3, 2), Fraction(1, 7))
    obj = roundtrip(x.to_json())
    assert obj == {"re": "-3/2", "im": "1/7"}
    assert GaussianRational.from_json(obj) == x


def test_quaternion_json():
    q = quat(1, Fraction(-1, 2), 0, 3)
    obj = roundtrip(q.to_json())
    assert obj == ["1/1", "-1/2", "0/1", "3/1"]
    assert type(q).from_json(obj) == q


def test_polynomial_json():
    p = G2 * G2 + GM1.scale(gauss(0, Fraction(1, 3)))
    obj = roundtrip(p.to_json())
    assert obj["view"] == "z"
    assert obj["terms"][0] == {"exp": [0, 0, 1, 0], "coeff": {"re": "0/1", "im": "1/3"}}
    assert Polynomial.from_json(obj) == p


def test_spinor_section_json():
    s = SpinorSection(G2, -GM1, 1)
    obj = roundtrip(s.to_json())
    assert set(obj) == {"k", "f", "g"}
    back = SpinorSection.from_json(obj)
    assert back == s and back.degree == 1


def test_spinor_vector_json():
    v = SpinorVector.basis(2, 1, 0, 2).scale(gauss(Fraction(1, 2), -1))
    obj = roundtrip(v.to_json())
    assert SpinorVector.from_json(obj) == v


def test_transfer_image_json():
    img = iso_closed_form(3, 1, 2)
    obj = roundtrip(img.to_json())
    assert obj["p"] == 1 and obj["q"] == 2
    assert obj["norm_factor_squared"] == "4/1"
    assert obj["view"] == "z"
    back = TransferImage.from_json(obj)
    assert back == img


def test_integral_value_json():
    v = IntegralValue(gauss(Fraction(1, 3), Fraction(-2, 5)))
    obj = roundtrip(v.to_json())
    assert obj["unit"] == "2pi^2"
    assert IntegralValue.from_json(obj) == v


def test_quadrature_spec_json():
    t = QuadratureSpec.tensor(9, 5)
    assert QuadratureSpec.from_json(roundtrip(t.to_json())) == t
    m = QuadratureSpec.monte_carlo(1000, 42)
    obj = roundtrip(m.to_json())
    assert obj == {"rule": "mc", "samples": 1000, "seed": 42}
    assert QuadratureSpec.from_json(obj) == m


def test_spectrum_row_json():
    rows = spectrum_table(1)
    objs = roundtrip([r.to_json() for r in rows])
    assert objs[0] == {"k": 0, "eigenvalue": "-3/2", "multiplicity": 2}
    assert {"k": 1, "eigenvalue": "3/2", "multiplicity": 2} in objs
