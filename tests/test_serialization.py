"""JSON encodings: every schema the CLI writes round-trips."""

import json
from fractions import Fraction

import pytest

from spinor_s3.abstract_dirac import spectrum_table
from spinor_s3.exactnum import gauss, rational_to_str
from spinor_s3.polyring import G2, GM1, Polynomial, SpinorSection


def roundtrip(obj):
    """Push through an actual JSON string, not just dict equality."""
    return json.loads(json.dumps(obj))


def test_rational_encoding():
    assert rational_to_str(Fraction(-3, 2)) == "-3/2"
    assert rational_to_str(Fraction(4)) == "4/1"


def test_polynomial_json():
    p = G2 * G2 + GM1.scale(gauss(0, Fraction(1, 3)))
    obj = roundtrip(p.to_json())
    assert obj["view"] == "z"
    assert obj["terms"][0] == {"exp": [0, 0, 1, 0], "coeff": {"re": "0/1", "im": "1/3"}}
    assert Polynomial.from_json(obj) == p


@pytest.mark.parametrize("exp", [[-1, 0, 0, 1], [1, 2, 3]])
def test_polynomial_json_refuses_malformed_exponents(exp):
    obj = roundtrip({"view": "z", "terms": [{"exp": exp, "coeff": {"re": "1/1", "im": "0/1"}}]})
    with pytest.raises(ValueError, match="4 nonnegative ints"):
        Polynomial.from_json(obj)


def test_spinor_section_json():
    s = SpinorSection(G2, -GM1, 1)
    obj = roundtrip(s.to_json())
    assert set(obj) == {"k", "f", "g"}
    back = SpinorSection.from_json(obj)
    assert back == s and back.degree == 1


def test_spectrum_row_json():
    rows = spectrum_table(1)
    objs = roundtrip([r.to_json() for r in rows])
    assert objs[0] == {"k": 0, "eigenvalue": "-3/2", "multiplicity": 2}
    assert {"k": 1, "eigenvalue": "3/2", "multiplicity": 2} in objs
