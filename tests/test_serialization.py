"""JSON encodings: every schema the CLI writes round-trips."""

import json
from fractions import Fraction

import pytest

from spinor_s3.abstract_dirac import spectrum_table
from spinor_s3.exactnum import gauss, rational_to_str
from spinor_s3.polyring import G2, G2_BAR, GM1, X0, Polynomial, SpinorSection


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


def test_polynomial_json_refuses_a_repeated_exponent():
    record = poly_record("1/1")
    record["terms"].append({"exp": [1, 0, 0, 0], "coeff": {"re": "5/1", "im": "0/1"}})
    with pytest.raises(ValueError, match="appears twice"):
        Polynomial.from_json(roundtrip(record))
    # distinct exponents in any order still read back
    record["terms"][1]["exp"] = [0, 1, 0, 0]
    assert Polynomial.from_json(roundtrip(record)) == G2 + G2_BAR.scale(5)


GOOD_TERM = {"exp": [1, 0, 0, 0], "coeff": {"re": "1/1", "im": "0/1"}}
GOOD_POLY = {"view": "z", "terms": [GOOD_TERM]}

MALFORMED_RECORDS = {
    "no-terms": (Polynomial, {"view": "z"}),
    "no-view": (Polynomial, {"terms": [GOOD_TERM]}),
    "no-coeff": (Polynomial, {"view": "z", "terms": [{"exp": [1, 0, 0, 0]}]}),
    "no-im": (Polynomial, {"view": "z", "terms": [{"exp": [1, 0, 0, 0], "coeff": {"re": "1/1"}}]}),
    "exp-int": (Polynomial, {"view": "z", "terms": [{**GOOD_TERM, "exp": 5}]}),
    "terms-str": (Polynomial, {"view": "z", "terms": "abc"}),
    "poly-list": (Polynomial, [GOOD_POLY]),
    "no-g": (SpinorSection, {"f": GOOD_POLY}),
    "section-list": (SpinorSection, [GOOD_POLY, GOOD_POLY]),
}


@pytest.mark.parametrize("cls, record", MALFORMED_RECORDS.values(), ids=MALFORMED_RECORDS.keys())
def test_json_refuses_a_malformed_record(cls, record):
    with pytest.raises(ValueError, match="malformed") as info:
        cls.from_json(roundtrip(record))
    assert "\n" not in str(info.value)


def test_spinor_section_json():
    s = SpinorSection(G2, -GM1)
    obj = roundtrip(s.to_json())
    assert set(obj) == {"k", "f", "g"}
    back = SpinorSection.from_json(obj)
    assert back == s and back.degree == 1


def test_spectrum_row_json():
    rows = spectrum_table(1)
    objs = roundtrip([r.to_json() for r in rows])
    assert objs[0] == {"k": 0, "eigenvalue": "-3/2", "multiplicity": 2}
    assert {"k": 1, "eigenvalue": "3/2", "multiplicity": 2} in objs


def poly_record(re):
    return {"view": "z", "terms": [{"exp": [1, 0, 0, 0], "coeff": {"re": re, "im": "0/1"}}]}


@pytest.mark.parametrize("part", [1.5, 0.1, 3, "1/0", None, "x", [1, 2]],
                         ids=["float", "inexact-float", "int", "zero-den", "null", "text", "list"])
def test_polynomial_json_refuses_a_coefficient_part_that_is_not_a_rational_string(part):
    with pytest.raises(ValueError, match="rational string"):
        Polynomial.from_json(roundtrip(poly_record(part)))


def test_polynomial_json_reads_every_rational_string():
    for text, value in (("-3/2", Fraction(-3, 2)), ("4", Fraction(4)), ("6/4", Fraction(3, 2))):
        assert Polynomial.from_json(poly_record(text)) == G2.scale(value)


@pytest.mark.parametrize("k", [5, 0, "x", "1", None, True, 1.0, -1],
                         ids=["other-degree", "zero", "text", "numeral", "null", "bool", "float",
                              "negative"])
def test_spinor_section_json_refuses_a_degree_that_is_not_its_parts(k):
    obj = roundtrip(SpinorSection(G2, -GM1).to_json())
    obj["k"] = k
    with pytest.raises(ValueError, match="not the degree"):
        SpinorSection.from_json(obj)


def test_spinor_section_json_degree_when_absent_or_zero_parts():
    obj = roundtrip(SpinorSection(G2, -GM1).to_json())
    del obj["k"]
    assert SpinorSection.from_json(obj).degree == 1
    # the zero section has every degree, so a record may carry any; its
    # degree reads 0
    zero = SpinorSection(G2, -GM1).scale(0)
    assert zero.degree == 0
    back = SpinorSection.from_json({**roundtrip(zero.to_json()), "k": 1})
    assert back == zero and back.degree == 0
    assert SpinorSection.from_json(roundtrip(SpinorSection.zero().to_json())).degree == 0
    with pytest.raises(ValueError, match="not the degree"):
        SpinorSection.from_json({**roundtrip(zero.to_json()), "k": -1})


#: Sections without a common degree, whose records carry ``"k": null``.
INHOMOGENEOUS = {
    "f-and-g": SpinorSection(G2, G2 * G2),
    "f-alone": SpinorSection(G2 + G2 * G2_BAR, Polynomial.zero()),
    "x-view": SpinorSection(X0, X0 * X0 + Polynomial.constant(1, "x")),
}


@pytest.mark.parametrize("section", [
    SpinorSection.zero(), SpinorSection(G2, -GM1), SpinorSection(X0, X0.scale(2)),
    *INHOMOGENEOUS.values(),
], ids=["zero", "homogeneous", "x-view-homogeneous", *INHOMOGENEOUS])
def test_every_section_round_trips(section):
    assert SpinorSection.from_json(roundtrip(section.to_json())) == section


@pytest.mark.parametrize("k", [0, 1, 2, True, 1.0, -1, "x"],
                         ids=["zero", "f-degree", "g-degree", "bool", "float", "negative", "text"])
def test_an_inhomogeneous_record_refuses_every_degree(k):
    obj = roundtrip(INHOMOGENEOUS["f-and-g"].to_json())
    assert obj["k"] is None
    obj["k"] = k
    with pytest.raises(ValueError, match="not the degree"):
        SpinorSection.from_json(obj)


def test_spinor_section_refuses_parts_of_different_views():
    with pytest.raises(ValueError, match="share a view"):
        SpinorSection(X0, G2)
    with pytest.raises(ValueError, match="share a view"):
        SpinorSection(Polynomial.zero("x"), G2)
    record = roundtrip({"k": 1, "f": X0.to_json(), "g": G2.to_json()})
    with pytest.raises(ValueError, match="share a view"):
        SpinorSection.from_json(record)
    assert SpinorSection(X0, X0.scale(2)).degree == 1
