"""The shifted Dirac operator on the abstract side: block structure,
quadratic relation, eigenvector families and the spectrum counted two
independent ways."""

from fractions import Fraction

import pytest

from spinor_s3 import abstract_dirac, linalg
from spinor_s3.abstract_dirac import (
    SpinorVector,
    dbar_apply,
    dbar_apply_first_principles,
    dbar_block_int,
    eigenbasis_abstract,
    quadratic_check,
    spectrum_table,
)
from spinor_s3.exactnum import gauss


def bvec(k, r, p):
    return SpinorVector.basis(k, r, p)


def test_dbar_closed_formula_examples():
    # k=2, p=0 slot e0: (2p-k) e0|p> with no shift term
    assert dbar_apply(bvec(2, 0, 0)) == bvec(2, 0, 0).scale(-2)
    # k=0: everything is annihilated, so the Dirac eigenvalue is -3/2
    assert dbar_apply(bvec(0, 0, 0)).is_zero()
    # k=2, slot e2 at p=k: -(2p-k) e2|p>, the |p+1> term leaves the space
    assert dbar_apply(bvec(2, 2, 2)) == bvec(2, 2, 2).scale(-2)


def test_dbar_mixes_the_two_slots():
    # k=2, e0 at p=1: (2p-k)=0 diagonal part, shift -2p e2|p-1>
    assert dbar_apply(bvec(2, 0, 1)) == bvec(2, 2, 0).scale(-2)
    # k=2, e2 at p=0: 2 e2|0> - 4 e0|1>
    assert dbar_apply(bvec(2, 2, 0)) == bvec(2, 2, 0).scale(2) + bvec(2, 0, 1).scale(-4)


@pytest.mark.parametrize("k", range(11))
def test_closed_formula_equals_first_principles(k):
    for r in (0, 2):
        for p in range(k + 1):
            v = bvec(k, r, p)
            assert dbar_apply(v) == dbar_apply_first_principles(v)


def test_invariant_spans():
    for k in range(1, 7):
        for p in range(1, k + 1):
            allowed = {(0, p), (2, p - 1)}
            for r, pp in allowed:
                img = dbar_apply(bvec(k, r, pp))
                assert {key for key, _ in img.coeffs} <= allowed
        # boundary spans are one-dimensional
        img = dbar_apply(bvec(k, 0, 0))
        assert {key for key, _ in img.coeffs} <= {(0, 0)}
        img = dbar_apply(bvec(k, 2, k))
        assert {key for key, _ in img.coeffs} <= {(2, k)}


@pytest.mark.parametrize("k", [0, 1, 5])
def test_quadratic_relation_examples(k):
    assert quadratic_check(k)


def test_eigenbasis_k0():
    plus, minus = eigenbasis_abstract(0)
    assert len(plus) == 0
    assert len(minus) == 2
    assert minus.dirac_eigenvalue == Fraction(-3, 2)
    assert minus.vectors == (bvec(0, 0, 0), bvec(0, 2, 0))


def test_eigenbasis_k1_plus_family():
    plus, _ = eigenbasis_abstract(1)
    assert plus.dirac_eigenvalue == Fraction(3, 2)
    assert plus.vectors == (bvec(1, 0, 1) - bvec(1, 2, 0),)


def test_family_cardinalities():
    for k in range(7):
        plus, minus = eigenbasis_abstract(k)
        assert len(plus) == k * (k + 1)
        assert len(minus) == (k + 1) * (k + 2)
        assert len(plus) + len(minus) == 2 * (k + 1) ** 2


def per_slice_families(k):
    """The families built on the slice through the public constructor, as
    ``((plus vectors, ps), (minus vectors, ps))``."""
    plus, plus_at, minus, minus_at = [], [], [], []
    for p in range(1, k + 1):
        plus.append(SpinorVector(k, (((0, p), 1), ((2, p - 1), -1))))
        plus_at.append(p)
    minus.append(bvec(k, 0, 0))
    minus_at.append(0)
    for p in range(1, k + 1):
        minus.append(SpinorVector(k, (((0, p), p - k - 1), ((2, p - 1), -p))))
        minus_at.append(p)
    minus.append(bvec(k, 2, k))
    minus_at.append(k + 1)
    return (tuple(plus), tuple(plus_at)), (tuple(minus), tuple(minus_at))


@pytest.mark.parametrize("k", range(7))
def test_families_equal_the_per_slice_construction(k):
    plus, minus = eigenbasis_abstract(k)
    expected_plus, expected_minus = per_slice_families(k)
    assert (plus.vectors, plus.ps) == expected_plus
    assert (minus.vectors, minus.ps) == expected_minus
    assert (plus.label, plus.dirac_eigenvalue) == ("plus", Fraction(2 * k + 1, 2))
    assert (minus.label, minus.dirac_eigenvalue) == ("minus", Fraction(-2 * k - 3, 2))


@pytest.mark.parametrize("k", range(7))
def test_families_are_checked_on_one_slice(k, monkeypatch):
    calls = []

    def counted(v):
        calls.append(v)
        return dbar_apply(v)

    monkeypatch.setattr(abstract_dirac, "dbar_apply", counted)
    eigenbasis_abstract(k)
    assert len(calls) == 2 * (k + 1)


def test_a_wrong_dbar_factor_fails_the_family_check(monkeypatch):
    monkeypatch.setattr(abstract_dirac, "dbar_apply", lambda v: dbar_apply(v).scale(2))
    with pytest.raises(AssertionError, match="not a Dbar eigenvector"):
        eigenbasis_abstract(2)


def exact_block_multiplicities(k):
    """Independent route: characteristic polynomial plus exact nullities
    of the 2(k+1) x 2(k+1) block."""
    n = 2 * (k + 1)
    block = dbar_block_int(k)
    char = [gauss(*c) for c in linalg.charpoly_int(block)]
    expected = linalg.charpoly_from_roots([(Fraction(k + 2), k), (Fraction(-k), k + 2)])
    assert char == expected
    null_plus = n - linalg.rank_sparse(linalg.shift_int(block, -(k + 2)))
    null_minus = n - linalg.rank_sparse(linalg.shift_int(block, k))
    return null_plus, null_minus


def test_k2_multiplicities_by_diagonalization():
    null_plus, null_minus = exact_block_multiplicities(2)
    # per V_2: multiply the per-block counts by the k+1 = 3 values of q
    assert null_plus * 3 == 6
    assert null_minus * 3 == 12


def test_families_match_diagonalization():
    for k in range(6):
        plus, minus = eigenbasis_abstract(k)
        null_plus, null_minus = exact_block_multiplicities(k)
        assert len(plus) == null_plus * (k + 1)
        assert len(minus) == null_minus * (k + 1)


def test_family_union_is_basis():
    for k in range(7):
        plus, minus = eigenbasis_abstract(k)
        # a row scaled by its vector's denominator leaves the rank alone
        rows = [v._num for fam in (plus, minus) for v in fam.vectors]
        assert linalg.rank_sparse(rows) == 2 * (k + 1)


def test_spectrum_table_examples():
    rows = spectrum_table(0)
    assert [(r.k, r.eigenvalue, r.multiplicity) for r in rows] == [(0, Fraction(-3, 2), 2)]

    rows = spectrum_table(3)
    k3 = [(r.eigenvalue, r.multiplicity) for r in rows if r.k == 3]
    assert k3 == [(Fraction(7, 2), 12), (Fraction(-9, 2), 20)]

    for k in range(4):
        total = sum(r.multiplicity for r in rows if r.k == k)
        assert total == 2 * (k + 1) ** 2


def test_spectrum_values_half_integer_ladder():
    rows = spectrum_table(6)
    values = {r.eigenvalue for r in rows}
    expected = {Fraction(2 * k + 1, 2) for k in range(1, 7)}
    expected |= {Fraction(-2 * k - 3, 2) for k in range(7)}
    assert values == expected
    assert all(abs(v) >= Fraction(3, 2) for v in values)


def test_spinor_vector_validation():
    with pytest.raises(ValueError):
        SpinorVector.basis(2, 1, 0)
    with pytest.raises(ValueError):
        SpinorVector.basis(2, 0, 5)
    with pytest.raises(ValueError, match="degree k"):
        SpinorVector(-1, ())
    # the block and the quadratic relation refuse a negative degree rather
    # than hold on an empty block
    for build in (dbar_block_int, abstract_dirac.dbar_block_matrix, quadratic_check):
        with pytest.raises(ValueError, match="degree k must be >= 0"):
            build(-1)


def test_spinor_vector_arithmetic_merges_repeated_keys():
    a = SpinorVector(2, (((0, 1), gauss(1, 2)), ((2, 0), gauss(3)), ((0, 1), gauss(-1, 1))))
    assert a.coeffs == (((0, 1), gauss(0, 3)), ((2, 0), gauss(3)))
    b = bvec(2, 2, 0).scale(3) + bvec(2, 0, 2).scale(gauss(0, Fraction(1, 2)))
    assert (a + b).coeffs == (
        ((0, 1), gauss(0, 3)), ((0, 2), gauss(0, Fraction(1, 2))), ((2, 0), gauss(6)),
    )
    assert (a - b).coeffs == (((0, 1), gauss(0, 3)), ((0, 2), gauss(0, Fraction(-1, 2))))
    assert (a - b) == a + b.scale(-1)
    assert (a - a).is_zero() and (b - b).coeffs == ()
