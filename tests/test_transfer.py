"""The transfer to harmonic polynomials: closed form against the
recursive lowering construction, equivariance and the eigen-sections."""

import gc
import weakref
from fractions import Fraction

import pytest

import fraction_reference as ref
from spinor_s3 import linalg, transfer
from spinor_s3.abstract_dirac import eigenbasis_abstract
from spinor_s3.polyring import G1_BAR, G2, G2_BAR, GM1, Polynomial, Z_VIEW, laplacian_r4
from spinor_s3.transfer import (
    LEFT,
    RIGHT,
    beta_lower,
    iso_closed_form,
    recursive_table,
    transfer_eigenbasis,
    transfer_slice,
    transfer_table,
)
from spinor_s3.verify import run_suites


def test_closed_form_corner_values():
    for k in (0, 1, 3, 5):
        assert iso_closed_form(k, 0, 0).poly == G2**k
    # single-term images, cross-checked against the recursive route below
    assert iso_closed_form(1, 1, 0).poly == GM1
    assert iso_closed_form(1, 0, 1).poly == G1_BAR
    assert recursive_table(1)[(1, 0)] == GM1
    assert recursive_table(1)[(0, 1)] == G1_BAR


def test_norm_factor_squared_is_k_plus_one():
    for k in (0, 2, 4):
        assert iso_closed_form(k, k, k).norm_factor_squared == Fraction(k + 1)


def test_index_range_errors():
    with pytest.raises(IndexError):
        iso_closed_form(2, 3, 0)
    with pytest.raises(IndexError):
        iso_closed_form(2, 0, -1)
    # a negative degree is refused with the ValueError of every other
    # degree check in the library
    with pytest.raises(ValueError, match="degree k must be >= 0"):
        iso_closed_form(-1, 0, 0)
    for build in (recursive_table, transfer.gram_matrix, transfer_eigenbasis):
        with pytest.raises(ValueError, match="degree k must be >= 0"):
            build(-1)


def test_lowering_diamond():
    assert beta_lower(LEFT, G2) == GM1
    assert beta_lower(RIGHT, G2) == G1_BAR
    assert beta_lower(LEFT, GM1).is_zero()
    assert beta_lower(RIGHT, GM1) == G2_BAR
    assert beta_lower(LEFT, G1_BAR) == G2_BAR
    assert beta_lower(RIGHT, G1_BAR).is_zero()
    assert beta_lower(LEFT, G2_BAR).is_zero()
    assert beta_lower(RIGHT, G2_BAR).is_zero()


def test_merged_lowering_tables_are_the_diamond_arrows():
    # the combined -1/2 pair(2) + i/2 pair(3) keeps only the two unit arrows
    # of test_lowering_diamond: u_m -> u_j is the shift delta_j - delta_m
    # with the weight e[m], as generator indices
    from spinor_s3.geometry import _lowering_table

    generators = (G2, G2_BAR, GM1, G1_BAR)
    diamond = {LEFT: ((G2, GM1), (G1_BAR, G2_BAR)), RIGHT: ((G2, G1_BAR), (GM1, G2_BAR))}
    for side, arrows in diamond.items():
        den, entries = _lowering_table(side)
        assert den == 1
        assert len(entries) == 2
        arrow_entries = {}
        for a, b in arrows:
            m, j = generators.index(a), generators.index(b)
            shift = tuple((n == j) - (n == m) for n in range(4))
            arrow_entries[shift] = (((m, 4, 1),), ())
        assert {shift: (re, im) for shift, re, im in entries} == arrow_entries


def test_lowering_operator_wrapper():
    assert beta_lower(LEFT, G2) == GM1
    with pytest.raises(ValueError):
        beta_lower("up", G2)


def test_recursive_zero_steps():
    assert recursive_table(4)[(0, 0)] == G2**4


def test_recursive_matches_closed_at_2_1_1():
    expected = (G2 * G2_BAR + GM1 * G1_BAR).scale(Fraction(1, 2))
    assert iso_closed_form(2, 1, 1).poly == expected
    assert recursive_table(2)[(1, 1)] == expected


def test_left_right_lowering_commute():
    p = G2**3
    lr = beta_lower(RIGHT, beta_lower(LEFT, p))
    rl = beta_lower(LEFT, beta_lower(RIGHT, p))
    assert lr == rl


@pytest.mark.parametrize("k", [*range(7), 20, 28])
def test_closed_equals_recursive(k):
    table = recursive_table(k)
    for p in range(k + 1):
        for q in range(k + 1):
            assert iso_closed_form(k, p, q).poly == table[(p, q)]


@pytest.mark.parametrize("k", range(7))
def test_recursive_table_keys_in_p_q_order(k):
    table = recursive_table(k)
    assert list(table) == [(p, q) for p in range(k + 1) for q in range(k + 1)]


def test_a_ladder_factor_off_by_one_at_one_rung_breaks_the_equality(monkeypatch):
    # the control: rung j = 4 of the right ladder from z2^20 divided by
    # 17 instead of 16 changes that image and every one below it, and no
    # other
    k = 20
    lower, calls = transfer._lower, []

    def off_by_one(side, poly, factor):
        calls.append((side, factor))
        if len(calls) == 5:
            factor += 1
        return lower(side, poly, factor)

    monkeypatch.setattr(transfer, "_lower", off_by_one)
    closed, broken = transfer_table(k), recursive_table(k)
    assert calls[4] == (RIGHT, 16)
    assert broken != closed
    assert {key for key, h in closed.items() if broken[key] != h} == {(0, q) for q in range(5, k + 1)}


def test_recursive_table_shares_the_ladder_prefixes(monkeypatch):
    calls = []
    lower = transfer._lower

    def counted(side, poly, factor):
        calls.append(side)
        return lower(side, poly, factor)

    monkeypatch.setattr(transfer, "_lower", counted)
    for k in (0, 1, 4):
        calls.clear()
        recursive_table(k)
        assert (calls.count(LEFT), calls.count(RIGHT)) == (k, k * (k + 1))


def test_recursive_table_index_errors():
    with pytest.raises(ValueError, match="degree k must be >= 0"):
        recursive_table(-1)


def test_transfer_table_index_errors():
    with pytest.raises(ValueError, match="degree k must be >= 0"):
        transfer_table(-1)


@pytest.mark.parametrize("k", range(6))
def test_equivariance(k):
    table = transfer_table(k)
    for p in range(k + 1):
        for q in range(k + 1):
            left = beta_lower(LEFT, table[(p, q)])
            want = table[(p + 1, q)].scale(k - p) if p < k else Polynomial.zero(Z_VIEW)
            assert left == want
            right = beta_lower(RIGHT, table[(p, q)])
            want = table[(p, q + 1)].scale(k - q) if q < k else Polynomial.zero(Z_VIEW)
            assert right == want


def test_exponent_bookkeeping():
    for k in range(7):
        for p in range(k + 1):
            for q in range(k + 1):
                poly = iso_closed_form(k, p, q).poly
                assert not poly.is_zero()
                for exp in poly.terms:
                    assert all(e >= 0 for e in exp)
                    assert sum(exp) == k


def test_images_harmonic_and_homogeneous():
    for k in range(6):
        for poly in transfer_table(k).values():
            assert {sum(e) for e in poly._num} == {k}
            assert laplacian_r4(poly).is_zero()


def test_images_linearly_independent():
    for k in range(6):
        images = list(transfer_table(k).values())
        # each image scaled by its denominator: the rank does not change
        assert linalg.rank_sparse([img._num for img in images]) == (k + 1) ** 2


def test_transfer_eigenbasis_k0():
    entries = transfer_eigenbasis(0)
    assert len(entries) == 2
    assert all(e.eigenvalue == Fraction(-3, 2) for e in entries)
    sections = {(str(e.section.f), str(e.section.g)) for e in entries}
    one = Polynomial.constant(1, Z_VIEW)
    assert {(str(one), str(Polynomial.zero())), (str(Polynomial.zero()), str(one))} == sections


def test_transfer_eigenbasis_k1_plus_q0():
    entries = transfer_eigenbasis(1)
    assert len(entries) == 8
    plus_q0 = [e for e in entries if e.family == "plus" and e.q == 0]
    assert len(plus_q0) == 1
    e = plus_q0[0]
    assert e.eigenvalue == Fraction(3, 2)
    assert e.section.f == GM1          # -z1
    assert e.section.g == -G2          # -z2


def test_transfer_eigenbasis_counts_and_degrees():
    for k in range(5):
        entries = transfer_eigenbasis(k)
        assert len(entries) == 2 * (k + 1) ** 2
        for e in entries:
            for comp in (e.section.f, e.section.g):
                if not comp.is_zero():
                    assert {sum(e) for e in comp._num} == {k}
                    assert laplacian_r4(comp).is_zero()


def test_transfer_eigenbasis_deterministic_order():
    entries = transfer_eigenbasis(2)
    keys = [(e.family, e.q, e.p) for e in entries]
    assert keys == sorted(keys, key=lambda t: (t[0] != "plus", t[1], t[2]))
    assert keys == [(e.family, e.q, e.p) for e in transfer_eigenbasis(2)]


def test_transfer_slice_is_one_slice_of_the_eigenbasis():
    k = 3
    table = transfer_table(k)
    entries = transfer_eigenbasis(k)
    families = eigenbasis_abstract(k)
    for family in families:
        for q in range(k + 1):
            assert list(transfer_slice(family, q, table)) == [
                e for e in entries if (e.family, e.q) == (family.label, q)]
    with pytest.raises(IndexError):
        transfer_slice(families[0], k + 1, table)


def eigenbasis_by_scale_and_add(k):
    """The sections assembled through the Gaussian-rational face: each
    family vector's coefficients scale the closed-form images, which
    ``Polynomial.__add__`` sums into f (r = 0) and g (r = 2)."""
    table = transfer_table(k)
    out = []
    for family in eigenbasis_abstract(k):
        for q in range(k + 1):
            for vector, p in zip(family.vectors, family.ps):
                f = g = Polynomial.zero(Z_VIEW)
                for (r, pp), c in vector.coeffs:
                    image = table[(pp, q)].scale(c)
                    if r == 0:
                        f = f + image
                    else:
                        g = g + image
                out.append((family.label, q, p, family.dirac_eigenvalue, f, g))
    return out


@pytest.mark.parametrize("k", range(5))
def test_transfer_eigenbasis_matches_the_gaussian_rational_assembly(k):
    entries = transfer_eigenbasis(k)
    assert [
        (e.family, e.q, e.p, e.eigenvalue, e.section.f, e.section.g) for e in entries
    ] == eigenbasis_by_scale_and_add(k)
    for e in entries:
        ref.assert_canonical(e.section.f)
        ref.assert_canonical(e.section.g)
        assert e.section.degree == k


def test_transfer_eigenbasis_carries_the_vector_denominators(monkeypatch):
    # every family vector has integer coefficients; halved vectors must
    # give halved sections
    whole = transfer_eigenbasis(2)
    halved = [
        fam._replace(vectors=tuple(v.scale(Fraction(1, 2)) for v in fam.vectors))
        for fam in eigenbasis_abstract(2)
    ]
    monkeypatch.setattr(transfer, "eigenbasis_abstract", lambda k: halved)
    for got, e in zip(transfer_eigenbasis(2), whole, strict=True):
        assert got.section == e.section.scale(Fraction(1, 2))


def test_no_eigenbasis_outlives_the_verify_run(monkeypatch):
    # every section that verify builds is garbage once the run returns
    from spinor_s3 import verify

    built = []

    def tracked(family, q, table):
        entries = transfer_slice(family, q, table)
        built.extend(weakref.ref(e) for e in entries)
        return entries

    monkeypatch.setattr(verify, "transfer_slice", tracked)
    assert all(r.passed for r in run_suites(["dirac", "laplace"], k_max=3))
    gc.collect()
    # slice q = 0 of each degree, and no other
    assert len(built) == sum(2 * (k + 1) for k in range(4))
    assert not [ref for ref in built if ref() is not None]
