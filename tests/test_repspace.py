"""Representation operators on the ket basis: the three infinitesimal
actions, the ladder normalisation and the Casimir identity."""

import pytest

from spinor_s3 import linalg
from spinor_s3.exactnum import BASIS, gauss, quat_multiply
from spinor_s3.repspace import (
    KetVector,
    apply_l,
    apply_sl2,
    casimir,
    casimir_expected,
    l_matrix_int,
)


def ket(k, p):
    return KetVector.basis(k, p)


def sub(a, b):
    """A - B for Gaussian-integer rows, canonical."""
    out = []
    for ra, rb in zip(a, b):
        row = {}
        for c in ra.keys() | rb.keys():
            (x, y), (u, v) = ra.get(c, (0, 0)), rb.get(c, (0, 0))
            if x - u or y - v:
                row[c] = (x - u, y - v)
        out.append(row)
    return out


def scale(a, c):
    """c A for Gaussian-integer rows A and a nonzero integer c."""
    return [{col: (c * x, c * y) for col, (x, y) in row.items()} for row in a]


def test_l2_moves_both_ways():
    # k=2, p=1: (p-k)|p+1> + p|p-1> = -|2> + |0>
    assert apply_l(2, ket(2, 1)) == ket(2, 2).scale(-1) + ket(2, 0)


def test_l1_diagonal_zero_at_middle_weight():
    assert apply_l(1, ket(2, 1)).is_zero()
    assert apply_l(1, ket(2, 0)) == ket(2, 0).scale(gauss(0, -2))


def test_l3_coefficient_pinned_by_casimir():
    # The (p-k) coefficient in l3 is what makes the Casimir check below
    # pass at k=2 (the alternative printed coefficient p-1 fails it).
    assert casimir(2) == casimir_expected(2)
    assert apply_l(3, ket(2, 0)) == ket(2, 1).scale(gauss(0, -2))


def test_kets_outside_range_are_zero():
    # the moving operators drop |-1> and |k+1> silently
    assert apply_l(2, ket(2, 0)) == ket(2, 1).scale(-2)
    assert apply_l(2, ket(2, 2)) == ket(2, 1).scale(2)


def test_sl2_ladder_values():
    assert apply_sl2("Y", ket(3, 0)) == ket(3, 1).scale(3)
    assert apply_sl2("Y", ket(3, 3)).is_zero()
    assert apply_sl2("X", ket(3, 0)).is_zero()
    assert apply_sl2("X", ket(3, 2)) == ket(3, 1).scale(2)


def test_sl2_weight_convention():
    # H = i*l1 gives |0> the highest weight +k, so the tensor square
    # |0>|0> sits at weight 2k; [H, Y] = -2Y with Y raising p.
    for k in range(6):
        assert apply_sl2("H", ket(k, 0)) == ket(k, 0).scale(k)
        for p in range(k + 1):
            assert apply_sl2("H", ket(k, p)) == ket(k, p).scale(k - 2 * p)
            hy = apply_sl2("H", apply_sl2("Y", ket(k, p)))
            yh = apply_sl2("Y", apply_sl2("H", ket(k, p)))
            minus2y = apply_sl2("Y", ket(k, p)).scale(-2)
            assert hy + (yh.scale(-1)) == minus2y


def test_sl2_bracket_xy_is_h():
    for k in range(6):
        for p in range(k + 1):
            xy = apply_sl2("X", apply_sl2("Y", ket(k, p)))
            yx = apply_sl2("Y", apply_sl2("X", ket(k, p)))
            assert xy + yx.scale(-1) == apply_sl2("H", ket(k, p))


def test_weight_grading_strict():
    for k in range(1, 8):
        for p in range(k + 1):
            up = apply_sl2("Y", ket(k, p))
            down = apply_sl2("X", ket(k, p))
            for idx, c in enumerate(up.coeffs):
                if not c.is_zero():
                    assert idx == p + 1
            for idx, c in enumerate(down.coeffs):
                if not c.is_zero():
                    assert idx == p - 1


def test_casimir_small_values():
    assert casimir(0) == casimir_expected(0)  # zero matrix
    assert casimir(2) == casimir_expected(2)  # 8 * Id
    assert casimir(3) == casimir_expected(3)  # 15 * Id


@pytest.mark.parametrize("k", range(13))
def test_casimir_identity_up_to_12(k):
    assert casimir(k) == casimir_expected(k)


@pytest.mark.parametrize("k", range(13))
def test_commutators_up_to_12(k):
    for i, j in ((1, 2), (2, 3), (3, 1), (2, 1), (3, 2), (1, 3)):
        mi, mj = l_matrix_int(i, k), l_matrix_int(j, k)
        comm = sub(linalg.mat_mul_int(mi, mj), linalg.mat_mul_int(mj, mi))
        prod = quat_multiply(BASIS[i], BASIS[j])
        m, sign = next((idx, int(c)) for idx, c in enumerate(prod.components()) if c != 0)
        assert comm == scale(l_matrix_int(m, k), 2 * sign)


def test_l_matrices_banded():
    for k in range(9):
        for i in (1, 2, 3):
            rows = l_matrix_int(i, k)
            assert len(rows) == k + 1
            for r, row in enumerate(rows):
                assert all(0 <= c <= k and abs(r - c) <= 1 for c in row)


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        apply_l(4, ket(2, 0))
    with pytest.raises(ValueError):
        apply_sl2("Z", ket(2, 0))
    with pytest.raises(ValueError):
        KetVector.basis(2, 3)
    with pytest.raises(ValueError):
        KetVector(2, (gauss(0),))
    # a negative degree is refused, not passed as an empty space
    for build in (casimir, casimir_expected, lambda k: l_matrix_int(7, k)):
        with pytest.raises(ValueError, match="degree k must be >= 0"):
            build(-1)
