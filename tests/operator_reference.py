"""The composed forms of the geometric operators, as test oracles.

The library evaluates D, Delta and the lowerings from tables combined and
composed from the frame fields' tables, in one integer pass.  The forms
here are the operators as the paper writes them: one derivative per frame
field, the frame's covariant constants and right multiplication by the
frame units, composed with the ring operations.  They share the
single-field weights, their compiled table and the interpreter with the
library, and never call
the combined tables or the builders they are checked against
(``test_operator_reference_calls_no_checked_entry_point`` guards that).
"""

from fractions import Fraction
from functools import lru_cache
from typing import Union

from spinor_s3.exactnum import (
    BASIS,
    RationalQuaternion,
    clifford_multiply,
    complex_split,
    quat,
    quat_multiply,
    reduce_parts,
)
from spinor_s3.geometry import KillingPair, _apply, _field_weights, _table
from spinor_s3.polyring import Polynomial, SpinorSection, Z_VIEW


def killing_derivative(
    sigma: Union[Polynomial, SpinorSection], pair: KillingPair
) -> Union[Polynomial, SpinorSection]:
    """Exact derivative of sigma along the field x -> xS - Tx, in the z view.

    The field is linear, u_m -> sum_j M[m][j] u_j in the z generators, so
    the derivative is sum_m d_m sigma * (sum_j M[m][j] u_j): a term c*u^e
    with e[m] > 0 moves c*e[m]*M[m][j] to the exponent e - delta_m +
    delta_j, once per nonzero M[m][j].  The frame fields have one unit
    entry per row, so that is four shifts a term.  It is the field's table
    run by the library's interpreter, on Gaussian-integer numerators over
    sigma's denominator times the table's.  An x-view operand is taken in
    z first, as the library's operators do.  Acts componentwise on spinor
    sections; preserves homogeneous degree and harmonicity (the field is
    skew-symmetric on R^4).
    """
    if isinstance(sigma, SpinorSection):
        return SpinorSection(killing_derivative(sigma.f, pair), killing_derivative(sigma.g, pair))
    den, _ = table = _field_table(pair)
    p = sigma.in_view(Z_VIEW)
    return Polynomial._of(*reduce_parts(_apply(table, p._num), p._den * den), Z_VIEW)


#: Each field's table by the identity of its pair, which the entry keeps
#: alive, so that a lookup neither hashes the pair nor compiles again.
_FIELD_TABLES: dict = {}


def _field_table(pair: KillingPair) -> tuple:
    """The runtime table of ``pair``'s single-field weights, compiled once
    per process."""
    entry = _FIELD_TABLES.get(id(pair))
    if entry is None:
        entry = _FIELD_TABLES[id(pair)] = (pair, _table(_field_weights(pair)))
    return entry[1]


def laplace_section_via_hessian(sigma: SpinorSection) -> SpinorSection:
    """The Laplacian from the full Hessian formula.

    Computes sum_a [ l_a l_a sigma - D_{nabla_a a} sigma ] with the
    connection terms taken from :func:`levi_civita`; they vanish in this
    frame, which is exactly what reduces the Hessian form to
    ``geometry.laplace_section``.
    """
    out = SpinorSection.zero()
    for a in (1, 2, 3):
        pair = KillingPair.left(a)
        out = out + killing_derivative(killing_derivative(sigma, pair), pair)
        correction = levi_civita(a, a)
        if not correction.is_zero():
            out = out - killing_derivative(sigma, KillingPair(correction, quat()))
    return out


def levi_civita(i: int, j: int) -> RationalQuaternion:
    """Covariant derivative constants of the frame: 0 on the diagonal,
    the quaternion product e_i e_j otherwise."""
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError("frame indices must be in 1..3")
    if i == j:
        return quat()
    return quat_multiply(BASIS[i], BASIS[j])


def spin_connection(i: int) -> RationalQuaternion:
    """Spin covariant derivative of the trivialising section: -e_i / 2."""
    if i not in (1, 2, 3):
        raise ValueError("frame index must be in 1..3")
    return BASIS[i] * Fraction(-1, 2)


@lru_cache(maxsize=None)
def spin_contraction() -> RationalQuaternion:
    """sum_i c(e_i) omega_i: the spin connection contracted with the
    Clifford action, the real constant that the Dirac operator adds to the
    frame derivatives; summed once per process."""
    total = quat()
    for i in (1, 2, 3):
        total = total + clifford_multiply(spin_connection(i), i)
    return total


@lru_cache(maxsize=None)
def _unit_product_split(r: int, i: int) -> tuple:
    """The (f, g) parts of the quaternion product e_r * e_i, multiplied
    once per process."""
    return complex_split(quat_multiply(BASIS[r], BASIS[i]))


def right_mul_basis(sigma: SpinorSection, i: int) -> SpinorSection:
    """Right quaternion multiplication of the section's values by e_i.

    The coefficient shuffle is derived from the actual quaternion
    products e_r * e_i rather than hard-coded.
    """
    new_f = Polynomial.zero(sigma.f.view)
    new_g = Polynomial.zero(sigma.g.view)
    for comp, r in ((sigma.f, 0), (sigma.g, 2)):
        if comp.is_zero():
            continue
        alpha, beta = _unit_product_split(r, i)
        if alpha:
            new_f = new_f + comp.scale(alpha)
        if beta:
            new_g = new_g + comp.scale(beta)
    return SpinorSection(new_f, new_g)
