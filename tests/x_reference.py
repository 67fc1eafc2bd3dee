"""The Killing derivative taken in the real coordinates, as a test oracle
that shares no code with the library's z tables.

The field x -> xS - Tx is read off ``KillingPair.field_at`` at the four
basis quaternions: entry [m][n] of its matrix is the m-th component of the
field at e_n.  A polynomial in x0..x3 is differentiated by the product
rule on the Fraction dicts of ``fraction_reference``.  A z-view
polynomial is taken into x and back by the substitutions below, written
out from z1 = x0 + i x1 and z2 = x2 + i x3.  The library's frame change,
its shift tables and its view conversion are never named here
(``test_x_route_names_no_z_table`` guards that).
"""

from fractions import Fraction

import fraction_reference as ref

from spinor_s3.exactnum import BASIS


def _linear(*coeffs):
    """sum_j c_j v_j from the complex pairs c_j, given as (re, im) ints or
    Fractions."""
    return {ref.unit(j): (Fraction(re), Fraction(im))
            for j, (re, im) in enumerate(coeffs) if re or im}


HALF = Fraction(1, 2)

#: u0 = z2, u1 = conj z2, u2 = -z1, u3 = conj z1 in the real coordinates.
Z_IN_REAL = (
    _linear((0, 0), (0, 0), (1, 0), (0, 1)),
    _linear((0, 0), (0, 0), (1, 0), (0, -1)),
    _linear((-1, 0), (0, -1), (0, 0), (0, 0)),
    _linear((1, 0), (0, -1), (0, 0), (0, 0)),
)
#: x0 = (u3 - u2)/2, x1 = i(u2 + u3)/2, x2 = (u0 + u1)/2, x3 = i(u1 - u0)/2.
REAL_IN_Z = (
    _linear((0, 0), (0, 0), (-HALF, 0), (HALF, 0)),
    _linear((0, 0), (0, 0), (0, HALF), (0, HALF)),
    _linear((HALF, 0), (HALF, 0), (0, 0), (0, 0)),
    _linear((0, -HALF), (0, HALF), (0, 0), (0, 0)),
)


def field_matrix(pair):
    """The field of ``pair`` in the real coordinates, as complex pairs."""
    cols = [pair.field_at(e).components() for e in BASIS]
    return [[(cols[n][m], Fraction(0)) for n in range(4)] for m in range(4)]


def derivative_via_x(a, pair):
    """The derivative of the z-view reference polynomial ``a`` along the
    field of ``pair``: into x, the product rule there, back into z."""
    in_x = ref.substitute(a, Z_IN_REAL)
    return ref.substitute(ref.derivative(in_x, field_matrix(pair)), REAL_IN_Z)
