"""Exact spectrum and polynomial eigenbasis of the spin Dirac operator on
the round 3-sphere.

The library computes with big-integer rationals end to end: quaternion
algebra, harmonic polynomials, the Sp(1) representation operators, the
Dirac block matrices, the transfer to polynomial sections and the sphere
integrals are all exact.  Floating point enters only in the quadrature
cross-checks.
"""

from .exactnum import (
    GaussianRational,
    RationalQuaternion,
    assemble,
    clifford_multiply,
    complex_split,
    gauss,
    quat,
    quat_multiply,
)
from .polyring import (
    G1_BAR,
    G2,
    G2_BAR,
    GM1,
    Polynomial,
    SpinorSection,
    X_VIEW,
    Z_VIEW,
    laplacian_r4,
)
from .repspace import KetVector, apply_l, apply_sl2, casimir
from .abstract_dirac import (
    EigenFamily,
    SpinorVector,
    dbar_apply,
    eigenbasis_abstract,
    quadratic_check,
    spectrum_table,
)
from .transfer import (
    TransferImage,
    TransferredEigenvector,
    beta_lower,
    gram_matrix,
    iso_closed_form,
    recursive_table,
    transfer_eigenbasis,
    transfer_table,
)
from .geometry import (
    SPHERE_VOLUME,
    KillingPair,
    dirac_section,
    l2_inner_product,
    laplace_section,
    monomial_integral,
    monte_carlo_quadrature,
    tensor_quadrature,
)

__version__ = "0.1.0"
