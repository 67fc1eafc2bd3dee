"""Exact spectrum and polynomial eigenbasis of the spin Dirac operator on
the round 3-sphere.

The library computes with big-integer rationals end to end: quaternion
algebra, harmonic polynomials, the Sp(1) representation operators, the
Dirac block matrices, the transfer to polynomial sections and the sphere
integrals are all exact.  Floating point enters only in the quadrature
cross-checks.
"""

__version__ = "0.1.0"
