"""The shifted Dirac operator on the abstract representation side.

Elements of the per-q slice H x H_k live on the complex basis e_r (x) |p>,
r in {0, 2}.  The shifted operator Dbar acts there by

    Dbar(e0 (x) |p>) = (2p - k) e0 (x) |p>   - 2p      e2 (x) |p-1>
    Dbar(e2 (x) |p>) = -(2p - k) e2 (x) |p>  - 2(k-p)  e0 (x) |p+1>

(the |p+1> target in the second line is forced by the invariant spans
{e0 (x) |p>, e2 (x) |p-1>}; see VERIFICATION.md).  The Dirac operator
itself is Dbar - 3/2, with eigenvalues k + 1/2 and -k - 3/2.

Everything here is q-independent: the operator never mixes q, so all
linear algebra happens on 2(k+1)-dimensional blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .exactnum import (
    BASIS,
    GAUSS_ONE,
    GAUSS_ZERO,
    GaussianRational,
    complex_split,
    gauss,
    quat_multiply,
)
from .repspace import KetVector, apply_l

Key = tuple[int, int]  # (r, p) with r in {0, 2}


@dataclass(frozen=True)
class SpinorVector:
    """A vector in the per-q slice, as a sparse (r, p) -> coefficient map."""

    k: int
    q: int
    coeffs: tuple[tuple[Key, GaussianRational], ...]

    def __post_init__(self):
        if not 0 <= self.q <= self.k:
            raise ValueError(f"q={self.q} outside 0..{self.k}")
        clean = {}
        for (r, p), c in self.coeffs:
            if r not in (0, 2):
                raise ValueError(f"slot index r={r} must be 0 or 2")
            if not 0 <= p <= self.k:
                raise ValueError(f"ket index p={p} outside 0..{self.k}")
            if not c.is_zero():
                key = (r, p)
                clean[key] = clean[key] + c if key in clean else c
        items = tuple(sorted((key, c) for key, c in clean.items() if not c.is_zero()))
        object.__setattr__(self, "coeffs", items)

    @staticmethod
    def from_dict(k: int, q: int, coeffs: dict[Key, GaussianRational]) -> "SpinorVector":
        return SpinorVector(k, q, tuple(coeffs.items()))

    @staticmethod
    def basis(k: int, q: int, r: int, p: int) -> "SpinorVector":
        return SpinorVector(k, q, (((r, p), GAUSS_ONE),))

    def as_dict(self) -> dict[Key, GaussianRational]:
        return dict(self.coeffs)

    def coefficient(self, r: int, p: int) -> GaussianRational:
        return self.as_dict().get((r, p), GAUSS_ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    # the constructor merges repeated keys, so a sum is a concatenation
    def __add__(self, other: "SpinorVector") -> "SpinorVector":
        assert (self.k, self.q) == (other.k, other.q)
        return SpinorVector(self.k, self.q, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpinorVector") -> "SpinorVector":
        assert (self.k, self.q) == (other.k, other.q)
        negated = tuple((key, -c) for key, c in other.coeffs)
        return SpinorVector(self.k, self.q, self.coeffs + negated)

    def scale(self, c) -> "SpinorVector":
        if not isinstance(c, GaussianRational):
            c = gauss(c)
        return SpinorVector(self.k, self.q, tuple((key, v * c) for key, v in self.coeffs))

    # Basis order used for block matrices: e0 (x) |0..k|, then e2 (x) |0..k>.
    def dense(self) -> list[GaussianRational]:
        n = self.k + 1
        out = [GAUSS_ZERO] * (2 * n)
        for (r, p), c in self.coeffs:
            out[p if r == 0 else n + p] = c
        return out

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "q": self.q,
            "coeffs": [
                {"r": r, "p": p, "coeff": c.to_json()} for (r, p), c in self.coeffs
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "SpinorVector":
        coeffs = tuple(
            ((t["r"], t["p"]), GaussianRational.from_json(t["coeff"]))
            for t in obj["coeffs"]
        )
        return SpinorVector(obj["k"], obj["q"], coeffs)


def dbar_apply(v: SpinorVector) -> SpinorVector:
    """Apply Dbar using the closed two-term formulas."""
    k = v.k
    out: dict[Key, GaussianRational] = {}

    def add(r: int, p: int, c: GaussianRational):
        if 0 <= p <= k and not c.is_zero():
            out[(r, p)] = out.get((r, p), GAUSS_ZERO) + c

    for (r, p), c in v.coeffs:
        if r == 0:
            add(0, p, c * gauss(2 * p - k))
            add(2, p - 1, c * gauss(-2 * p))
        else:
            add(2, p, c * gauss(-(2 * p - k)))
            add(0, p + 1, c * gauss(-2 * (k - p)))
    return SpinorVector.from_dict(k, v.q, out)


def dbar_apply_first_principles(v: SpinorVector) -> SpinorVector:
    """Apply Dbar from its definition -sum_i (l_i sigma) * e_i.

    The derivative acts through repspace.apply_l on the ket factor and the
    right multiplication acts through actual quaternion products on the
    e_r factor, re-split into the (e0, e2) basis.  Cross-checked against
    :func:`dbar_apply` in the test suite.
    """
    k = v.k
    kets = {0: KetVector.zero(k), 2: KetVector.zero(k)}
    for (r, p), c in v.coeffs:
        kets[r] = kets[r] + KetVector.basis(k, p).scale(c)

    out: dict[Key, GaussianRational] = {}
    for r in (0, 2):
        if kets[r].is_zero():
            continue
        for i in (1, 2, 3):
            moved = apply_l(i, kets[r])
            alpha, beta = complex_split(quat_multiply(BASIS[r], BASIS[i]))
            for p, c in enumerate(moved.coeffs):
                if c.is_zero():
                    continue
                if not alpha.is_zero():
                    key = (0, p)
                    out[key] = out.get(key, GAUSS_ZERO) - c * alpha
                if not beta.is_zero():
                    key = (2, p)
                    out[key] = out.get(key, GAUSS_ZERO) - c * beta
    return SpinorVector.from_dict(k, v.q, out)


def dbar_block_matrix(k: int) -> linalg.Matrix:
    """Matrix of Dbar on one q slice, basis e0 (x) |0..k> then e2 (x) |0..k>."""
    n = 2 * (k + 1)
    cols = []
    for r in (0, 2):
        for p in range(k + 1):
            cols.append(dbar_apply(SpinorVector.basis(k, 0, r, p)).dense())
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def quadratic_check(k: int) -> bool:
    """True iff (Dbar + k)(Dbar - (k+2)) vanishes on the whole block."""
    n = 2 * (k + 1)
    m = dbar_block_matrix(k)
    plus = linalg.mat_add(m, linalg.mat_scale(linalg.identity(n), gauss(k)))
    minus = linalg.mat_add(m, linalg.mat_scale(linalg.identity(n), gauss(-(k + 2))))
    return linalg.is_zero_matrix(linalg.mat_mul(plus, minus))


@dataclass(frozen=True)
class EigenFamily:
    """One Dirac eigenvalue with its explicit eigenvectors.

    ``positions[j]`` is the (q, p) label of ``vectors[j]``; for the minus
    family p runs 0..k+1, the two boundary values marking the
    one-dimensional invariant spans.
    """

    k: int
    dirac_eigenvalue: Fraction
    label: str  # "plus" or "minus"
    vectors: tuple[SpinorVector, ...]
    positions: tuple[tuple[int, int], ...] = field(default=())

    def __len__(self) -> int:
        return len(self.vectors)


def eigenbasis_abstract(k: int) -> tuple[EigenFamily, EigenFamily]:
    """The explicit eigenvector families on all q slices.

    Plus family (Dirac eigenvalue k + 1/2), p = 1..k:
        e0 (x) |p>  -  e2 (x) |p-1>
    Minus family (Dirac eigenvalue -k - 3/2):
        e0 (x) |0>,
        (p-k-1) e0 (x) |p>  -  p e2 (x) |p-1>   for p = 1..k,
        e2 (x) |k>.
    """
    if k < 0:
        raise ValueError("degree k must be >= 0")
    plus_vectors = []
    plus_positions = []
    minus_vectors = []
    minus_positions = []
    for q in range(k + 1):
        for p in range(1, k + 1):
            plus_vectors.append(
                SpinorVector(k, q, (((0, p), GAUSS_ONE), ((2, p - 1), gauss(-1))))
            )
            plus_positions.append((q, p))
        minus_vectors.append(SpinorVector.basis(k, q, 0, 0))
        minus_positions.append((q, 0))
        for p in range(1, k + 1):
            minus_vectors.append(
                SpinorVector(k, q, (((0, p), gauss(p - k - 1)), ((2, p - 1), gauss(-p))))
            )
            minus_positions.append((q, p))
        minus_vectors.append(SpinorVector.basis(k, q, 2, k))
        minus_positions.append((q, k + 1))

    plus = EigenFamily(
        k, Fraction(2 * k + 1, 2), "plus", tuple(plus_vectors), tuple(plus_positions)
    )
    minus = EigenFamily(
        k, Fraction(-2 * k - 3, 2), "minus", tuple(minus_vectors), tuple(minus_positions)
    )
    _verify_families(k, plus, minus)
    return plus, minus


def _verify_families(k: int, plus: EigenFamily, minus: EigenFamily) -> None:
    if len(plus) != k * (k + 1) or len(minus) != (k + 1) * (k + 2):
        raise AssertionError("family cardinality mismatch")
    for family in (plus, minus):
        dbar_eigenvalue = gauss(family.dirac_eigenvalue + Fraction(3, 2))
        for v in family.vectors:
            if not (dbar_apply(v) - v.scale(dbar_eigenvalue)).is_zero():
                raise AssertionError(
                    f"vector {v} is not a Dbar eigenvector for {dbar_eigenvalue}"
                )


@dataclass(frozen=True)
class SpectrumRow:
    k: int
    eigenvalue: Fraction
    multiplicity: int

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "eigenvalue": f"{self.eigenvalue.numerator}/{self.eigenvalue.denominator}",
            "multiplicity": self.multiplicity,
        }


def spectrum_table(k_max: int) -> list[SpectrumRow]:
    """Dirac eigenvalues with complex multiplicities, counted from the
    explicit families; zero-multiplicity rows are omitted."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    rows = []
    for k in range(k_max + 1):
        plus, minus = eigenbasis_abstract(k)
        for family in (plus, minus):
            if len(family):
                rows.append(SpectrumRow(k, family.dirac_eigenvalue, len(family)))
    return rows
