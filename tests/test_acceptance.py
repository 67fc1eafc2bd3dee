"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every exact criterion
uses structural equality of canonical forms (no tolerance); the numeric
quadrature checks use relative tolerance 1e-8 for the tensor rule and a
three-standard-error band for seeded Monte Carlo.
"""

import math
import time
from fractions import Fraction

from spinor_s3 import linalg
from spinor_s3.abstract_dirac import (
    dbar_block_int,
    eigenbasis_abstract,
    quadratic_check,
)
from spinor_s3.exactnum import BASIS, gauss, quat_multiply
from spinor_s3.geometry import (
    SPHERE_VOLUME,
    dirac_section,
    l2_inner_product,
    laplace_section,
    monomial_integral,
    monte_carlo_quadrature,
    tensor_quadrature,
)
from spinor_s3.polyring import G2, Polynomial, Z_VIEW, laplacian_r4
from spinor_s3.repspace import casimir, casimir_expected, l_matrix_int
from spinor_s3.transfer import (
    LEFT,
    RIGHT,
    beta_lower,
    gram_matrix,
    iso_closed_form,
    recursive_table,
    transfer_eigenbasis,
)

MC_SAMPLES = 1_000_000
MC_SEED = 0


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_casimir():
    start = time.perf_counter()
    ok = all(casimir(k) == casimir_expected(k) for k in range(13))
    elapsed = time.perf_counter() - start
    _report(1, "casimir identity", ok and elapsed < 1.0,
            f"-(l1^2+l2^2+l3^2) = k(k+2) id for k=0..12 in {elapsed:.2f}s")


def _dense(rows, n):
    """Gaussian-integer rows as n columns of (re, im) pairs."""
    return [[row.get(c, (0, 0)) for c in range(n)] for row in rows]


def test_criterion_02_commutators():
    ok = True
    for k in range(13):
        for i, j in ((1, 2), (2, 3), (3, 1), (2, 1), (3, 2), (1, 3)):
            mi, mj = l_matrix_int(i, k), l_matrix_int(j, k)
            ab, ba = linalg.mat_mul_int(mi, mj), linalg.mat_mul_int(mj, mi)
            comm = [[(x1 - x2, y1 - y2) for (x1, y1), (x2, y2) in zip(r1, r2)]
                    for r1, r2 in zip(_dense(ab, k + 1), _dense(ba, k + 1))]
            prod = quat_multiply(BASIS[i], BASIS[j])
            m, sign = next((idx, int(c)) for idx, c in enumerate(prod.components()) if c != 0)
            expected = [[(2 * sign * x, 2 * sign * y) for x, y in row]
                        for row in _dense(l_matrix_int(m, k), k + 1)]
            ok = ok and comm == expected
    _report(2, "commutators", ok, "[l_i, l_j] = 2 l_(e_i e_j) exactly, k=0..12")


def test_criterion_03_quadratic_relation():
    ok = all(quadratic_check(k) for k in range(13))
    _report(3, "quadratic relation", ok,
            "(Dbar + k)(Dbar - (k+2)) = 0 as an exact matrix identity, k=0..12")


def test_criterion_04_spectrum_two_ways():
    ok = True
    for k in range(9):
        # route (a): the explicit family lists (verified eigenvectors)
        plus, minus = eigenbasis_abstract(k)
        ok = ok and len(plus) == k * (k + 1) and len(minus) == (k + 1) * (k + 2)
        # route (b): exact diagonalization of the per-q block
        n = 2 * (k + 1)
        block = dbar_block_int(k)
        char = [gauss(*c) for c in linalg.charpoly_int(block)]
        expected = linalg.charpoly_from_roots(
            [(Fraction(k + 2), k), (Fraction(-k), k + 2)]
        )
        ok = ok and char == expected
        null_plus = n - linalg.rank_sparse(linalg.shift_int(block, -(k + 2)))
        null_minus = n - linalg.rank_sparse(linalg.shift_int(block, k))
        ok = ok and null_plus * (k + 1) == k * (k + 1)
        ok = ok and null_minus * (k + 1) == (k + 1) * (k + 2)
    _report(4, "spectrum two ways", ok,
            "families and exact diagonalization both give mult(k+1/2) = k(k+1), "
            "mult(-k-3/2) = (k+1)(k+2), k=0..8")


def test_criterion_05_transfer_correctness():
    ok = True
    for k in range(9):
        closed = {
            (p, q): iso_closed_form(k, p, q).poly
            for p in range(k + 1)
            for q in range(k + 1)
        }
        recursive = recursive_table(k)
        for (p, q), poly in closed.items():
            ok = ok and recursive[(p, q)] == poly
            want = closed[(p + 1, q)].scale(k - p) if p < k else Polynomial.zero(Z_VIEW)
            ok = ok and beta_lower(LEFT, poly) == want
            want = closed[(p, q + 1)].scale(k - q) if q < k else Polynomial.zero(Z_VIEW)
            ok = ok and beta_lower(RIGHT, poly) == want
    _report(5, "transfer correctness", ok,
            "closed form = recursive lowering and both equivariance identities, k<=8")


def test_criterion_06_harmonicity():
    ok = True
    for k in range(9):
        for p in range(k + 1):
            for q in range(k + 1):
                ok = ok and laplacian_r4(iso_closed_form(k, p, q).poly).is_zero()
    _report(6, "harmonicity", ok, "flat Laplacian annihilates every image, k<=8")


def test_criterion_07_dirac_eigen_identity():
    start = time.perf_counter()
    ok = True
    count = 0
    for k in range(7):
        entries = transfer_eigenbasis(k)
        ok = ok and len(entries) == 2 * (k + 1) ** 2
        for e in entries:
            ok = ok and (dirac_section(e.section) - e.section.scale(e.eigenvalue)).is_zero()
            count += 1
    elapsed = time.perf_counter() - start
    _report(7, "dirac eigen-identity", ok and elapsed < 30.0,
            f"D sigma = lambda sigma exactly for all {count} sections, k<=6, {elapsed:.1f}s")


def test_criterion_08_laplace_eigenvalue_and_commutation():
    ok = True
    for k in range(7):
        lam = 1 - (k + 1) ** 2
        for e in transfer_eigenbasis(k):
            ok = ok and (laplace_section(e.section) - e.section.scale(lam)).is_zero()
            ok = ok and laplace_section(dirac_section(e.section)) == dirac_section(
                laplace_section(e.section)
            )
    _report(8, "laplace eigenvalue", ok,
            "Delta sigma = (1-(k+1)^2) sigma and Delta D = D Delta on all sections, k<=6")


def test_criterion_09_integration():
    ok = monomial_integral(0, 0, 0, 0) == 1
    for l1 in range(5):
        for l3 in range(5):
            expect = Fraction(
                math.factorial(l1) * math.factorial(l3), math.factorial(l1 + l3 + 1)
            )
            if l3 % 2:
                expect = -expect
            ok = ok and monomial_integral(l1, l1, l3, l3) == expect
    ok = ok and monomial_integral(2, 1, 0, 0) == 0
    for k in range(9):
        ok = ok and l2_inner_product(G2**k, G2**k) == gauss(Fraction(1, k + 1))

    worst = 0.0
    for l1 in range(9):
        for l2 in range(9 - l1):
            for l3 in range(9 - l1 - l2):
                for l4 in range(9 - l1 - l2 - l3):
                    exact = float(monomial_integral(l1, l2, l3, l4)) * SPHERE_VOLUME
                    [numeric] = tensor_quadrature(
                        [Polynomial.monomial((l1, l2, l3, l4), 1, Z_VIEW)], 9, 5
                    )
                    worst = max(worst, abs(numeric - exact) / (1 + abs(exact)))
    ok = ok and worst <= 1e-8

    mc_ok = True
    for exps in ((0, 0, 0, 0), (1, 1, 0, 0), (1, 0, 0, 0), (2, 2, 0, 0), (1, 1, 1, 1)):
        exact = float(monomial_integral(*exps)) * SPHERE_VOLUME
        [(value, stderr)] = monte_carlo_quadrature(
            [Polynomial.monomial(exps, 1, Z_VIEW)], MC_SAMPLES, MC_SEED
        )
        mc_ok = mc_ok and abs(value - exact) <= 3 * stderr + 1e-12
    _report(9, "integration", ok and mc_ok,
            f"exact formula + norms; tensor worst rel err {worst:.3g} <= 1e-8; "
            f"MC {MC_SAMPLES} samples within 3 standard errors")


def test_criterion_10_gram_structure():
    ok = True
    detail = []
    for k in range(6):
        gram = gram_matrix(k)
        n = (k + 1) ** 2
        ok = ok and all(
            gram[i][j].is_zero() for i in range(n) for j in range(n) if i != j
        )
        ratios = set()
        for p in range(k + 1):
            for q in range(k + 1):
                entry = gram[p * (k + 1) + q][p * (k + 1) + q]
                ok = ok and entry.im == 0 and entry.re > 0
                ratios.add(entry.re * math.comb(k, p) * math.comb(k, q))
        ok = ok and len(ratios) == 1
        detail.append(f"k={k}:{next(iter(ratios))}")
    _report(10, "gram structure", ok,
            "diagonal and proportional to the symmetric-power norm pattern "
            "1/(C(k,p)C(k,q)); constants " + ", ".join(detail))
