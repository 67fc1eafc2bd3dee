"""D, Delta and the lowerings, evaluated from merged shift tables, against
their composed forms: the same canonical numerators, denominator and view.

The references below are the operators as the paper writes them, built
from one ``killing_derivative`` pass per frame field and the ring
operations of ``operator_reference``; the library evaluates each operator
in one integer pass.  Both work in the z view.  The x cases hand the
library the x view of each section and the references its z view, so
they also check that every operator takes its operand in z and returns z.

Delta is also held to r^2 Delta_R4 - k(k+2), an identity that names none
of the Killing tables, and the laplace suite's work is pinned by counts:
Dirac passes per section and the sizes of the geometry caches.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import operator_reference
import pytest
from operator_reference import (
    killing_derivative,
    laplace_section_via_hessian,
    right_mul_basis,
    spin_contraction,
)

from spinor_s3 import geometry, verify
from spinor_s3.exactnum import gauss
from spinor_s3.geometry import KillingPair, dirac_section, laplace_section
from spinor_s3.polyring import Polynomial, SpinorSection, X_VIEW, Z_VIEW, laplacian_r4
from spinor_s3.transfer import LEFT, RIGHT, beta_lower, transfer_eigenbasis

#: The library's operator entry points and the tables behind them: the
#: oracles that check them must not call them.
CHECKED_ENTRY_POINTS = frozenset({
    "dirac_section", "laplace_section", "beta_lower", "_dirac_tables",
    "_laplace_image", "_laplace_poly", "_laplace_table", "_lowering_table",
})


def test_operator_reference_calls_no_checked_entry_point():
    tree = ast.parse(Path(operator_reference.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "*" not in imported
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert imported
    assert not (imported | named) & CHECKED_ENTRY_POINTS


def dirac_reference(sigma):
    """-sum_i (l_i sigma) * e_i plus sigma times the contracted spin
    connection, -3/2 (``test_spin_connection`` pins it real)."""
    out = sigma.scale(spin_contraction().c0)
    for i in (1, 2, 3):
        out = out - right_mul_basis(killing_derivative(sigma, KillingPair.left(i)), i)
    return out


def lower_reference(side, poly):
    """-1/2 * d(. along pair(2)) + i/2 * d(. along pair(3)), two passes."""
    pair = KillingPair.left if side == LEFT else KillingPair.right
    d2 = killing_derivative(poly, pair(2))
    d3 = killing_derivative(poly, pair(3))
    return d2.scale(Fraction(-1, 2)) + d3.scale(gauss(0, Fraction(1, 2)))


def parts(p):
    return p._num, p._den, p.view


def assert_same_section(got, want):
    assert parts(got.f) == parts(want.f)
    assert parts(got.g) == parts(want.g)


def random_poly(rng, view, max_degree=4, n_terms=5):
    """Terms of mixed degrees and coefficient denominators."""
    terms = {}
    for _ in range(n_terms):
        exp = [0, 0, 0, 0]
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(4)] += 1
        den = rng.choice((1, 2, 3, 5, 6))
        terms[tuple(exp)] = gauss(Fraction(rng.randint(-9, 9), den), Fraction(rng.randint(-9, 9), den))
    return Polynomial(terms, view)


def random_sections(seed, view):
    rng = random.Random(seed)
    sections = [SpinorSection(random_poly(rng, view), random_poly(rng, view)) for _ in range(12)]
    sections.append(SpinorSection(random_poly(rng, view), Polynomial.zero(view)))
    sections.append(SpinorSection(Polynomial.zero(view), random_poly(rng, view)))
    sections.append(SpinorSection.zero(view))
    assert any(s.degree is None for s in sections)
    assert len({p._den for s in sections for p in (s.f, s.g)}) > 2
    return sections


def in_view(sigma, view):
    return SpinorSection(sigma.f.in_view(view), sigma.g.in_view(view))


def assert_operators_match(operand, sigma):
    """The library on ``operand`` against the composed forms on ``sigma``,
    the z view of ``operand``."""
    assert_same_section(dirac_section(operand), dirac_reference(sigma))
    assert_same_section(laplace_section(operand), laplace_section_via_hessian(sigma))
    for side in (LEFT, RIGHT):
        for comp, comp_z in ((operand.f, sigma.f), (operand.g, sigma.g)):
            assert parts(beta_lower(side, comp)) == parts(lower_reference(side, comp_z))


@pytest.mark.parametrize("view", [Z_VIEW, X_VIEW])
def test_operators_match_composed_forms_on_random_sections(view):
    for sigma in random_sections(31 if view == Z_VIEW else 32, view):
        assert_operators_match(sigma, in_view(sigma, Z_VIEW))


# every section up to k = 12 in z; handed over in x, whose conversion back
# to z costs far more than the operators, up to k = 4
@pytest.mark.parametrize("k, view", [(k, Z_VIEW) for k in range(13)] + [(k, X_VIEW) for k in range(5)])
def test_operators_match_composed_forms_on_the_eigenbasis(k, view):
    for entry in transfer_eigenbasis(k):
        assert_operators_match(in_view(entry.section, view), entry.section)


# -- Delta outside the Killing tables ----------------------------------------------


def test_laplace_table_is_three_shifts_over_denominator_one():
    den, shifts = geometry._laplace_table()
    assert den == 1
    basis = geometry._FORM_BASIS
    forms = {shift: [(basis[t], c) for t, c in re] for shift, re, im in shifts if not im}
    assert len(forms) == len(shifts)  # every weight is real
    assert forms.keys() == {None, (-1, -1, 1, 1), (1, 1, -1, -1)}
    assert sum(len(x) == 2 for x, _ in forms[None]) == 10
    assert sum(len(x) == 1 for x, _ in forms[None]) == 4
    # one product term each: e0*e1 moves to the conjugate pair, e2*e3 back
    assert forms[(-1, -1, 1, 1)] == [((0, 1), -4)]
    assert forms[(1, 1, -1, -1)] == [((2, 3), -4)]


def test_laplace_is_r2_flat_laplacian_minus_k_k_plus_2_on_every_monomial():
    # on a degree-k polynomial, sum_i l_i l_i = r^2 Delta_R4 - k(k+2), with
    # r^2 = u0 u1 - u2 u3 = |z1|^2 + |z2|^2: the flat Laplacian and the ring
    # product only, nothing of the Killing tables
    r2 = Polynomial({(1, 1, 0, 0): 1, (0, 0, 1, 1): -1}, Z_VIEW)
    checked = 0
    for k in range(9):
        for e0 in range(k + 1):
            for e1 in range(k + 1 - e0):
                for e2 in range(k + 1 - e0 - e1):
                    p = Polynomial.monomial((e0, e1, e2, k - e0 - e1 - e2), 1, Z_VIEW)
                    out = laplace_section(SpinorSection(p, Polynomial.zero(Z_VIEW)))
                    assert out.f == r2 * laplacian_r4(p) - p.scale(k * (k + 2))
                    assert out.g.is_zero()
                    checked += 1
    assert checked == 495


# -- counts, not timings ---------------------------------------------------------


def test_laplace_suite_makes_one_dirac_pass_per_section(monkeypatch):
    calls = []

    def counted(sigma):
        calls.append(sigma)
        return dirac_section(sigma)

    monkeypatch.setattr(verify, "dirac_section", counted)
    results = verify.run_suites(["laplace"])
    assert len(results) == 14 and all(r.passed for r in results)
    assert len(calls) == sum(2 * (k + 1) ** 2 for k in range(7)) == 280


def test_geometry_caches_do_not_grow_with_the_degree():
    cached = [f for f in vars(geometry).values()
              if hasattr(f, "cache_info") and f.__module__ == geometry.__name__]
    assert cached
    for f in cached:
        f.cache_clear()
    assert all(r.passed for r in verify.run_suites(["laplace"], k_max=3))
    sizes = {f.__name__: f.cache_info().currsize for f in cached}
    assert all(r.passed for r in verify.run_suites(["laplace"], k_max=12))
    assert {f.__name__: f.cache_info().currsize for f in cached} == sizes
    assert max(sizes.values()) <= 8
