"""D, Delta and the lowerings, evaluated from tables combined and composed
from the frame fields' tables, against their composed forms: the same
canonical numerators, denominator and view.  The table algebra itself is
held to the operators it stands for: a composition to one operator after
the other, a combination to the sum of the scaled operators.

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

from spinor_s3 import geometry, transfer, verify
from spinor_s3.exactnum import gauss, reduce_parts
from spinor_s3.geometry import KillingPair, dirac_section, laplace_section
from spinor_s3.polyring import Polynomial, SpinorSection, X_VIEW, Z_VIEW, laplacian_r4
from spinor_s3.transfer import LEFT, RIGHT, beta_lower, transfer_eigenbasis

#: The library's operator entry points and the tables behind them: the
#: oracles that check them must not call them.
#: The interpreter and the field table stay out: ``killing_derivative``
#: runs one field's table.
CHECKED_ENTRY_POINTS = frozenset({
    "dirac_section", "laplace_section", "beta_lower", "_apply_block", "_dirac_tables",
    "_laplace_table", "_lowering_table", "_combine", "_compose",
})


def test_checked_entry_points_exist():
    # a stale name guards nothing
    assert all(hasattr(geometry, name) or hasattr(transfer, name) for name in CHECKED_ENTRY_POINTS)


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


# -- the table algebra ------------------------------------------------------------


def apply(p, table):
    """The operator ``table`` on the z-view polynomial p."""
    den, _ = table
    return Polynomial._of(*reduce_parts(geometry._apply(table, p._num), p._den * den), Z_VIEW)


def first_order_tables():
    fields = [KillingPair.left(i) for i in (1, 2, 3)] + [KillingPair.right(i) for i in (1, 2, 3)]
    return ([geometry._field_table(pair) for pair in fields]
            + [transfer._lowering_table(side) for side in (LEFT, RIGHT)])


def algebra_operands(seed):
    """Every z monomial of degree <= 5, then Gaussian-rational polynomials."""
    monomials = [Polynomial.monomial((e0, e1, e2, k - e0 - e1 - e2), 1, Z_VIEW)
                 for k in range(6) for e0 in range(k + 1) for e1 in range(k + 1 - e0)
                 for e2 in range(k + 1 - e0 - e1)]
    assert len(monomials) == 126
    rng = random.Random(seed)
    return monomials + [random_poly(rng, Z_VIEW, max_degree=5, n_terms=6) for _ in range(8)]


def test_compose_is_a_after_b():
    tables = first_order_tables()
    operands = algebra_operands(33)
    for a in tables:
        for b in tables:
            ab = geometry._compose(a, b)
            for p in operands:
                assert apply(p, ab) == apply(apply(p, b), a)


def test_combine_is_the_linear_combination():
    tables = first_order_tables() + [geometry._IDENTITY, geometry._laplace_table()]
    c, d = gauss(Fraction(2, 3), Fraction(-5, 7)), gauss(Fraction(-1, 2), 3)
    operands = algebra_operands(34)
    for a, b in zip(tables, tables[1:] + tables[:1]):
        ab = geometry._combine(((a, c), (b, d)))
        for p in operands:
            assert apply(p, ab) == apply(p, a).scale(c) + apply(p, b).scale(d)


# -- Delta outside the Killing tables ----------------------------------------------


def test_laplace_table_is_three_shifts_over_denominator_one():
    den, entries = geometry._laplace_table()
    assert den == 1
    forms = {shift: re for shift, re, im in entries if not im}
    assert len(forms) == len(entries)  # every weight is real
    assert forms.keys() == {None, (-1, -1, 1, 1), (1, 1, -1, -1)}
    # the zero shift: every e[m]*e[n] and every e[m], no constant
    assert sorted((m, n) for m, n, _ in forms[None] if n < 4) == [
        (m, n) for m in range(4) for n in range(m, 4)]
    assert sorted(m for m, n, _ in forms[None] if n == 4) == [0, 1, 2, 3]
    assert len(forms[None]) == 14
    # one product term each: e0*e1 moves to the conjugate pair, e2*e3 back
    assert forms[(-1, -1, 1, 1)] == ((0, 1, -4),)
    assert forms[(1, 1, -1, -1)] == ((2, 3, -4),)


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
