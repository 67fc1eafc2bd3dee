"""D, Delta and the lowerings, evaluated from merged shift tables, against
their composed forms: the same canonical numerators, denominator and view.

The references below are the operators as the paper writes them, built
from one ``killing_derivative`` pass per frame field and the ring
operations of ``operator_reference``; the library evaluates each operator
in one integer pass.  Both work in the z view.  The x cases hand the
library the x view of each section and the references its z view, so
they also check that every operator takes its operand in z and returns z.
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

from spinor_s3.exactnum import gauss
from spinor_s3.geometry import KillingPair, dirac_section, laplace_section
from spinor_s3.polyring import Polynomial, SpinorSection, X_VIEW, Z_VIEW
from spinor_s3.transfer import LEFT, RIGHT, beta_lower, transfer_eigenbasis

#: The library's operator entry points and the tables behind them: the
#: oracles that check them must not call them.
CHECKED_ENTRY_POINTS = frozenset({
    "dirac_section", "laplace_section", "beta_lower", "_dirac_tables",
    "_laplace_image", "_laplace_poly", "_lowering_table",
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
