"""D, Delta and the lowerings, evaluated from tables compiled from weights
combined and composed from the frame fields' weights, against their
composed forms: the same canonical numerators, denominator and view.  The
table algebra itself is held to the operators it stands for: a
composition to one operator after the other, a combination to the sum of
the scaled operators.  Hitchin's relation D^2 + D + Delta = 3/4,
[D, beta_R] = 0 and the cubic [D, Delta] = 0 and [Delta, beta] = 0 are
checked as equalities of canonical weights, for every degree at once.

The references below are the operators as the paper writes them, built
from one ``killing_derivative`` pass per frame field and the ring
operations of ``operator_reference``; the library evaluates each operator
in one integer pass.  Both work in the z view.  The x cases hand the
library the x view of each section and the references its z view, so
they also check that every operator takes its operand in z and returns z.

Every weights key the library builds is held to the one format
(shift, *indices), and only ``_table`` pads it to the interpreter's form;
no module but ``geometry`` imports or names the table algebra or a weights
builder, and ``verify`` reads every operator through ``geometry._OPERATORS``.
Delta is also held to r^2 Delta_R4 - k(k+2), an identity that names none
of the Killing tables, and geometry's Delta_R4 to ``laplacian_r4``.  The
work of the section suites and of the export is pinned by counts: the
Dirac and Delta passes on slice q = 0, the builds of the export's degree,
the table builds and top-rung lowerings of the ladder, the identities a
dirac run composes, the sizes of the geometry caches and the calls of the
table builders.  The identities that ``verify`` lifts slice q = 0 by, and
the premises it derives equivariance and harmonicity from, are held to
operators and images that break them.
"""

import ast
import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import operator_reference
import pytest
from operator_reference import (
    killing_derivative,
    laplace_section_via_hessian,
    right_mul_basis,
    spin_contraction,
)

from spinor_s3 import cli, geometry, transfer, verify
from spinor_s3.abstract_dirac import eigenbasis_abstract
from spinor_s3.exactnum import BASIS, complex_split, gauss, quat_multiply, reduce_parts
from spinor_s3.geometry import LEFT, RIGHT, KillingPair, dirac_section, laplace_section
from spinor_s3.polyring import Polynomial, SpinorSection, X_VIEW, Z_VIEW, laplacian_r4
from spinor_s3.transfer import beta_lower, transfer_eigenbasis

#: The library's operator entry points and the tables behind them: the
#: oracles that check them must not call them.
#: The interpreter, the field weights and ``_table`` stay out:
#: ``killing_derivative`` runs one field's compiled weights.
CHECKED_ENTRY_POINTS = frozenset({
    "dirac_section", "laplace_section", "beta_lower", "_apply_block", "_dirac_block",
    "_laplace_block", "_lowering_table", "_dirac_weights", "_laplace_weights",
    "_lowering_weights", "_combine", "_compose", "_compile",
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


def weights_of(table):
    """The canonical weights ``(num, den)`` that compile to ``table``."""
    den, entries = table
    num = {}
    for shift, re, im in entries:
        for terms, (ur, ui) in ((re, (1, 0)), (im, (0, 1))):
            for m, n, c in terms:
                key = (shift, *(i for i in (m, n) if i < 4))
                wr, wi = num.get(key, (0, 0))
                num[key] = (wr + c * ur, wi + c * ui)
    return reduce_parts(num, den)


def apply_weights(p, weights):
    """The operator ``weights``, of any order, on the z-view polynomial p,
    term by term and with no table: the key (shift, *ns) takes c*u^e to c
    times its weight times the product of e[n] over ns at e + shift."""
    num, den = weights
    out = {}
    for exp, (a, b) in p._num.items():
        for (shift, *ns), (wr, wi) in num.items():
            f = math.prod(exp[n] for n in ns)
            if f:
                key = tuple(e + s for e, s in zip(exp, shift))
                re, im = out.get(key, (0, 0))
                out[key] = (re + f * (a * wr - b * wi), im + f * (a * wi + b * wr))
    return Polynomial._of(*reduce_parts(out, p._den * den), Z_VIEW)


def laplace_weights():
    """Delta's runtime table, on f and g alike, as canonical weights."""
    return weights_of(geometry._laplace_block()[1][(0, 0)])


def first_order_weights():
    """The six field weights and the two lowering combinations."""
    fields = [KillingPair.left(i) for i in (1, 2, 3)] + [KillingPair.right(i) for i in (1, 2, 3)]
    return ([geometry._field_weights(pair) for pair in fields]
            + [weights_of(geometry._lowering_table(side)) for side in (LEFT, RIGHT)])


def algebra_operands(seed):
    """Every z monomial of degree <= 5, then Gaussian-rational polynomials."""
    monomials = [Polynomial.monomial((e0, e1, e2, k - e0 - e1 - e2), 1, Z_VIEW)
                 for k in range(6) for e0 in range(k + 1) for e1 in range(k + 1 - e0)
                 for e2 in range(k + 1 - e0 - e1)]
    assert len(monomials) == 126
    rng = random.Random(seed)
    return monomials + [random_poly(rng, Z_VIEW, max_degree=5, n_terms=6) for _ in range(8)]


def test_compose_is_a_after_b():
    weights = first_order_weights()
    tables = [geometry._table(w) for w in weights]
    assert [weights_of(t) for t in tables] == weights
    operands = algebra_operands(33)
    for a, ta in zip(weights, tables):
        for b, tb in zip(weights, tables):
            ab = geometry._compose(a, b)
            tab = geometry._table(ab)
            for p in operands:
                assert apply(p, tab) == apply_weights(p, ab) == apply(apply(p, tb), ta)
    # second order: Delta after each lowering and each block of D, and each
    # of them after Delta, cubic weights that only apply_weights runs; the
    # D blocks are the ones [D, Delta] = 0 is read off in verify
    laplace = laplace_weights()
    tl = geometry._table(laplace)
    blocks = list(dirac_weights().values())
    for b, tb in zip(weights[-2:] + blocks, tables[-2:] + [geometry._table(w) for w in blocks]):
        after, before = geometry._compose(laplace, b), geometry._compose(b, laplace)
        for p in operands:
            assert apply_weights(p, after) == apply(apply(p, tb), tl)
            assert apply_weights(p, before) == apply(apply(p, tl), tb)


def library_weights():
    """Every operator that the library builds as weights, and each
    composition of two of D's blocks, Delta, the lowerings and Delta_R4."""
    fields = [KillingPair.left(i) for i in (1, 2, 3)] + [KillingPair.right(i) for i in (1, 2, 3)]
    ops = [*geometry._dirac_weights().values(), geometry._laplace_weights(),
           *(geometry._lowering_weights(side) for side in (LEFT, RIGHT)),
           geometry._flat_laplacian_weights()]
    return ([geometry._IDENTITY, *map(geometry._field_weights, fields), *ops]
            + [geometry._compose(a, b) for a in ops for b in ops])


def test_every_weights_key_is_a_shift_and_sorted_indices():
    # one format for every order: a 4-tuple shift, never None, then the
    # sorted variables 0..3 of the product, never padded
    orders = Counter()
    for num, _ in library_weights():
        for shift, *ns in num:
            assert isinstance(shift, tuple) and len(shift) == 4
            assert all(type(s) is int for s in shift)
            assert ns == sorted(ns) and all(0 <= n <= 3 for n in ns)
            orders[len(ns)] += 1
    # the identity's constant up to Delta after Delta
    assert set(orders) == {0, 1, 2, 3, 4}
    # and the tables compiled from them keep the shift
    assert all(isinstance(shift, tuple) and len(shift) == 4
               for _, entries in runtime_tables() for shift, _, _ in entries)


def test_table_refuses_weights_of_order_above_2():
    cubic = geometry._compose(geometry._dirac_weights()[(0, 0)], geometry._laplace_weights())
    assert max(len(key) for key in cubic[0]) == 4
    with pytest.raises(ValueError, match="order <= 2"):
        geometry._table(cubic)


def test_combine_is_the_linear_combination():
    weights = first_order_weights() + [geometry._IDENTITY, laplace_weights()]
    c, d = gauss(Fraction(2, 3), Fraction(-5, 7)), gauss(Fraction(-1, 2), 3)
    operands = algebra_operands(34)
    for a, b in zip(weights, weights[1:] + weights[:1]):
        ab = geometry._table(geometry._combine(((a, c), (b, d))))
        ta, tb = geometry._table(a), geometry._table(b)
        for p in operands:
            assert apply(p, ab) == apply(p, ta).scale(c) + apply(p, tb).scale(d)


# -- Hitchin's relation, on the weights --------------------------------------------
#
# D^2 + D + Delta - 3/4 = 0, [D, beta_R] = 0, and the cubic [D, Delta] = 0
# and [Delta, beta] = 0, as equalities of canonical weights: identities of
# the operators on every exponent, so on every degree at once.  D is a 2x2
# block keyed by (src, dst), beta_R and Delta act on f and g alike.

BLOCKS = ((0, 0), (0, 2), (2, 0), (2, 2))
ZERO = ({}, 1)


def dirac_weights():
    """D's runtime blocks as canonical weights."""
    return {block: weights_of(table) for block, table in geometry._dirac_block()[1].items()}


def dirac_built(fields):
    """D's blocks combined block by block, with l_j in place of l_i for
    (i, j) in zip((1, 2, 3), fields)."""
    blocks = {}
    for src, dst in BLOCKS:
        parts = [(geometry._field_weights(KillingPair.left(j)),
                  -complex_split(quat_multiply(BASIS[src], BASIS[i]))[dst // 2])
                 for i, j in zip((1, 2, 3), fields)]
        parts += [(geometry._IDENTITY, Fraction(-3, 2))] * (src == dst)
        blocks[(src, dst)] = geometry._combine(parts)
    return blocks


def hitchin(d):
    """Each block of D^2 + D + Delta - 3/4."""
    laplace = laplace_weights()
    out = {}
    for src, dst in BLOCKS:
        parts = [(geometry._compose(d[(mid, dst)], d[(src, mid)]), 1) for mid in (0, 2)]
        parts.append((d[(src, dst)], 1))
        if src == dst:
            parts += [(laplace, 1), (geometry._IDENTITY, Fraction(-3, 4))]
        out[(src, dst)] = geometry._combine(parts)
    return out


def commutator(d, beta):
    """Each block of [D, beta]."""
    return {block: geometry._combine(((geometry._compose(w, beta), 1),
                                      (geometry._compose(beta, w), -1)))
            for block, w in d.items()}


def scaled(d, block, c):
    return {**d, block: geometry._combine(((d[block], c),))}


def shifted(d, block, c):
    return {**d, block: geometry._combine(((d[block], 1), (geometry._IDENTITY, c)))}


def test_compile_puts_a_block_over_the_lcm_of_its_denominators():
    d = geometry._dirac_weights()
    assert geometry._dirac_block() == geometry._compile(d)
    assert dirac_weights() == dirac_built((1, 2, 3))
    mixed = {**d, (0, 2): geometry._combine(((d[(0, 2)], Fraction(1, 3)),)),
             (2, 2): laplace_weights()}
    assert len({w[1] for w in mixed.values()}) > 1
    for block in (d, mixed):
        den, tables = geometry._compile(block)
        assert den == math.lcm(*(w[1] for w in block.values()))
        assert list(tables) == list(BLOCKS)
        # each table is its weights, rescaled to den
        assert all(tables[key][0] == den and weights_of(tables[key]) == w
                   for key, w in block.items())


def test_hitchin_relation_holds_on_the_weights():
    assert hitchin(dirac_weights()) == dict.fromkeys(BLOCKS, ZERO)


def test_d_commutes_with_delta_on_the_weights():
    assert commutator(dirac_weights(), laplace_weights()) == dict.fromkeys(BLOCKS, ZERO)


@pytest.mark.parametrize("side", [LEFT, RIGHT])
def test_delta_commutes_with_the_lowering_on_the_weights(side):
    laplace, beta = laplace_weights(), weights_of(geometry._lowering_table(side))
    assert geometry._compose(laplace, beta) == geometry._compose(beta, laplace)


def test_cubic_identities_fail_on_a_wrong_laplace_operator():
    # beta_R's partner added to Delta breaks [Delta, beta_R] = 0, a left
    # field added breaks [D, Delta] = 0
    laplace, beta = laplace_weights(), weights_of(geometry._lowering_table(RIGHT))
    wrong = geometry._combine(((laplace, 1), (right_raising(), 1)))
    assert geometry._compose(wrong, beta) != geometry._compose(beta, wrong)
    wrong = geometry._combine(((laplace, 1), (geometry._field_weights(KillingPair.left(1)), 1)))
    assert commutator(dirac_weights(), wrong) != dict.fromkeys(BLOCKS, ZERO)


def test_d_commutes_with_the_right_lowering_only():
    d = dirac_weights()
    right, left = (weights_of(geometry._lowering_table(side)) for side in (RIGHT, LEFT))
    assert commutator(d, right) == dict.fromkeys(BLOCKS, ZERO)
    assert any(w != ZERO for w in commutator(d, left).values())


@pytest.mark.parametrize("mutate", [
    lambda d: scaled(d, (0, 2), -1),
    lambda d: scaled(d, (2, 2), -1),
    lambda d: scaled(d, (0, 2), gauss(0, 1)),
    lambda d: shifted(d, (0, 0), Fraction(-3, 2)),
    lambda d: shifted(shifted(d, (0, 0), 1), (2, 2), 1),
    lambda d: dirac_built((2, 1, 3)),
], ids=["f_to_g_negated", "g_to_g_negated", "f_to_g_times_i", "f_to_f_constant_doubled",
        "constant_minus_half", "l1_l2_swapped"])
def test_hitchin_relation_fails_on_a_wrong_dirac_operator(mutate):
    assert hitchin(mutate(dirac_weights())) != dict.fromkeys(BLOCKS, ZERO)


def test_hitchin_relation_fixes_d_only_up_to_a_frame_automorphism():
    # the cyclic relabelling l1 -> l2 -> l3 -> l1 keeps the quaternion
    # products, so it passes
    d = dirac_built((2, 3, 1))
    assert d != dirac_weights()
    assert hitchin(d) == dict.fromkeys(BLOCKS, ZERO)


def runtime_tables():
    return [*geometry._dirac_block()[1].values(), geometry._laplace_block()[1][(0, 0)],
            *(geometry._lowering_table(side) for side in (LEFT, RIGHT))]


def test_tables_never_reach_a_negative_exponent():
    # where the shift takes e[j] below 0, e[j] = v < -shift[j]: w restricted
    # to that has degree <= 2 in each other exponent, so it is 0 on all of
    # N^4 once it is 0 on {0, 1, 2}^3 there
    cases = 0
    for _, entries in runtime_tables():
        for shift, re, im in entries:
            for j, s in enumerate(shift):
                for v in range(-s):
                    for rest in itertools.product(range(3), repeat=3):
                        x = (*rest[:j], v, *rest[j:], 1)
                        for terms in (re, im):
                            assert sum(c * x[m] * x[n] for m, n, c in terms) == 0
                    cases += 1
    # one exponent driven to -1 by each of D's 4 off-diagonal entries, the
    # 2 lowerings' 4 and each of Delta's 2 moving shifts twice
    assert cases == 12


# -- Delta outside the Killing tables ----------------------------------------------


def test_laplace_table_is_three_shifts_over_denominator_one():
    den, tables = geometry._laplace_block()
    assert list(tables) == [(0, 0), (2, 2)] and tables[(0, 0)] == tables[(2, 2)]
    table_den, entries = tables[(0, 0)]
    assert den == table_den == 1
    forms = {shift: re for shift, re, im in entries if not im}
    assert len(forms) == len(entries)  # every weight is real
    assert forms.keys() == {(0, 0, 0, 0), (-1, -1, 1, 1), (1, 1, -1, -1)}
    # the zero shift: every e[m]*e[n] and every e[m], no constant
    stay = forms[(0, 0, 0, 0)]
    assert sorted((m, n) for m, n, _ in stay if n < 4) == [
        (m, n) for m in range(4) for n in range(m, 4)]
    assert sorted(m for m, n, _ in stay if n == 4) == [0, 1, 2, 3]
    assert len(stay) == 14
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


def test_flat_laplacian_weights_run_laplacian_r4_on_every_monomial():
    # geometry's Delta_R4, weights read off polyring._LAPLACIAN, compiled and
    # run by the interpreter, against the flat Laplacian's own loop
    den, _ = table = geometry._table(geometry._flat_laplacian_weights())
    checked = 0
    for k in range(9):
        for e0 in range(k + 1):
            for e1 in range(k + 1 - e0):
                for e2 in range(k + 1 - e0 - e1):
                    p = Polynomial.monomial((e0, e1, e2, k - e0 - e1 - e2), 1, Z_VIEW)
                    got = Polynomial._of(*reduce_parts(geometry._apply(table, p._num), den), Z_VIEW)
                    assert got == laplacian_r4(p)
                    checked += 1
    assert checked == 495


# -- counts, not timings ---------------------------------------------------------


def count_calls(monkeypatch, *functions):
    """A Counter of the calls of each of ``functions``, by name, made
    through every ``spinor_s3`` module that binds it."""
    calls = Counter()
    for f in functions:
        def counted(*args, f=f):
            calls[f.__name__] += 1
            return f(*args)

        for module in [m for name, m in sys.modules.items() if name.startswith("spinor_s3")]:
            for name, value in list(vars(module).items()):
                if value is f:
                    monkeypatch.setattr(module, name, counted)
    return calls


def test_laplace_suite_applies_delta_to_slice_q_0_and_no_dirac(monkeypatch):
    calls = count_calls(monkeypatch, dirac_section, laplace_section)
    results = verify.run_suites(["laplace"])
    assert len(results) == 14 and all(r.passed for r in results)
    # one Delta pass per section of slice q = 0; the commute lines read
    # [D, Delta] = 0 off the weights and the lift makes no pass
    assert calls["laplace_section"] == sum(2 * (k + 1) for k in range(7)) == 56
    assert calls["dirac_section"] == 0


def test_dirac_suite_applies_d_to_slice_q_0_only(monkeypatch):
    calls = count_calls(monkeypatch, dirac_section)
    assert all(r.passed for r in verify.run_suites(["dirac"], k_max=6))
    assert calls["dirac_section"] == sum(2 * (k + 1) for k in range(7)) == 56


@pytest.fixture
def fresh_flat_laplacian():
    """geometry's Delta_R4 rebuilt on its next read, and again after the
    test; ``run_suites`` rebuilds verify's identities itself."""
    geometry._flat_laplacian_weights.cache_clear()
    yield
    geometry._flat_laplacian_weights.cache_clear()


def test_only_the_laplace_suite_composes_d_with_delta(monkeypatch):
    # [D, Delta] = 0 is read by the laplace lines alone, so a dirac run
    # composes no D block with Delta, and a laplace run does
    compose, composed = verify._compose, []

    def recorded(a, b):
        composed.append((a, b))
        return compose(a, b)

    monkeypatch.setattr(verify, "_compose", recorded)
    laplace, blocks = geometry._laplace_weights(), list(geometry._dirac_weights().values())

    def composes_d_with_delta():
        return any(pair in ((w, laplace), (laplace, w)) for pair in composed for w in blocks)

    assert all(r.passed for r in verify.run_suites(["dirac"], k_max=2))
    assert composed and not composes_d_with_delta()  # [D, beta_R] = 0 only
    assert all(r.passed for r in verify.run_suites(["laplace"], k_max=0))
    assert composes_d_with_delta()


def test_dirac_and_laplace_check_right_equivariance_once_per_degree(monkeypatch):
    # both suites lift by right equivariance, read off the ladder: it builds
    # each table of the degree once per run, lowers only the top rungs
    # itself, and keeps nothing after the run
    tables, lowered = Counter(), Counter()

    def counted(build):
        def table(k):
            tables[build.__name__, k] += 1
            return build(k)
        return table

    lower = verify.beta_lower

    def counted_lower(side, poly):
        lowered[side, poly.degree()] += 1
        return lower(side, poly)

    for build in (verify.transfer_table, verify.recursive_table):
        monkeypatch.setattr(verify, build.__name__, counted(build))
    monkeypatch.setattr(verify, "beta_lower", counted_lower)
    results = verify.run_suites(["dirac", "laplace"], k_max=4)
    assert len(results) == 15 and all(r.passed for r in results)
    assert tables == {(name, k): 1 for name in ("transfer_table", "recursive_table")
                      for k in range(5)}
    # beta_L h_k0 and beta_R h_pk for every p; recursive_table lowers the
    # rest through transfer's own binding
    assert lowered == {(side, k): n for k in range(5) for side, n in ((LEFT, 1), (RIGHT, k + 1))}
    assert verify._ladder.cache_info().currsize == 0


def test_each_run_checks_right_equivariance_afresh(monkeypatch):
    # a clean run first: the next run, on images that are off the right
    # ladder at k = 2, must not read its result
    assert all(r.passed for r in verify.run_suites(["dirac"], k_max=2))
    closed = verify.transfer_table

    def doubled(k):
        table = closed(k)
        if k == 2:
            table[(1, 1)] = table[(1, 1)].scale(2)
        return table

    monkeypatch.setattr(verify, "transfer_table", doubled)
    results = verify.run_suites(["dirac"], k_max=2)
    assert [r.passed for r in results] == [True, True, False]
    assert results[2].name == "eigen-identity k=2"
    assert results[2].detail.endswith("; failed: closed = recursive")


def test_each_run_checks_its_identities_afresh(monkeypatch):
    # a clean run first, then Delta + l1 as the operator the identities
    # read: the same call must compose the new operator, with no cache
    # cleared by hand, and fail the commute lines alone
    assert all(r.passed for r in verify.run_suites(["laplace"], k_max=1))
    wrong = geometry._combine(((geometry._laplace_weights(), 1),
                               (geometry._field_weights(KillingPair.left(1)), 1)))
    monkeypatch.setitem(geometry._OPERATORS, "Delta", lambda: (wrong,))
    results = verify.run_suites(["laplace"], k_max=1)
    assert [r.name for r in results if not r.passed] == [
        f"dirac-laplace commute k={k}" for k in range(2)]


def test_a_run_leaves_every_verify_cache_empty():
    memos = [f for f in vars(verify).values()
             if hasattr(f, "cache_info") and f.__module__ == verify.__name__]
    assert memos
    results = verify.run_suites(["casimir", "dirac", "laplace", "transfer"], k_max=1)
    assert len(results) == 20 and all(r.passed for r in results)
    assert {f.__name__: f.cache_info().currsize for f in memos} == {f.__name__: 0 for f in memos}


def test_a_suites_lines_do_not_depend_on_the_suites_run_with_it():
    alone = [r.line() for suite in ("dirac", "laplace") for r in verify.run_suites([suite], k_max=3)]
    assert alone == [r.line() for r in verify.run_suites(["dirac", "laplace"], k_max=3)]


def test_the_export_builds_its_degree_once_and_applies_d_to_every_section(monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, dirac_section, eigenbasis_abstract, transfer.transfer_table)
    assert cli.main(["eigenbasis", "--k", "12", "--out", str(tmp_path / "basis.json")]) == 0
    assert calls == {"eigenbasis_abstract": 1, "transfer_table": 1, "dirac_section": 2 * 13 ** 2}


# -- the premises of the lift and of the ladder, against what breaks them ----------


def right_raising():
    """-1/2 r2 - i/2 r3, beta_R's partner: it takes slice q to slice q - 1,
    and every section of slice q = 0 to 0."""
    pair = KillingPair.right
    return geometry._combine(((geometry._field_weights(pair(2)), Fraction(-1, 2)),
                              (geometry._field_weights(pair(3)), gauss(0, Fraction(-1, 2)))))


def with_raising_on_the_diagonal(blocks):
    """D's blocks with the right raising added to f -> f and g -> g."""
    return {block: geometry._combine(((w, 1), (right_raising(), 1))) if block in ((0, 0), (2, 2))
            else w for block, w in blocks.items()}


@pytest.fixture
def patch_weights(monkeypatch):
    """Replace a runtime weights builder of ``geometry``, which its compiled
    block and ``_OPERATORS`` both look up: the block is rebuilt from the
    replacement, and again from the original afterwards, and each run
    rebuilds the lift's identities."""
    caches = [geometry._dirac_block, geometry._laplace_block]

    def patch(name, mutate):
        weights = mutate(getattr(geometry, name)())
        monkeypatch.setattr(geometry, name, lambda: weights)
        for f in caches:
            f.cache_clear()

    yield patch
    for f in caches:
        f.cache_clear()


def test_verify_fails_a_dirac_operator_that_does_not_commute_with_beta_r(patch_weights):
    # the raising kills slice q = 0, so D sigma = lambda sigma still holds
    # there, and only the lift's identity can fail the lines
    patch_weights("_dirac_weights", with_raising_on_the_diagonal)
    results = verify.run_suites(["dirac"], k_max=3)
    assert len(results) == 4 and not any(r.passed for r in results)
    for k, r in enumerate(results):
        n = 2 * (k + 1)
        assert r.detail.startswith(f"{n}/{n} sections of slice q = 0 satisfy D sigma = lambda sigma")
        assert r.detail.endswith("; failed: [D, beta_R] = 0")
    # the export's gate applies D to every slice it writes, and sees it
    assert not verify.eigen_identity(3, transfer_eigenbasis(3)).passed


def test_verify_fails_a_laplace_operator_that_does_not_commute_with_beta_r(patch_weights):
    # the raising is a right-field term: it still commutes with D, so only
    # the eigenvalue lines fail, on their lift
    patch_weights("_laplace_weights", lambda w: geometry._combine(((w, 1), (right_raising(), 1))))
    results = verify.run_suites(["laplace"], k_max=3)
    assert [r.passed for r in results] == [False, True] * 4
    assert all(r.detail.endswith("; failed: [Delta, beta_R] = 0") for r in results[::2])


def test_verify_fails_harmonicity_on_a_flat_laplacian_with_a_flipped_sign(
        monkeypatch, fresh_flat_laplacian):
    # 4(d_u0 d_u1 + d_u2 d_u3): the sign that u2 = -z1 puts on the second
    # term, flipped.  It still kills z2^k, but commutes with neither
    # lowering, so only the harmonicity lines fail.  (Negating the whole
    # operator changes no identity, and no line.)
    monkeypatch.setattr(geometry, "_LAPLACIAN", ((0, 1, 4), (2, 3, 4)))
    results = verify.run_suites(["transfer"], k_max=2)
    assert [r.name for r in results if not r.passed] == [f"harmonicity k={k}" for k in range(3)]
    assert all(r.detail.endswith("failed: [beta_L, Delta_R4] = 0, [beta_R, Delta_R4] = 0")
               for r in results if not r.passed)


def test_verify_fails_harmonicity_on_a_flat_laplacian_that_keeps_z2_k(monkeypatch):
    # Delta_R4 plus the identity commutes with both lowerings, but its
    # constant key has no factor of e1, e2 or e3 and keeps z2^k, so only
    # the harmonicity lines fail, on that premise alone
    wrong = geometry._combine(((geometry._flat_laplacian_weights(), 1), (geometry._IDENTITY, 1)))
    monkeypatch.setitem(geometry._OPERATORS, "Delta_R4", lambda: (wrong,))
    results = verify.run_suites(["transfer"], k_max=2)
    assert [r.name for r in results if not r.passed] == [f"harmonicity k={k}" for k in range(3)]
    assert all(r.detail.endswith("; failed: Delta_R4 z2^k = 0") for r in results if not r.passed)


def test_verify_fails_equivariance_on_a_left_lowering_that_does_not_commute_with_beta_r(
        monkeypatch):
    # beta_L plus the right field r1, in the weights the identities read
    # only: r1 commutes with Delta_R4 but not with beta_R, so only the
    # equivariance lines fail
    left = geometry._lowering_weights(LEFT)
    wrong = geometry._combine(((left, 1), (geometry._field_weights(KillingPair.right(1)), 1)))
    monkeypatch.setitem(geometry._OPERATORS, "beta_L", lambda: (wrong,))
    results = verify.run_suites(["transfer"], k_max=2)
    assert [r.name for r in results if not r.passed] == [f"equivariance k={k}" for k in range(3)]
    assert all(r.detail.endswith("failed: [beta_L, beta_R] = 0") for r in results if not r.passed)


def test_verify_fails_a_top_rung_that_beta_r_does_not_kill(monkeypatch):
    # h_12 at k = 2 plus u0 u1 u3, in both tables: the monomial has the
    # image's weight (b + c = 1, b + d = 2), so the tables still agree and
    # the supports still fix (p, q), but beta_R takes it to u1 u3^2.  Every
    # line that reads the ladder fails, and the bookkeeping sees degree 3
    extra = Polynomial.monomial((1, 1, 0, 1), 1, Z_VIEW)

    def bumped(build):
        def table(k):
            out = build(k)
            if k == 2:
                out[(1, 2)] = out[(1, 2)] + extra
            return out
        return table

    for build in (verify.transfer_table, verify.recursive_table):
        monkeypatch.setattr(verify, build.__name__, bumped(build))
    results = verify.run_suites(["dirac", "laplace", "transfer"], k_max=3)
    failed = {r.name: r.detail for r in results if not r.passed}
    assert list(failed) == ["eigen-identity k=2", "laplace eigenvalue k=2", "equivariance k=2",
                            "harmonicity k=2", "exponent bookkeeping k=2"]
    assert all(failed[name].endswith("; failed: beta_R h_pk = 0") for name in (
        "eigen-identity k=2", "laplace eigenvalue k=2", "equivariance k=2", "harmonicity k=2"))


#: The premises of each derived line: the ladder facts it rests on, and
#: its identities.
RIGHT_EQUIVARIANCE = ("closed = recursive", "supports fix (p, q)", "beta_R h_pk = 0")
LADDER = (*RIGHT_EQUIVARIANCE, "beta_L h_k0 = 0")
DERIVED = {
    "equivariance": {*LADDER, "[beta_L, beta_R] = 0"},
    "harmonicity": {*LADDER, "Delta_R4 z2^k = 0", "[beta_L, Delta_R4] = 0",
                    "[beta_R, Delta_R4] = 0"},
    "eigen-identity": {*RIGHT_EQUIVARIANCE, "[D, beta_R] = 0"},
    "laplace eigenvalue": {*RIGHT_EQUIVARIANCE, "[Delta, beta_R] = 0"},
}


@pytest.mark.parametrize("premise", sorted(set().union(*DERIVED.values())))
def test_a_false_premise_fails_the_derived_lines_that_rest_on_it(monkeypatch, premise):
    # the premise forced false at every degree, by its ladder fact, its
    # identity or the kill of z2^k: each derived line that rests on it
    # FAILs and names it alone, and every other line passes, except the
    # closed form line, which reports the ladder's first fact itself
    if premise in LADDER:
        ladder = verify._ladder.__wrapped__

        def forced_ladder(k):
            facts, *rest = ladder(k)
            return ({**facts, premise: False}, *rest)

        monkeypatch.setattr(verify, "_ladder", lru_cache(maxsize=None)(forced_ladder))
    elif premise == "Delta_R4 z2^k = 0":
        monkeypatch.setattr(verify, "_kills_z2_powers", lambda weights: False)
    else:
        commutes = verify._commutes.__wrapped__

        def forced_commutes(a, b):
            name, held = commutes(a, b)
            return name, held and name != premise

        monkeypatch.setattr(verify, "_commutes", lru_cache(maxsize=None)(forced_commutes))
    results = verify.run_suites(["dirac", "laplace", "transfer"], k_max=1)
    assert len(results) == 16
    for r in results:
        kind = r.name.rsplit(" k=", 1)[0]
        rests = premise in DERIVED.get(kind, ()) or (
            kind, premise) == ("closed form = recursive", "closed = recursive")
        assert r.passed is not rests, r.line()
        if kind in DERIVED and rests:
            assert r.detail.endswith(f"; failed: {premise}"), r.line()


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


#: What builds an operator's weights.
WEIGHTS_BUILDERS = frozenset({
    "_dirac_weights", "_laplace_weights", "_lowering_weights", "_flat_laplacian_weights",
})


def test_verify_reads_operators_only_as_weights():
    # verify composes and compares the weights that geometry names, and
    # builds none: it imports no builder, and nothing a weights key is made of
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert {"_OPERATORS", "_compose"} <= imported and "*" not in imported
    assert not imported & (WEIGHTS_BUILDERS | {"_LAPLACIAN", "reduce_parts"})


#: What builds, compiles or runs an operator table.
TABLE_ALGEBRA = frozenset({"_apply", "_table", "_compile", "_combine", "_field_weights"})


def uses_of(names: frozenset, source: str) -> set[tuple[str, int]]:
    """(name, line) of each import or name of one of ``names`` in
    ``source``, a star import counting as all of them."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found |= {(name, alias.lineno) for alias in node.names
                      for name in (names if alias.name == "*" else {alias.name})}
        elif isinstance(node, ast.Name):
            found.add((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.add((node.attr, node.lineno))
    return {(name, line) for name, line in found if name in names}


def test_only_geometry_builds_compiles_or_runs_a_table():
    # one module owns the table format and the weights: every other one
    # reaches an operator through geometry's appliers and _OPERATORS, and
    # only polyring's own loop and geometry read the flat Laplacian's terms
    package = Path(geometry.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    rules = ((TABLE_ALGEBRA | WEIGHTS_BUILDERS, {"geometry.py"}),
             (frozenset({"_LAPLACIAN"}), {"polyring.py", "geometry.py"}))
    for names, owners in rules:
        uses = {module: uses_of(names, source) for module, source in sources.items()}
        assert {module: sorted(found) for module, found in uses.items()
                if found and module not in owners} == {}
        assert {owner: {name for name, _ in uses[owner]} for owner in owners} == dict.fromkeys(
            owners, names)
    assert {"transfer.py", "verify.py"} <= set(sources)
    # the control: each way of reaching a name is seen
    assert uses_of(TABLE_ALGEBRA, "from .geometry import KillingPair, _apply as run\n"
                                  "geometry._table(w)\n_combine(parts)\n") == {
        ("_apply", 1), ("_table", 2), ("_combine", 3)}
    assert uses_of(TABLE_ALGEBRA, "from .geometry import *\n") == {(n, 1) for n in TABLE_ALGEBRA}


def test_builders_run_once_per_process(monkeypatch):
    builders = [geometry._combine, geometry._compose, geometry._compile, geometry._table]
    calls = count_calls(monkeypatch, *builders)
    for f in vars(geometry).values():
        if hasattr(f, "cache_clear") and f.__module__ == geometry.__name__:
            f.cache_clear()
    suites = ["transfer", "dirac", "laplace"]
    assert all(r.passed for r in verify.run_suites(suites, k_max=2))
    assert set(calls) == {f.__name__ for f in builders}
    calls.clear()
    # the second run builds, combines and compiles nothing, and composes
    # the 24 block pairs of its identities again: runs keep no identity
    assert all(r.passed for r in verify.run_suites(suites, k_max=6))
    assert calls == {"_compose": 24}
