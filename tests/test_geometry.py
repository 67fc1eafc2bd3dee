"""Geometric operators on sections and exact/numeric sphere integration."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import fraction_reference as ref
import numpy as np
import pytest
import x_reference
from operator_reference import (
    killing_derivative,
    laplace_section_via_hessian,
    levi_civita,
    spin_connection,
    spin_contraction,
)

from spinor_s3 import geometry, polyring, verify
from spinor_s3.exactnum import BASIS, E0, E3, gauss, quat
from spinor_s3.geometry import (
    KillingPair,
    _field_matrix_int,
    dirac_section,
    l2_inner_product,
    laplace_section,
    monomial_integral,
)
from spinor_s3.polyring import (
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
from spinor_s3.transfer import gram_matrix, iso_closed_form
from spinor_s3.verify import SPHERE_VOLUME, monte_carlo_quadrature, tensor_quadrature

I = gauss(0, 1)
Z1 = -GM1
Z2 = G2


def random_poly(rng, view=Z_VIEW, max_degree=3, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        exp = [0, 0, 0, 0]
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(4)] += 1
        terms[tuple(exp)] = gauss(rng.randint(-9, 9), rng.randint(-9, 9))
    return Polynomial(terms, view)


# -- derivatives along the flows ------------------------------------------------


def test_killing_derivative_pinned_values():
    pair_diag = KillingPair(BASIS[1], BASIS[1])
    assert killing_derivative(Z2, pair_diag) == Z2.scale(gauss(0, -2))

    left = killing_derivative(Z2, KillingPair.left(1))
    assert left == Z2.scale(gauss(0, -1))

    # the diagonal flow is the composition of the two one-sided ones
    right = killing_derivative(Z2, KillingPair.right(1))
    assert killing_derivative(Z2, pair_diag) == left + right


def test_killing_derivative_kills_constants():
    rng = random.Random(20)
    c = Polynomial.constant(gauss(3, -2), Z_VIEW)
    for _ in range(10):
        pair = KillingPair(
            quat(0, rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)),
            quat(0, rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)),
        )
        assert killing_derivative(c, pair).is_zero()


def test_killing_field_tangent_to_sphere():
    points = [
        quat(Fraction(3, 5), Fraction(4, 5), 0, 0),
        quat(0, Fraction(5, 13), Fraction(12, 13), 0),
        quat(Fraction(1, 3), Fraction(2, 3), 0, Fraction(2, 3)),
    ]
    rng = random.Random(21)
    for _ in range(10):
        pair = KillingPair(
            quat(0, rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)),
            quat(0, rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)),
        )
        for x in points:
            assert x.norm_form() == 1
            v = pair.field_at(x)
            inner = sum(a * b for a, b in zip(x.components(), v.components()))
            assert inner == 0


def test_killing_derivative_same_in_both_views():
    rng = random.Random(22)
    for _ in range(20):
        p = random_poly(rng, Z_VIEW)
        pair = KillingPair(
            quat(0, rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)),
            quat(0, rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)),
        )
        via_z = killing_derivative(p, pair)
        via_x = killing_derivative(p.in_view(X_VIEW), pair)
        assert via_x.in_view(Z_VIEW) == via_z


def z_field_matrix(pair):
    """The library's field matrix in z, rows/den, as dense complex pairs."""
    den, rows = _field_matrix_int(pair)
    return [[tuple(Fraction(x, den) for x in row.get(j, (0, 0))) for j in range(4)]
            for row in rows]


def killing_derivative_oracle(p, pair):
    """sum_m d_m p * (sum_j M[m][j] v_j), built from partials and products in
    p's own view and returned in z: M is the library's field matrix in z,
    and in x the one that ``x_reference`` reads off ``field_at``."""
    matrix = z_field_matrix(pair) if p.view == Z_VIEW else x_reference.field_matrix(pair)
    acc = Polynomial.zero(p.view)
    for m in range(4):
        row = Polynomial(
            {tuple(int(n == j) for n in range(4)): gauss(*matrix[m][j]) for j in range(4)}, p.view
        )
        acc = acc + p.partial(m) * row
    return acc.in_view(Z_VIEW)


def random_pair(rng, fractional=False):
    def part():
        d = rng.choice((1, 2, 3)) if fractional else 1
        return Fraction(rng.randint(-3, 3), d)

    return KillingPair(quat(0, part(), part(), part()), quat(0, part(), part(), part()))


@pytest.mark.parametrize("view", [Z_VIEW, X_VIEW])
def test_killing_derivative_matches_partial_oracle(view):
    rng = random.Random(23 if view == Z_VIEW else 24)
    pairs = [KillingPair.left(i) for i in (1, 2, 3)] + [KillingPair.right(i) for i in (1, 2, 3)]
    pairs += [random_pair(rng) for _ in range(4)] + [random_pair(rng, fractional=True) for _ in range(4)]
    # some entry of some integer matrix is not a multiple of its denominator
    assert any(
        x % den
        for den, rows in map(_field_matrix_int, pairs)
        for row in rows
        for c in row.values()
        for x in c
    )
    for pair in pairs:
        for _ in range(6):
            p = random_poly(rng, view, max_degree=4, n_terms=6)
            p = p + Polynomial.monomial((1, 2, 0, 1), gauss(Fraction(2, 3), Fraction(-5, 7)), view)
            got = killing_derivative(p, pair)
            assert got.view == Z_VIEW
            assert got == killing_derivative_oracle(p, pair)


@pytest.mark.parametrize("view", [Z_VIEW, X_VIEW])
def test_killing_derivative_matches_fraction_reference(view):
    # the product rule on plain Fraction dicts against the library's z
    # derivative: in z on the library's field matrix; in x by the route of
    # x_reference, which shares none of the library's z tables
    rng = random.Random(25 if view == Z_VIEW else 26)
    pairs = [KillingPair.left(i) for i in (1, 2, 3)] + [KillingPair.right(i) for i in (1, 2, 3)]
    pairs += [random_pair(rng) for _ in range(3)] + [random_pair(rng, fractional=True) for _ in range(6)]
    fractional = 0
    for pair in pairs:
        if view == Z_VIEW:
            matrix = z_field_matrix(pair)
        else:
            matrix = x_reference.field_matrix(pair)
        fractional += any(x.denominator > 1 for row in matrix for c in row for x in c)
        for _ in range(5):
            a = ref.random_ref(rng)
            if view == Z_VIEW:
                want = ref.derivative(a, matrix)
            else:
                want = x_reference.derivative_via_x(a, pair)
            got = killing_derivative(ref.to_poly(a, Z_VIEW), pair)
            ref.assert_canonical(got)
            assert got.view == Z_VIEW
            assert ref.as_ref(got) == want
    assert fractional


def test_x_route_substitutions_are_inverse():
    for j in range(4):
        unit = {ref.unit(j): (Fraction(1), Fraction(0))}
        assert ref.substitute(x_reference.Z_IN_REAL[j], x_reference.REAL_IN_Z) == unit
        assert ref.substitute(x_reference.REAL_IN_Z[j], x_reference.Z_IN_REAL) == unit


#: What the x route must not name: the library's frame change, the z
#: tables built from it and the view conversion.
Z_TABLE_NAMES = frozenset({
    "_field_matrix_int", "_field_weights", "_table", "_combine", "_compose", "_compile", "_apply",
    "_apply_block", "_FRAME", "_FRAME_INV", "in_view", "_Z_IN_X", "_X_IN_Z",
})


def test_z_table_names_exist():
    # a stale name guards nothing
    assert all(hasattr(geometry, name) or hasattr(polyring, name) or hasattr(Polynomial, name)
               for name in Z_TABLE_NAMES)


@pytest.mark.parametrize("module", [x_reference, ref], ids=["x_reference", "fraction_reference"])
def test_x_route_names_no_z_table(module):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "*" not in imported
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert imported and named
    assert not (imported | named) & Z_TABLE_NAMES


def test_killing_pair_lookups():
    for i in (1, 2, 3):
        assert KillingPair.left(i) is KillingPair.left(i)
        assert KillingPair.left(i) == KillingPair(BASIS[i], quat())
        assert KillingPair.right(i) == KillingPair(quat(), BASIS[i])
        assert hash(KillingPair.right(i)) == hash(KillingPair(quat(), BASIS[i]))
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            KillingPair.left(bad)
        with pytest.raises(ValueError):
            KillingPair.right(bad)


def test_killing_derivative_matches_oracle_on_images():
    for p in range(6):
        for q in range(6):
            poly = iso_closed_form(5, p, q).poly
            for pair in (KillingPair.left(2), KillingPair.right(3), KillingPair(BASIS[1], BASIS[2])):
                assert killing_derivative(poly, pair) == killing_derivative_oracle(poly, pair)


def test_killing_derivative_preserves_degree_and_harmonicity():
    for k in range(1, 9):
        for p in range(k + 1):
            for q in range(k + 1):
                poly = iso_closed_form(k, p, q).poly
                for i in (1, 2, 3):
                    image = killing_derivative(poly, KillingPair.left(i))
                    if not image.is_zero():
                        assert {sum(e) for e in image._num} == {k}
                        assert laplacian_r4(image).is_zero()


# -- Dirac and Laplace on sections ------------------------------------------------


def test_dirac_on_constant_section():
    sigma = SpinorSection(Polynomial.constant(1, Z_VIEW), Polynomial.zero(Z_VIEW))
    out = dirac_section(sigma)
    assert out.f == Polynomial.constant(Fraction(-3, 2), Z_VIEW)
    assert out.g.is_zero()


@pytest.mark.parametrize("k", range(6))
def test_dirac_on_top_power(k):
    sigma = SpinorSection(G2**k, Polynomial.zero(Z_VIEW))
    expected = sigma.scale(Fraction(-2 * k - 3, 2))
    assert dirac_section(sigma) == expected


def test_dirac_k1_plus_section_by_hand():
    # f = -z1, g = -z2 is the transferred plus vector at k=1, q=0
    sigma = SpinorSection(GM1, -Z2)
    assert dirac_section(sigma) == sigma.scale(Fraction(3, 2))


def test_laplace_examples():
    const = SpinorSection(Polynomial.constant(5, Z_VIEW), Polynomial.zero(Z_VIEW))
    assert laplace_section(const).is_zero()

    sigma = SpinorSection(Z2, Polynomial.zero(Z_VIEW))
    assert laplace_section(sigma) == sigma.scale(-3)

    for p in range(3):
        for q in range(3):
            sigma = SpinorSection(iso_closed_form(2, p, q).poly, Polynomial.zero(Z_VIEW))
            assert laplace_section(sigma) == sigma.scale(-8)


def test_laplace_hessian_reduction():
    rng = random.Random(23)
    for _ in range(8):
        sigma = SpinorSection(random_poly(rng), random_poly(rng))
        assert laplace_section_via_hessian(sigma) == laplace_section(sigma)


def test_dirac_laplace_commute_on_random_sections():
    rng = random.Random(24)
    for _ in range(5):
        sigma = SpinorSection(random_poly(rng), random_poly(rng))
        assert laplace_section(dirac_section(sigma)) == dirac_section(laplace_section(sigma))


def test_levi_civita_constants():
    assert levi_civita(1, 1).is_zero()
    assert levi_civita(1, 2) == E3
    assert levi_civita(2, 1) == -E3
    with pytest.raises(ValueError):
        levi_civita(0, 1)


def test_spin_connection():
    for i in (1, 2, 3):
        assert spin_connection(i) == BASIS[i] * Fraction(-1, 2)
    assert spin_contraction() == E0 * Fraction(-3, 2)


# -- exact integration -------------------------------------------------------------


def test_monomial_integral_values():
    assert monomial_integral(0, 0, 0, 0) == 1
    for k in range(9):
        assert monomial_integral(k, k, 0, 0) == Fraction(1, k + 1)
    assert monomial_integral(1, 0, 0, 0) == 0
    assert monomial_integral(0, 0, 1, 1) == Fraction(-1, 2)
    assert all(type(monomial_integral(*e)) is Fraction for e in ((1, 1, 2, 2), (1, 0, 0, 0)))
    with pytest.raises(ValueError):
        monomial_integral(-1, 0, 0, 0)


def test_l2_norms_of_powers():
    for k in range(9):
        assert l2_inner_product(G2**k, G2**k) == gauss(Fraction(1, k + 1))


def test_l2_orthogonality_examples():
    assert l2_inner_product(G2, G1_BAR).is_zero()
    a = iso_closed_form(2, 0, 0).poly
    b = iso_closed_form(2, 1, 0).poly
    assert l2_inner_product(a, b).is_zero()


def test_l2_conjugate_linear_first_argument():
    a, b = G2 + GM1.scale(I), G2_BAR * G2
    scaled = l2_inner_product(a.scale(gauss(2, 3)), b)
    plain = l2_inner_product(a, b)
    assert scaled == gauss(2, 3).conjugate() * plain
    swapped = l2_inner_product(b, a.scale(gauss(2, 3)))
    assert swapped == scaled.conjugate()


def test_l2_positive_on_real_norms():
    rng = random.Random(25)
    for _ in range(10):
        p = random_poly(rng)
        norm = l2_inner_product(p, p)
        assert norm.im == 0 and norm.re >= 0


def test_sphere_volume():
    assert SPHERE_VOLUME == 2.0 * math.pi**2
    assert float(monomial_integral(1, 1, 0, 0)) * SPHERE_VOLUME == pytest.approx(math.pi**2)


# -- quadrature --------------------------------------------------------------------


def test_tensor_quadrature_pinned_values():
    vol, mixed, odd = tensor_quadrature([Polynomial.constant(1, Z_VIEW), G2 * G2_BAR, G2], 9, 5)
    assert abs(vol - 2 * math.pi**2) < 1e-9
    assert abs(mixed - math.pi**2) < 1e-9
    assert abs(odd) < 1e-9


def test_tensor_quadrature_matches_exact_on_degree_4():
    for exps in ((1, 1, 0, 0), (0, 0, 2, 2), (1, 1, 1, 1), (2, 1, 1, 0)):
        exact = float(monomial_integral(*exps)) * SPHERE_VOLUME
        [numeric] = tensor_quadrature([Polynomial.monomial(exps, 1, Z_VIEW)], 6, 4)
        assert abs(numeric - exact) <= 1e-8 * (1 + abs(exact))


def test_monte_carlo_within_three_sigma():
    [(value, stderr)] = monte_carlo_quadrature([G2 * G2_BAR], 40_000, 7)
    exact = float(monomial_integral(1, 1, 0, 0)) * SPHERE_VOLUME
    assert stderr > 0
    assert abs(value - exact) <= 3 * stderr + 1e-12


def test_monte_carlo_reproducible():
    assert monte_carlo_quadrature([G2 * G2_BAR], 30_000, 42) == monte_carlo_quadrature(
        [G2 * G2_BAR], 30_000, 42
    )


# monomials of degree up to 4 and a multi-term polynomial with a complex
# coefficient, so that each result has a real and an imaginary part
BATCH = [
    Polynomial.constant(1, Z_VIEW),
    G2 * G2_BAR,
    Polynomial.monomial((1, 1, 1, 1), 1, Z_VIEW),
    Polynomial.monomial((2, 1, 1, 0), 1, Z_VIEW),
    G2 * G2_BAR + (GM1 * G1_BAR).scale(gauss(2, -3)) + G2.scale(I) + Polynomial.constant(5, Z_VIEW),
]


def test_tensor_batch_equals_single_calls():
    batch = tensor_quadrature(BATCH, 7, 4)
    assert batch == [tensor_quadrature([f], 7, 4)[0] for f in BATCH]


def test_monte_carlo_batch_equals_single_calls():
    # 150 000 samples span three chunks, the last one short
    batch = monte_carlo_quadrature(BATCH, 150_000, 11)
    assert batch == [monte_carlo_quadrature([f], 150_000, 11)[0] for f in BATCH]


def eager_monte_carlo(fs, samples, seed):
    """The Monte Carlo rule with every chunk's child stream spawned before
    the first draw."""
    chunk = 1 << 16
    children = np.random.SeedSequence(seed).spawn(-(-samples // chunk))
    draws = [np.random.default_rng(child).standard_normal((min(chunk, samples - i * chunk), 4))
             for i, child in enumerate(children)]
    for x in draws:
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    out = []
    for f in fs:
        terms = verify._complex_terms(f)
        sums = [0.0] * 4
        for x in draws:
            values = verify._eval_terms(terms, x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3])
            for i, part in enumerate((values.real, values.imag, values.real**2, values.imag**2)):
                sums[i] += float(np.sum(part))
        re, im, sq_re, sq_im = (s / samples for s in sums)
        var = max(sq_re - re**2, 0.0) + max(sq_im - im**2, 0.0)
        out.append((complex(re, im) * SPHERE_VOLUME, SPHERE_VOLUME * math.sqrt(var / samples)))
    return out


@pytest.mark.parametrize("seed", [0, 11])
def test_monte_carlo_spawns_one_child_per_chunk_as_drawn(monkeypatch, seed):
    # two full chunks and a short one: the same draws as spawning all three
    # children first, each asked of the root alone
    samples = 2 * 2**16 + 5
    want = eager_monte_carlo(BATCH[:2], samples, seed)
    real, asked = np.random.SeedSequence, []

    class Recorded:
        def __init__(self, entropy):
            self.seq = real(entropy)

        def spawn(self, n):
            asked.append(n)
            return self.seq.spawn(n)

    monkeypatch.setattr(np.random, "SeedSequence", Recorded)
    assert monte_carlo_quadrature(BATCH[:2], samples, seed) == want
    assert asked == [1, 1, 1]


@pytest.mark.parametrize("call, match", [
    (lambda: tensor_quadrature([G2], 0, 5), "n_angular >= 1"),
    (lambda: tensor_quadrature([G2], 5, 0), "n_radial >= 1"),
    (lambda: monte_carlo_quadrature([G2], 0, 1), "samples >= 2"),
    # one sample has no variance estimate, so it cannot bound its error
    (lambda: monte_carlo_quadrature([G2], 1, 1), "samples >= 2"),
    (lambda: monte_carlo_quadrature([G2], 1000, None), "explicit seed"),
], ids=["angular-0", "radial-0", "samples-0", "samples-1", "seed-none"])
def test_quadrature_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_monte_carlo_accepts_two_samples():
    [(value, stderr)] = monte_carlo_quadrature([G2 * G2_BAR], 2, 1)
    assert math.isfinite(value.real) and stderr >= 0


# -- Gram matrices ------------------------------------------------------------------


def test_gram_k0_is_volume():
    gram = gram_matrix(0)
    assert len(gram) == 1
    assert gram[0][0] == gauss(1)


def test_gram_k1_diagonal_with_known_entry():
    gram = gram_matrix(1)
    assert len(gram) == 4
    for i in range(4):
        for j in range(4):
            if i != j:
                assert gram[i][j].is_zero()
    assert gram[0][0] == gauss(Fraction(1, 2))


def test_gram_diagonal_proportional_to_binomial_pattern():
    for k in range(4):
        gram = gram_matrix(k)
        ratios = set()
        for p in range(k + 1):
            for q in range(k + 1):
                entry = gram[p * (k + 1) + q][p * (k + 1) + q]
                assert entry.im == 0
                ratios.add(entry.re * math.comb(k, p) * math.comb(k, q))
        assert len(ratios) == 1
