"""Polynomial ring: arithmetic, view changes, the flat Laplacian and
exact evaluation."""

import math
import random
from fractions import Fraction

import fraction_reference as ref
import pytest
from operator_reference import right_mul_basis

from spinor_s3.exactnum import BASIS, GaussianRational, gauss, quat_multiply, rational_to_str
from spinor_s3.polyring import (
    G1_BAR,
    G2,
    G2_BAR,
    GM1,
    Polynomial,
    SpinorSection,
    X0,
    X1,
    X2,
    X_VIEW,
    Z_VIEW,
    laplacian_r4,
)
from spinor_s3.transfer import iso_closed_form

I = gauss(0, 1)
Z1 = -GM1
Z2 = G2


def random_poly(rng, view, max_degree=3, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        exp = [0, 0, 0, 0]
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(4)] += 1
        terms[tuple(exp)] = GaussianRational(
            Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))
        )
    return Polynomial(terms, view)


def random_point(rng):
    return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(4))


def test_poly_arith_examples():
    assert (G2 * G2).terms == {(2, 0, 0, 0): gauss(1)}
    assert (Z1 + Z2) * (Z1 - Z2) == Z1 * Z1 - Z2 * Z2
    assert G2.scale(I).scale(I) == -G2


def test_no_zero_terms_stored():
    p = G2 - G2
    assert p.terms == {} and p.is_zero()
    assert (G2 * 0).is_zero()


def test_change_view_examples():
    assert X2.in_view(Z_VIEW) == (G2 + G2_BAR).scale(Fraction(1, 2))
    gm1_x = GM1.in_view(X_VIEW)
    assert gm1_x.terms == {(1, 0, 0, 0): gauss(-1), (0, 1, 0, 0): gauss(0, -1)}


def test_change_view_roundtrip_random():
    rng = random.Random(10)
    for _ in range(40):
        p = random_poly(rng, rng.choice([X_VIEW, Z_VIEW]))
        other = Z_VIEW if p.view == X_VIEW else X_VIEW
        assert p.in_view(other).in_view(p.view) == p


def test_change_view_is_ring_isomorphism():
    rng = random.Random(11)
    for _ in range(25):
        a = random_poly(rng, X_VIEW)
        b = random_poly(rng, X_VIEW)
        assert (a + b).in_view(Z_VIEW) == a.in_view(Z_VIEW) + b.in_view(Z_VIEW)
        assert (a * b).in_view(Z_VIEW) == a.in_view(Z_VIEW) * b.in_view(Z_VIEW)


def test_polynomials_of_different_views_do_not_mix():
    # each view is its own space: in_view is the one crossing between them
    assert X2 != X2.in_view(Z_VIEW) and G2.in_view(X_VIEW) != G2
    assert Polynomial.zero(X_VIEW) != Polynomial.zero(Z_VIEW)
    for combine in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError, match="different spaces"):
            combine(X2, G2)
        assert combine(X2.in_view(Z_VIEW), G2) == combine(X2, G2.in_view(X_VIEW)).in_view(Z_VIEW)


def test_laplacian_examples():
    # an x operand is taken in z, and the Laplacian is returned in z
    assert laplacian_r4(X0 * X0 - X1 * X1).is_zero()
    assert laplacian_r4(X0 * X0) == Polynomial.constant(2, Z_VIEW)
    for k in range(9):
        assert laplacian_r4(G2**k).is_zero()


def test_laplacian_linear_and_degree_drop():
    rng = random.Random(12)
    for _ in range(25):
        a = random_poly(rng, X_VIEW)
        b = random_poly(rng, X_VIEW)
        assert laplacian_r4(a + b) == laplacian_r4(a) + laplacian_r4(b)
    for exp, want in (((4, 0, 0, 0), 2), ((2, 2, 0, 0), 2), ((1, 1, 1, 1), 2)):
        p = Polynomial.monomial(exp, 1, X_VIEW)
        lap = laplacian_r4(p)
        if not lap.is_zero():
            assert lap.degree() == p.degree() - 2


def laplacian_via_x(p):
    """sum_j d_j^2 taken in the x view, converted to z."""
    px = p.in_view(X_VIEW)
    acc = Polynomial.zero(X_VIEW)
    for j in range(4):
        acc = acc + px.partial(j).partial(j)
    return acc.in_view(Z_VIEW)


def test_laplacian_matches_x_route_on_random_polys():
    rng = random.Random(18)
    nonzero = 0
    for view in (Z_VIEW, X_VIEW):
        for _ in range(30):
            p = random_poly(rng, view, max_degree=5, n_terms=6)
            p = p + Polynomial.monomial((2, 1, 1, 1), gauss(Fraction(3, 4), Fraction(-1, 6)), view)
            lap = laplacian_r4(p)
            assert lap.view == Z_VIEW
            assert lap == laplacian_via_x(p)
            nonzero += not lap.is_zero()
    assert nonzero == 60


def test_laplacian_matches_x_route_on_k8_images():
    for p in range(9):
        for q in range(9):
            image = iso_closed_form(8, p, q).poly
            lap = laplacian_r4(image)
            assert lap.is_zero() and lap == laplacian_via_x(image)


def test_laplacian_matches_x_route_off_harmonic_images():
    # times |z2|^2 the k = 4 images are no longer harmonic
    for p in range(5):
        for q in range(5):
            bumped = iso_closed_form(4, p, q).poly * G2 * G2_BAR
            lap = laplacian_r4(bumped)
            assert not lap.is_zero() and lap == laplacian_via_x(bumped)


def test_evaluate_examples():
    assert G2.evaluate((0, 0, 1, 0)) == gauss(1)
    assert GM1.evaluate((1, 0, 0, 0)) == gauss(-1)


@pytest.mark.parametrize("view", [X_VIEW, Z_VIEW])
def test_evaluate_takes_exactly_four_coordinates(view):
    p = Polynomial.monomial((0, 0, 0, 1), 1, X_VIEW).in_view(view)  # x3
    assert p.evaluate((1, 2, 3, 5)) == gauss(5)
    for point in ((1, 2, 3), (1, 2, 3, 5, 7), ()):
        with pytest.raises(ValueError, match="4 coordinates"):
            p.evaluate(point)
        with pytest.raises(ValueError, match="4 coordinates"):
            SpinorSection(p, p).evaluate(point)


def test_evaluate_consistent_across_views():
    rng = random.Random(13)
    for _ in range(30):
        p = random_poly(rng, Z_VIEW)
        x = random_point(rng)
        assert p.evaluate(x) == p.in_view(X_VIEW).evaluate(x)


def test_homogeneous_scaling():
    rng = random.Random(14)
    for k in (1, 2, 3, 5):
        p = G2**k + GM1 * G1_BAR * (G2 ** (k - 2)) if k >= 2 else G2**k
        assert {sum(e) for e in p._num} == {k}
        for _ in range(5):
            t = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            x = random_point(rng)
            tx = tuple(t * c for c in x)
            assert p.evaluate(tx) == p.evaluate(x) * gauss(t**k)


def test_conjugate_matches_pointwise_conjugation():
    rng = random.Random(15)
    for _ in range(30):
        p = random_poly(rng, rng.choice([X_VIEW, Z_VIEW]))
        x = random_point(rng)
        assert p.conjugate().evaluate(x) == p.evaluate(x).conjugate()


def test_term_order_deterministic():
    p = G2 + G2_BAR * 3 + G2 * G2
    exps = [exp for exp, _ in p.terms_sorted()]
    assert exps == [(1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 0, 0)]


def test_power_rejects_negative():
    with pytest.raises(ValueError):
        G2 ** (-1)


def test_spinor_section_evaluate_assembles_quaternion():
    rng = random.Random(16)
    s = SpinorSection(Z2, -Z1)
    x = (Fraction(3, 5), Fraction(4, 5), Fraction(0), Fraction(0))
    v = s.evaluate(x)
    # f = z2 = 0 here, g = -z1 = -(3/5 + 4/5 i) acting on e2
    assert (v.c0, v.c1) == (0, 0)
    assert (v.c2, v.c3) == (Fraction(-3, 5), Fraction(-4, 5))
    for _ in range(10):
        f, g = random_poly(rng, Z_VIEW), random_poly(rng, Z_VIEW)
        s = SpinorSection(f, g)
        pt = random_point(rng)
        q = s.evaluate(pt)
        assert (GaussianRational(q.c0, q.c1), GaussianRational(q.c2, q.c3)) == (
            f.evaluate(pt),
            g.evaluate(pt),
        )


def test_spinor_right_mul_squares_to_minus_one():
    rng = random.Random(17)
    for _ in range(10):
        s = SpinorSection(random_poly(rng, Z_VIEW), random_poly(rng, Z_VIEW))
        for i in (1, 2, 3):
            twice = right_mul_basis(right_mul_basis(s, i), i)
            assert twice == SpinorSection(-s.f, -s.g)


def test_spinor_right_mul_matches_pointwise_product():
    rng = random.Random(19)
    for _ in range(10):
        s = SpinorSection(random_poly(rng, Z_VIEW), random_poly(rng, Z_VIEW))
        x = random_point(rng)
        for i in (1, 2, 3):
            assert right_mul_basis(s, i).evaluate(x) == quat_multiply(s.evaluate(x), BASIS[i])


def test_spinor_degree_inference():
    assert SpinorSection(G2**2, Polynomial.zero()).degree == 2
    assert SpinorSection(Polynomial.zero(), Polynomial.zero()).degree == 0
    assert SpinorSection(G2 + G2**2, Polynomial.zero()).degree is None


def test_spinor_degree_of_sums_and_differences():
    # a sum's degree is inferred from its parts when first read
    s = SpinorSection(G2**2, Z2 * Z1)
    assert (s - s).degree == 0
    assert (SpinorSection.zero() - s).degree == 2
    assert (SpinorSection.zero() + SpinorSection(Z2, G2)).degree == 1
    assert (s + SpinorSection(Z2, Polynomial.zero())).degree is None
    # the degree is read off the parts: the zero section's is 0, however
    # it was made
    summed = s + s
    assert summed.scale(0).degree == 0
    assert right_mul_basis(-summed, 1).scale(3).degree == 2


# -- the integer core against a Fraction reference ----------------------------------

SCALARS = (
    1, -1, I, -I, 0, 6,
    Fraction(-3, 4),
    gauss(Fraction(2, 3), Fraction(-5, 2)),
    gauss(0, Fraction(7, 3)),
)


def scalar_pair(c):
    c = c if isinstance(c, GaussianRational) else gauss(c)
    return (c.re, c.im)


def point_values(view, x):
    """The four variables of a view at the real point x, as complex pairs."""
    if view == X_VIEW:
        return [(t, Fraction(0)) for t in x]
    return [(x[2], x[3]), (x[2], -x[3]), (-x[0], -x[1]), (x[0], -x[1])]


@pytest.mark.parametrize("view", [Z_VIEW, X_VIEW])
def test_integer_core_matches_fraction_reference(view):
    rng = random.Random(30 if view == Z_VIEW else 31)
    reduced = cancelled = 0
    for _ in range(30):
        a, b = ref.random_ref(rng), ref.random_ref(rng)
        for e in rng.sample(sorted(a), len(a) // 2):  # sums that cancel
            b[e] = (-a[e][0], rng.choice((-a[e][1], a[e][1])))
        pa, pb = ref.to_poly(a, view), ref.to_poly(b, view)
        checks = [
            (pa + pb, ref.add(a, b)),
            (pa - pb, ref.add(a, b, -1)),
            (-pa, ref.scale(a, scalar_pair(-1))),
            (pa * pb, ref.mul(a, b)),
            (pa.conjugate(), ref.conjugate(a, view)),
            (laplacian_r4(pa).in_view(view), ref.laplacian(a, view)),
        ]
        checks += [(pa.scale(c), ref.scale(a, scalar_pair(c))) for c in SCALARS]
        checks += [(pa.partial(j), ref.partial(a, j)) for j in range(4)]
        for got, want in checks:
            ref.assert_canonical(got)
            assert got.view == view
            assert ref.as_ref(got) == want
        for zero in (pa - pa, pa + (-pa), pa.scale(0)):
            assert (zero._num, zero._den) == ({}, 1)
        x = random_point(rng)
        assert pa.evaluate(x) == GaussianRational(*ref.evaluate(a, point_values(view, x)))
        total = pa + pb
        reduced += total._den < math.lcm(pa._den, pb._den)
        cancelled += len(total.terms) < len(set(a) | set(b))
    # the renormalization and the dropping of zero terms both ran
    assert reduced and cancelled


def test_same_value_by_different_routes_has_one_representation():
    rng = random.Random(32)
    for view, other in ((Z_VIEW, X_VIEW), (X_VIEW, Z_VIEW)):
        for _ in range(15):
            p = ref.to_poly(ref.random_ref(rng), view)
            q = ref.to_poly(ref.random_ref(rng), view)
            routes = (
                p.scale(Fraction(1, 3)).scale(3),
                p.scale(6).scale(Fraction(1, 6)),
                (p + q) - q,
                p.scale(I).scale(-I),
                -(-p),
                p.scale(gauss(2, 1)).scale(gauss(Fraction(2, 5), Fraction(-1, 5))),
                Polynomial(p.terms, view),
                Polynomial.from_json(p.to_json()),
                p.in_view(other).in_view(view),
            )
            for r in routes:
                assert (r._num, r._den, r.view) == (p._num, p._den, p.view)
                assert r == p and hash(r) == hash(p)


def test_to_json_from_integer_parts_is_the_gaussian_rational_form():
    # to_json writes each part from its numerator over the shared
    # denominator; it must give each coefficient's parts as num/den strings
    rng = random.Random(34)
    negative = zero_part = over_one = False
    for view in (Z_VIEW, X_VIEW):
        for _ in range(40):
            p = ref.to_poly(ref.random_ref(rng), view)
            assert p.to_json() == {
                "view": view,
                "terms": [
                    {"exp": list(e),
                     "coeff": {"re": rational_to_str(c.re), "im": rational_to_str(c.im)}}
                    for e, c in p.terms_sorted()
                ],
            }
            assert Polynomial.from_json(p.to_json()) == p
            negative |= any(min(c) < 0 for c in p._num.values())
            zero_part |= any(0 in c for c in p._num.values())
            over_one |= p._den > 1
    assert negative and zero_part and over_one
