"""Exact linear algebra against an independent oracle.

``linalg`` computes on Gaussian-integer matrices given as canonical sparse
rows ``{col: (re, im)}``.  The oracle is sympy: its ``DomainMatrix`` over
the Gaussian rationals ``QQ_I`` for characteristic polynomials and ranks,
with no symbolic expansion, and its ``Matrix`` on symbolic Gaussian
numbers for products.  Both must give the same exact answers for
``charpoly_int``, ``rank_sparse`` and ``mat_mul_int`` on random matrices
(square, non-square and rank-deficient), on the Dbar blocks and on the
empty matrix.  Matrices that split into connected components are checked too:
blocks hidden by a permutation, blocks coupled one way, and two-row
components on either side of proportional, each ranked by the one
elimination kernel.
"""

import math
import random
from fractions import Fraction

import pytest

from spinor_s3 import linalg
from spinor_s3.abstract_dirac import dbar_block_int
from spinor_s3.cli import main
from spinor_s3.exactnum import GaussianRational, GaussInt, gauss, gauss_over
from spinor_s3.transfer import transfer_eigenbasis
from spinor_s3.verify import eigen_identity

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import QQ_I
from sympy.polys.matrices import DomainMatrix

X = sympy.Symbol("x")


def to_sympy(a, cols=None):
    """The Gaussian-integer rows ``a`` as a sympy matrix with ``cols``
    columns, square by default."""
    cols = len(a) if cols is None else cols
    return sympy.Matrix(len(a), cols, [x + sympy.I * y for row in a
                                       for x, y in (row.get(j, (0, 0)) for j in range(cols))])


def from_sympy(expr) -> GaussianRational:
    expr = sympy.expand(expr)
    re, im = sympy.re(expr), sympy.im(expr)
    return gauss(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def gauss_int(expr) -> GaussInt:
    """A sympy Gaussian integer as ``(re, im)``."""
    expr = sympy.expand(expr)
    re, im = sympy.re(expr), sympy.im(expr)
    assert re.is_integer and im.is_integer
    return int(re), int(im)


def int_matrix(m) -> list[dict[int, GaussInt]]:
    """A sympy matrix with Gaussian-integer entries as canonical rows."""
    entries = [[gauss_int(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]
    return [{j: c for j, c in enumerate(row) if c != (0, 0)} for row in entries]


def to_domain(a, cols=None):
    """The Gaussian-integer rows ``a`` as a ``DomainMatrix`` over ``QQ_I``
    with ``cols`` columns, square by default."""
    cols = len(a) if cols is None else cols
    return DomainMatrix([[QQ_I(*row.get(j, (0, 0))) for j in range(cols)] for row in a],
                        (len(a), cols), QQ_I)


def domain_int(c) -> GaussInt:
    """A ``QQ_I`` Gaussian integer as ``(re, im)``."""
    assert c.x.denominator == 1 and c.y.denominator == 1
    return int(c.x.numerator), int(c.y.numerator)


def oracle_charpoly(a):
    return [domain_int(c) for c in to_domain(a).charpoly()]


def oracle_rank(a, cols=None):
    return to_domain(a, cols).rank()


def random_int_matrix(rng, rows, cols, zero_share=0.3):
    """A Gaussian-integer matrix as rows, its real parts drawn before its
    imaginary parts."""
    def part():
        return [[0 if rng.random() < zero_share else rng.randint(-9, 9) for _ in range(cols)]
                for _ in range(rows)]
    re, im = part(), part()
    return [{j: (x, y) for j, (x, y) in enumerate(zip(rr, ri)) if x or y}
            for rr, ri in zip(re, im)]


def low_rank_matrix(rng, rows, cols, r):
    """A product of rows x r and r x cols factors: rank at most r."""
    return linalg.mat_mul_int(random_int_matrix(rng, rows, r, 0.0),
                              random_int_matrix(rng, r, cols, 0.0))


SEEDS = range(6)


@pytest.mark.parametrize("seed", SEEDS)
def test_charpoly_matches_sympy_on_random_matrices(seed):
    rng = random.Random(seed)
    a = random_int_matrix(rng, 1 + seed, 1 + seed)
    assert linalg.charpoly_int(a) == oracle_charpoly(a)


@pytest.mark.parametrize("seed", SEEDS)
def test_charpoly_matches_sympy_on_singular_matrices(seed):
    rng = random.Random(100 + seed)
    n = 3 + seed % 3
    a = low_rank_matrix(rng, n, n, 1 + seed % 2)
    char = linalg.charpoly_int(a)
    assert char == oracle_charpoly(a)
    assert char[-1] == (0, 0)  # det = 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", [(4, 4), (3, 6), (6, 3), (1, 5), (5, 1)])
def test_rank_matches_sympy_on_random_matrices(seed, shape):
    rng = random.Random(1000 * seed + 10 * shape[0] + shape[1])
    a = random_int_matrix(rng, *shape, zero_share=0.5)
    assert linalg.rank_sparse(a) == oracle_rank(a, shape[1])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape, r", [((5, 5), 2), ((4, 7), 3), ((7, 4), 1), ((6, 6), 5)])
def test_rank_matches_sympy_on_rank_deficient_matrices(seed, shape, r):
    rng = random.Random(2000 * seed + 7 * r + shape[0])
    a = low_rank_matrix(rng, *shape, r)
    expected = oracle_rank(a, shape[1])
    assert expected <= r
    assert linalg.rank_sparse(a) == expected


def test_rank_of_zero_and_repeated_rows():
    rng = random.Random(7)
    row = random_int_matrix(rng, 1, 5)[0]
    # the third row is (2 + 3i) times the first
    scaled = {c: (2 * x - 3 * y, 3 * x + 2 * y) for c, (x, y) in row.items()}
    assert linalg.rank_sparse([{}, {}, {}]) == 0
    assert linalg.rank_sparse([row, row, scaled]) == 1


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", [(3, 3, 3), (2, 5, 4), (4, 1, 3), (1, 4, 1)])
def test_mat_mul_matches_sympy(seed, shape):
    rng = random.Random(3000 * seed + 100 * shape[0] + 10 * shape[1] + shape[2])
    n, k, m = shape
    a = random_int_matrix(rng, n, k)
    b = random_int_matrix(rng, k, m)
    product = to_sympy(a, k) * to_sympy(b, m)
    assert linalg.mat_mul_int(a, b) == int_matrix(product)
    # the Gaussian-rational product over non-unit denominators
    da, db = rng.randint(1, 12), rng.randint(1, 12)
    assert linalg.mat_mul(linalg.from_int(a, k, da), linalg.from_int(b, m, db)) == [
        [from_sympy(product[i, j] / (da * db)) for j in range(m)] for i in range(n)
    ]


@pytest.mark.parametrize("a, b", [
    ([[gauss(1)]], [[gauss(2)], [gauss(3)]]),
    ([[gauss(1), gauss(2)]], [[gauss(3)]]),
    ([[gauss(1)]], []),
    ([[gauss(1)], [gauss(1), gauss(2)]], [[gauss(3)]]),
], ids=["1x1-by-2x1", "1x2-by-1x1", "1x1-by-empty", "ragged-left"])
def test_mat_mul_refuses_mismatched_shapes(a, b):
    # a checked error, not an assert that python -O drops
    with pytest.raises(ValueError, match="cannot multiply"):
        linalg.mat_mul(a, b)
    # as rows, a left factor with fewer columns than the right one has
    # rows is a well-formed product; one with a column past them is not
    left, right = linalg._to_int(a)[1], linalg._to_int(b)[1]
    if max(len(row) for row in a) <= len(b):
        assert len(linalg.mat_mul_int(left, right)) == len(a)
    else:
        with pytest.raises(ValueError, match="cannot multiply"):
            linalg.mat_mul_int(left, right)


def test_mat_mul_skips_only_zero_left_entries():
    # only the nonzero entries of the left rows are read, and an entry that
    # sums to zero is left out of the product
    a = [{1: (2, -1)}, {0: (1, 0)}]
    b = [{0: (5, 5)}, {1: (0, 3)}]
    assert linalg.mat_mul_int(a, b) == [{1: (3, 6)}, {0: (5, 5)}]
    assert linalg.mat_mul_int([{0: (1, 0), 1: (1, 0)}], [{0: (1, 2)}, {0: (-1, -2)}]) == [{}]


@pytest.mark.parametrize("k", range(13))
def test_dbar_blocks_match_sympy(k):
    block = dbar_block_int(k)
    assert linalg.charpoly_int(block) == oracle_charpoly(block)
    for shift in (k, -(k + 2)):
        shifted = linalg.shift_int(block, shift)
        assert linalg.rank_sparse(shifted) == oracle_rank(shifted)
    assert linalg.mat_mul_int(block, block) == int_matrix(to_sympy(block) ** 2)


def test_empty_matrix():
    assert linalg.charpoly_int([]) == oracle_charpoly([]) == [(1, 0)]
    assert linalg.rank_sparse([]) == oracle_rank([]) == 0
    assert linalg.mat_mul_int([], []) == []
    assert linalg.mat_mul_int([{}], []) == [{}]
    assert linalg.mat_mul([], [[gauss(1)]]) == [] and linalg.mat_mul([[], []], []) == [[], []]


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_entry_points_match_sympy(seed):
    rng = random.Random(4000 + seed)
    n = 2 + seed % 4
    a = random_int_matrix(rng, n, n)
    b = random_int_matrix(rng, n, n + 1)
    assert linalg.mat_mul_int(a, b) == int_matrix(to_sympy(a) * to_sympy(b, n + 1))
    char = linalg.charpoly_int(a)
    assert all(type(x) is int for c in char for x in c)
    assert char == oracle_charpoly(a)
    assert linalg.rank_sparse(a) == oracle_rank(a)
    low = linalg.mat_mul_int(random_int_matrix(rng, n, 1 + seed % 2, 0.0),
                             random_int_matrix(rng, 1 + seed % 2, n, 0.0))
    assert linalg.rank_sparse(low) == oracle_rank(low)
    dense_a = linalg.from_int(a, n)
    shifted = linalg.mat_add(dense_a, linalg.mat_scale(linalg.identity(n), gauss(-3)))
    assert linalg.from_int(linalg.shift_int(a, -3), n) == shifted
    assert linalg.from_int(a, n) == dense_a  # shift_int left its operand alone


@pytest.mark.parametrize("seed", SEEDS)
def test_trace_matches_sympy(seed):
    rng = random.Random(7000 + seed)
    n = 1 + seed
    a = random_int_matrix(rng, n, n)
    d = rng.randint(1, 12)
    assert linalg.trace(linalg.from_int(a, n, d)) == from_sympy(to_sympy(a).trace() / d)
    assert linalg.trace([]) == gauss(0)


def test_from_int_divides_by_the_denominator():
    assert linalg.from_int([{0: (3, -6)}], 2, 9) == [[gauss(Fraction(1, 3), Fraction(-2, 3)),
                                                     gauss(0)]]
    with pytest.raises(ValueError, match="not a matrix"):
        linalg.from_int([{2: (1, 0)}], 2)


@pytest.mark.parametrize("a", [
    [{0: (1, 0), 1: (2, 0)}],
    [{2: (1, 0)}, {}],
    [{-1: (1, 0)}],
], ids=["1x2", "2x3", "negative-column"])
def test_charpoly_refuses_a_non_square_matrix(a):
    with pytest.raises(ValueError, match="not square"):
        linalg.charpoly_int(a)
    with pytest.raises(ValueError, match="not square"):
        linalg.shift_int(a, 1)


def test_integer_kernels_keep_well_formed_pairs():
    # 1 + 2 = 3 over both columns of the left row
    assert linalg.mat_mul_int([{0: (1, 0), 1: (2, 0)}], [{0: (1, 0)}, {0: (1, 0)}]) == [{0: (3, 0)}]
    assert linalg.shift_int([{0: (1, 0), 1: (2, 1)}, {0: (3, 0), 1: (4, 0)}], 1) == [
        {0: (2, 0), 1: (2, 1)}, {0: (3, 0), 1: (5, 0)}]
    # a diagonal entry that the shift cancels is left out, one it creates
    # is added
    assert linalg.shift_int([{0: (2, 0)}, {0: (1, 0)}], -2) == [{}, {0: (1, 0), 1: (-2, 0)}]
    with pytest.raises(ValueError, match="not square"):
        linalg.shift_int([{0: (1, 0), 1: (2, 0)}], 1)


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(2), 1.0, gauss(1)])
def test_shift_refuses_a_shift_that_is_not_an_int(c):
    # a Fraction one used to give Fraction parts, on which rank_sparse died
    # with TypeError and charpoly_int with a misleading ArithmeticError
    with pytest.raises(ValueError, match="shift must be an int"):
        linalg.shift_int(dbar_block_int(1), c)


def integer_form(result):
    """``charpoly_from_roots``'s ``(coeffs, den)``, checked to be int pairs
    over a positive denominator in lowest terms, as Gaussian rationals."""
    coeffs, den = result
    assert all(type(x) is int for c in coeffs for x in c) and type(den) is int and den > 0
    assert math.gcd(den, *(x for c in coeffs for x in c)) == 1
    return [gauss_over(re, im, den) for re, im in coeffs]


@pytest.mark.parametrize("seed", SEEDS)
def test_charpoly_from_roots_matches_sympy(seed):
    rng = random.Random(5000 + seed)
    roots = [(Fraction(rng.randint(-9, 9), rng.randint(1, 6)), rng.randint(0, 3))
             for _ in range(1 + seed % 3)]
    expanded = sympy.Poly(sympy.prod([(X - sympy.Rational(r.numerator, r.denominator)) ** m
                                      for r, m in roots]), X)
    assert integer_form(linalg.charpoly_from_roots(roots)) == \
        [from_sympy(c) for c in expanded.all_coeffs()]


def expand_on_gaussian_rationals(roots):
    """prod (x - r)^mult on GaussianRational, one linear factor at a time,
    coefficients by descending power."""
    p = [gauss(1)]
    for r, mult in roots:
        for _ in range(mult):
            p = [a - gauss(r) * b for a, b in zip(p + [gauss(0)], [gauss(0)] + p)]
    return p


@pytest.mark.parametrize("seed", SEEDS)
def test_charpoly_from_roots_matches_a_gaussian_rational_expansion(seed):
    rng = random.Random(9000 + seed)
    roots = [(Fraction(rng.randint(-9, 9), rng.randint(1, 7)), rng.randint(0, 3))
             for _ in range(1 + seed % 4)]
    roots += [(Fraction(rng.randint(-9, 9), 5), 2), (Fraction(rng.randint(-9, 9), 3), 0)]
    assert integer_form(linalg.charpoly_from_roots(roots)) == expand_on_gaussian_rationals(roots)


def test_charpoly_from_roots_edge_cases():
    assert linalg.charpoly_from_roots([]) == ([(1, 0)], 1)
    assert linalg.charpoly_from_roots([(Fraction(7, 3), 0)]) == ([(1, 0)], 1)
    # (2x - 1)^2 (3x + 2) over 12
    assert linalg.charpoly_from_roots([(Fraction(1, 2), 2), (Fraction(-2, 3), 1)]) == \
        ([(12, 0), (-4, 0), (-5, 0), (2, 0)], 12)
    assert integer_form(([(12, 0), (-4, 0), (-5, 0), (2, 0)], 12)) == \
        expand_on_gaussian_rationals([(Fraction(1, 2), 2), (Fraction(-2, 3), 1)])
    # an int root reads as u/1
    assert linalg.charpoly_from_roots([(3, 2), (-1, 1)]) == \
        linalg.charpoly_from_roots([(Fraction(3), 2), (Fraction(-1), 1)]) == \
        ([(1, 0), (-5, 0), (3, 0), (9, 0)], 1)


@pytest.mark.parametrize("mult", [-1, 1.0])
def test_charpoly_from_roots_refuses_a_multiplicity_that_is_not_an_int_at_least_0(mult):
    # a negative one used to put a float into the expansion through d**mult
    with pytest.raises(ValueError, match="multiplicity must be an int >= 0"):
        linalg.charpoly_from_roots([(Fraction(1, 2), mult)])
    with pytest.raises(ValueError, match="multiplicity must be an int >= 0"):
        linalg.charpoly_from_roots([(Fraction(3), 1), (Fraction(1, 2), mult)])


@pytest.mark.parametrize("root", [0.5, 2.0, gauss(1), "1/2"])
def test_charpoly_from_roots_refuses_a_root_that_is_neither_an_int_nor_a_fraction(root):
    # a float one used to die with AttributeError on its numerator
    with pytest.raises(ValueError, match="root must be an int or a Fraction"):
        linalg.charpoly_from_roots([(root, 1)])
    with pytest.raises(ValueError, match="root must be an int or a Fraction"):
        linalg.charpoly_from_roots([(Fraction(1, 2), 1), (root, 0)])


# -- sparse rank ------------------------------------------------------------------


def oracle_sparse_rank(rows):
    """sympy's rank of the rows ``{col: (re, im)}`` laid out densely over the
    sorted union of their columns."""
    columns = {c: j for j, c in enumerate(sorted({c for row in rows for c in row}))}
    return oracle_rank([{columns[c]: v for c, v in row.items()} for row in rows], len(columns))


def combine(rows, coeffs):
    """The Gaussian-integer combination sum (cr + i ci) row."""
    out = {}
    for row, (cr, ci) in zip(rows, coeffs):
        for c, (x, y) in row.items():
            re, im = out.get(c, (0, 0))
            out[c] = (re + cr * x - ci * y, im + cr * y + ci * x)
    return out


def block_sparse_rows(rng):
    """Rows on a few disjoint column blocks, shuffled together: in each block
    some random rows, sometimes a combination of them, and now and then an
    explicit ``(0, 0)`` entry or an all-zero row."""
    rows = []
    for block in range(rng.randint(1, 5)):
        cols = [(block, j) for j in range(rng.randint(1, 4))]
        base = [{c: (rng.randint(-6, 6), rng.randint(-6, 6)) for c in cols if rng.random() < 0.7}
                for _ in range(rng.randint(1, 3))]
        rows.extend(base)
        if len(base) > 1 and rng.random() < 0.6:
            rows.append(combine(base, [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in base]))
        if rng.random() < 0.3:
            rows.append({rng.choice(cols): (0, 0)})
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("seed", range(24))
def test_rank_sparse_matches_sympy_on_block_sparse_rows(seed):
    rows = block_sparse_rows(random.Random(6000 + seed))
    assert linalg.rank_sparse(rows) == oracle_sparse_rank(rows)


def test_rank_sparse_dependent_rows_in_one_component():
    a = {"u": (1, 2), "v": (0, -3)}
    b = {"v": (4, 0), "w": (5, 5)}
    c = combine([a, b], [(1, 1), (2, 0)])
    assert linalg.rank_sparse([a, b, c]) == oracle_sparse_rank([a, b, c]) == 2
    assert linalg.rank_sparse([a, combine([a], [(0, -1)])]) == 1


def test_rank_sparse_disjoint_single_rows():
    rows = [{(0, j): (j + 1, -j)} for j in range(6)] + [{(9, j): (0, 1) for j in range(3)}]
    assert linalg.rank_sparse(rows) == oracle_sparse_rank(rows) == 7


def test_rank_sparse_explicit_zero_entries():
    # a (0, 0) entry is no entry: it neither makes a row nonzero nor joins
    # two components
    assert linalg.rank_sparse([{"u": (0, 0)}]) == 0
    rows = [{"u": (1, 0), "v": (0, 0)}, {"v": (0, 0), "w": (0, 1)}, {"u": (3, 0)}]
    assert linalg.rank_sparse(rows) == oracle_sparse_rank(rows) == 2


def test_rank_sparse_zero_rows_and_empty_list():
    assert linalg.rank_sparse([]) == 0
    assert linalg.rank_sparse([{}, {}, {"u": (0, 0), "v": (0, 0)}]) == 0
    assert linalg.rank_sparse([{}, {"u": (2, 0)}, {"v": (0, 0)}]) == 1


# -- connected components ---------------------------------------------------------


def block_diagonal(blocks):
    """The square Gaussian-integer matrices ``blocks`` on the diagonal of
    one."""
    out, at = [], 0
    for block in blocks:
        out.extend({at + c: v for c, v in row.items()} for row in block)
        at += len(block)
    return out


def permuted(a, rows, cols):
    """The matrix with entry ``a[rows[i]][cols[j]]`` at (i, j)."""
    where = {c: j for j, c in enumerate(cols)}
    return [{where[c]: v for c, v in a[r].items()} for r in rows]


def transposed(a, cols):
    out = [{} for _ in range(cols)]
    for i, row in enumerate(a):
        for c, v in row.items():
            out[c][i] = v
    return out


def hidden_blocks(rng):
    """Random blocks of size 1 to 4, some singular, on the diagonal under a
    random symmetric permutation, so that no block is contiguous."""
    blocks = []
    for _ in range(rng.randint(2, 6)):
        size = rng.randint(1, 4)
        if size > 1 and rng.random() < 0.4:
            blocks.append(low_rank_matrix(rng, size, size, rng.randint(1, size - 1)))
        else:
            blocks.append(random_int_matrix(rng, size, size, 0.2))
    a = block_diagonal(blocks)
    order = list(range(len(a)))
    rng.shuffle(order)
    return permuted(a, order, order)


@pytest.mark.parametrize("seed", range(12))
def test_split_matches_sympy_on_blocks_hidden_by_a_permutation(seed):
    rng = random.Random(8000 + seed)
    a = hidden_blocks(rng)
    assert linalg.charpoly_int(a) == oracle_charpoly(a)
    assert linalg.rank_sparse(a) == oracle_rank(a)
    shifted = linalg.shift_int(a, rng.choice([-2, -1, 1, 2]))
    assert linalg.rank_sparse(shifted) == oracle_rank(shifted)
    # rows and columns shuffled apart: a rank question, not a charpoly one
    rows, cols = list(range(len(a))), list(range(len(a)))
    rng.shuffle(rows)
    rng.shuffle(cols)
    mixed = permuted(a, rows, cols)
    assert linalg.rank_sparse(mixed) == oracle_rank(mixed)


@pytest.mark.parametrize("seed", range(8))
def test_split_matches_sympy_on_blocks_coupled_one_way(seed):
    # [[B1, C], [0, B2]]: the rows of B1 reach the columns of B2 but not
    # back, and the split must still keep them together, since C can raise
    # the rank above the sum over B1 and B2
    rng = random.Random(8500 + seed)
    n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
    b1, b2 = random_int_matrix(rng, n1, n1), random_int_matrix(rng, n2, n2)
    c = random_int_matrix(rng, n1, n2, 0.5)
    c[0][0] = (1, c[0].get(0, (0, 0))[1])  # at least one coupling entry
    a = [{**r1, **{n1 + j: v for j, v in rc.items()}} for r1, rc in zip(b1, c)]
    a += [{n1 + j: v for j, v in r2.items()} for r2 in b2]
    order = list(range(n1 + n2))
    rng.shuffle(order)
    for m in (a, permuted(a, order, order)):
        assert linalg.charpoly_int(m) == oracle_charpoly(m)
        for shift in (0, -1, 2):
            shifted = linalg.shift_int(m, shift)
            assert linalg.rank_sparse(shifted) == oracle_rank(shifted)
    # the transpose couples the other way
    t = transposed(a, n1 + n2)
    assert linalg.charpoly_int(t) == oracle_charpoly(t)


def times(row, c):
    """The sparse Gaussian-integer row times the Gaussian integer c."""
    x, y = c
    return {col: (x * u - y * v, x * v + y * u) for col, (u, v) in row.items()}


@pytest.mark.parametrize("seed", SEEDS)
def test_two_rows_proportional_by_a_non_real_ratio(seed):
    # 3v and (1 + 2i)v: proportional by (1 + 2i)/3, cleared to integers
    rng = random.Random(8800 + seed)
    cols = 2 + seed
    v = random_int_matrix(rng, 1, cols, 0.3)[0]
    x, y = v.get(0, (0, 0))
    v[0] = (x or 1, y)
    a = [times(v, (3, 0)), times(v, (1, 2))]
    assert linalg.rank_sparse(a) == oracle_rank(a, cols) == 1
    # the same two rows beside a one-row component elsewhere
    wide = a + [{cols: (5, 0)}]
    assert linalg.rank_sparse(wide) == oracle_rank(wide, cols + 1) == 2


@pytest.mark.parametrize("seed", SEEDS)
def test_two_rows_not_proportional(seed):
    rng = random.Random(8900 + seed)
    cols = 2 + seed
    re = [rng.randint(1, 9) for _ in range(cols)]
    v = {j: (x, rng.randint(-9, 9)) for j, x in enumerate(re)}
    w = times(v, (1, 2))
    # equal supports, one entry off the line
    bent = dict(w)
    bent[cols - 1] = (w[cols - 1][0] + 1, w[cols - 1][1])
    a = [v, bent]
    assert linalg.rank_sparse(a) == oracle_rank(a, cols) == 2
    # unequal supports that still share a column: proportional where both
    # are nonzero, but one row has an entry the other lacks
    cut = {j: c for j, c in w.items() if j}
    a = [v, cut]
    assert linalg.rank_sparse(a) == oracle_rank(a, cols) == 2


def test_dbar_charpoly_runs_faddeev_leverrier_on_blocks_of_two_at_most(monkeypatch):
    sizes = []
    blockwise = linalg._faddeev_leverrier

    def counted(a):
        sizes.append(len(a))
        return blockwise(a)

    monkeypatch.setattr(linalg, "_faddeev_leverrier", counted)
    block = dbar_block_int(12)
    assert linalg.charpoly_int(block) == oracle_charpoly(block)
    assert sum(sizes) == 26 and max(sizes) <= 2


def test_verify_and_eigen_identity_reach_echelon_rank(monkeypatch, capsys):
    # every rank the commands take runs the one elimination kernel, so a
    # fault in it cannot hide behind a shortcut for small components
    calls = []
    eliminate = linalg._echelon_rank

    def counted(rows):
        calls.append(len(rows))
        return eliminate(rows)

    monkeypatch.setattr(linalg, "_echelon_rank", counted)
    assert main(["verify", "--suite", "quadratic", "--k-max", "3"]) == 0
    assert capsys.readouterr().out.endswith("16/16 checks passed\n")
    assert calls
    calls.clear()
    for k in range(7):
        assert eigen_identity(k, transfer_eigenbasis(k)).passed
    assert calls
