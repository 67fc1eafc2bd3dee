"""Exact linear algebra against an independent oracle.

``linalg`` computes on Gaussian-integer matrices ``(R, I)``; sympy's
``Matrix`` computes on symbolic Gaussian numbers.  Both must give the same
exact answers for ``charpoly_int``, ``rank_int`` and ``mat_mul_int`` on
random matrices (square, non-square and rank-deficient), on the Dbar
blocks and on the empty matrix.  Matrices that split into connected
components are checked too: blocks hidden by a permutation, blocks coupled
one way, and two-row components on either side of proportional.
"""

import random
from fractions import Fraction

import pytest

from spinor_s3 import linalg
from spinor_s3.abstract_dirac import dbar_block_int
from spinor_s3.exactnum import GaussianRational, GaussInt, gauss
from spinor_s3.geometry import dirac_section
from spinor_s3.transfer import transfer_eigenbasis
from spinor_s3.verify import eigen_identity

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")


def _is_zero(expr) -> bool:
    return sympy.expand(expr) == 0


def to_sympy(a):
    """The Gaussian-integer matrix (R, I) as a sympy matrix."""
    re, im = a
    return sympy.Matrix(
        len(re), len(re[0]) if re else 0,
        [x + sympy.I * y for rr, ri in zip(re, im) for x, y in zip(rr, ri)],
    )


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


def int_matrix(m) -> linalg.GaussIntMatrix:
    """A sympy matrix with Gaussian-integer entries as ``(R, I)``."""
    entries = [[gauss_int(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]
    return [[x for x, _ in row] for row in entries], [[y for _, y in row] for row in entries]


def oracle_charpoly(a):
    return [gauss_int(c) for c in to_sympy(a).charpoly(X).all_coeffs()]


def oracle_rank(a):
    return to_sympy(a).rank(iszerofunc=_is_zero)


def random_int_matrix(rng, rows, cols, zero_share=0.3):
    """A Gaussian-integer matrix (R, I)."""
    def part():
        return [[0 if rng.random() < zero_share else rng.randint(-9, 9) for _ in range(cols)]
                for _ in range(rows)]
    return part(), part()


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
    assert linalg.rank_int(a) == oracle_rank(a)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape, r", [((5, 5), 2), ((4, 7), 3), ((7, 4), 1), ((6, 6), 5)])
def test_rank_matches_sympy_on_rank_deficient_matrices(seed, shape, r):
    rng = random.Random(2000 * seed + 7 * r + shape[0])
    a = low_rank_matrix(rng, *shape, r)
    expected = oracle_rank(a)
    assert expected <= r
    assert linalg.rank_int(a) == expected


def test_rank_of_zero_and_repeated_rows():
    rng = random.Random(7)
    re, im = random_int_matrix(rng, 1, 5)
    row = re[0], im[0]
    # the third row is (2 + 3i) times the first
    scaled = [2 * x - 3 * y for x, y in zip(*row)], [3 * x + 2 * y for x, y in zip(*row)]
    assert linalg.rank_int(([[0] * 5 for _ in range(3)], [[0] * 5 for _ in range(3)])) == 0
    assert linalg.rank_int(([row[0], row[0], scaled[0]], [row[1], row[1], scaled[1]])) == 1


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", [(3, 3, 3), (2, 5, 4), (4, 1, 3), (1, 4, 1)])
def test_mat_mul_matches_sympy(seed, shape):
    rng = random.Random(3000 * seed + 100 * shape[0] + 10 * shape[1] + shape[2])
    n, k, m = shape
    a = random_int_matrix(rng, n, k)
    b = random_int_matrix(rng, k, m)
    product = to_sympy(a) * to_sympy(b)
    assert linalg.mat_mul_int(a, b) == int_matrix(product)
    # the Gaussian-rational product over non-unit denominators
    da, db = rng.randint(1, 12), rng.randint(1, 12)
    assert linalg.mat_mul(linalg.from_int(a, da), linalg.from_int(b, db)) == [
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
    with pytest.raises(ValueError, match="cannot multiply"):
        linalg.mat_mul_int(linalg._to_int(a)[1], linalg._to_int(b)[1])


def test_mat_mul_skips_only_zero_left_entries():
    # a zero left part times a nonzero right row contributes nothing, a
    # nonzero left part times an all-zero right row too
    a = ([[0, 2], [1, 0]], [[0, -1], [0, 0]])
    b = ([[5, 0], [0, 0]], [[5, 0], [0, 3]])
    assert linalg.mat_mul_int(a, b) == ([[0, 3], [5, 0]], [[0, 6], [5, 0]])


@pytest.mark.parametrize("k", range(13))
def test_dbar_blocks_match_sympy(k):
    block = dbar_block_int(k)
    assert linalg.charpoly_int(block) == oracle_charpoly(block)
    for shift in (k, -(k + 2)):
        shifted = linalg.shift_int(block, shift)
        assert linalg.rank_int(shifted) == oracle_rank(shifted)
    assert linalg.mat_mul_int(block, block) == int_matrix(to_sympy(block) ** 2)


def test_empty_matrix():
    empty = ([], [])
    assert linalg.charpoly_int(empty) == oracle_charpoly(empty) == [(1, 0)]
    assert linalg.rank_int(empty) == oracle_rank(empty) == 0
    assert linalg.mat_mul_int(empty, empty) == empty
    assert linalg.mat_mul_int(([[]], [[]]), empty) == ([[]], [[]])
    assert linalg.mat_mul([], [[gauss(1)]]) == [] and linalg.mat_mul([[], []], []) == [[], []]


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_entry_points_match_sympy(seed):
    rng = random.Random(4000 + seed)
    n = 2 + seed % 4
    a = random_int_matrix(rng, n, n)
    b = random_int_matrix(rng, n, n + 1)
    assert linalg.mat_mul_int(a, b) == int_matrix(to_sympy(a) * to_sympy(b))
    char = linalg.charpoly_int(a)
    assert all(type(x) is int for c in char for x in c)
    assert char == oracle_charpoly(a)
    assert linalg.rank_int(a) == oracle_rank(a)
    low = linalg.mat_mul_int(random_int_matrix(rng, n, 1 + seed % 2, 0.0),
                             random_int_matrix(rng, 1 + seed % 2, n, 0.0))
    assert linalg.rank_int(low) == oracle_rank(low)
    dense_a = linalg.from_int(a)
    shifted = linalg.mat_add(dense_a, linalg.mat_scale(linalg.identity(n), gauss(-3)))
    assert linalg.from_int(linalg.shift_int(a, -3)) == shifted
    assert linalg.from_int(a) == dense_a  # shift_int left its operand alone


@pytest.mark.parametrize("seed", SEEDS)
def test_trace_matches_sympy(seed):
    rng = random.Random(7000 + seed)
    n = 1 + seed
    a = random_int_matrix(rng, n, n)
    d = rng.randint(1, 12)
    assert linalg.trace(linalg.from_int(a, d)) == from_sympy(to_sympy(a).trace() / d)
    assert linalg.trace([]) == gauss(0)


def test_from_int_divides_by_the_denominator():
    assert linalg.from_int(([[3, 0]], [[-6, 0]]), 9) == [[gauss(Fraction(1, 3), Fraction(-2, 3)),
                                                         gauss(0)]]


@pytest.mark.parametrize("a", [
    ([[1, 2]], [[0, 0]]),
    ([[1], [2]], [[0], [0]]),
    ([[]], [[]]),
], ids=["1x2", "2x1", "1x0"])
def test_charpoly_refuses_a_non_square_matrix(a):
    with pytest.raises(ValueError, match="not square"):
        linalg.charpoly_int(a)


@pytest.mark.parametrize("a", [
    ([[1, 2], [3]], [[0, 0], [0]]),
    ([[1, 2], [3, 4]], [[0, 0], [0]]),
    ([[1, 2], [3, 4]], [[0, 0]]),
    ([[1, 2], [3, 4]], [[0, 0], [0, 0], [0, 0]]),
    ([[1], [2, 3]], [[0], [0, 0]]),
], ids=["ragged", "ragged-imaginary", "fewer-imaginary-rows", "more-imaginary-rows",
        "longer-later-row"])
def test_rank_and_charpoly_refuse_ragged_or_mismatched_rows(a):
    with pytest.raises(ValueError, match="not a matrix"):
        linalg.rank_int(a)
    with pytest.raises(ValueError, match="not a matrix"):
        linalg.charpoly_int(a)


MALFORMED_PAIRS = {
    "short-imaginary-row": ([[1, 2]], [[0]]),
    "no-imaginary-rows": ([[1, 2]], []),
    "extra-imaginary-row": ([[1, 2]], [[0, 0], [0, 0]]),
}


@pytest.mark.parametrize("a", MALFORMED_PAIRS.values(), ids=MALFORMED_PAIRS.keys())
def test_integer_kernels_refuse_a_malformed_pair(a):
    # zipping R against I row by row would drop entries without an error
    with pytest.raises(ValueError, match="not a matrix"):
        linalg.mat_mul_int(a, ([[1], [1]], [[0], [0]]))
    with pytest.raises(ValueError, match="not a matrix"):
        linalg.mat_mul_int(([[1]], [[0]]), a)
    with pytest.raises(ValueError, match="not a matrix"):
        linalg.from_int(a)
    with pytest.raises(ValueError, match="not a matrix"):
        linalg.shift_int(a, 1)


def test_integer_kernels_keep_well_formed_pairs():
    # the example the shape check guards: 1 + 2 = 3, not the 1 of a
    # truncated zip
    assert linalg.mat_mul_int(([[1, 2]], [[0, 0]]), ([[1], [1]], [[0], [0]])) == ([[3]], [[0]])
    assert linalg.shift_int(([[1, 2], [3, 4]], [[0, 1], [0, 0]]), 1) == (
        [[2, 2], [3, 5]], [[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="not square"):
        linalg.shift_int(([[1, 2]], [[0, 0]]), 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_charpoly_from_roots_matches_sympy(seed):
    rng = random.Random(5000 + seed)
    roots = [(Fraction(rng.randint(-9, 9), rng.randint(1, 6)), rng.randint(0, 3))
             for _ in range(1 + seed % 3)]
    expanded = sympy.Poly(sympy.prod([(X - sympy.Rational(r.numerator, r.denominator)) ** m
                                      for r, m in roots]), X)
    assert linalg.charpoly_from_roots(roots) == [from_sympy(c) for c in expanded.all_coeffs()]


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
    got = linalg.charpoly_from_roots(roots)
    assert got == expand_on_gaussian_rationals(roots)
    assert all(isinstance(c, GaussianRational) for c in got)


def test_charpoly_from_roots_edge_cases():
    assert linalg.charpoly_from_roots([]) == [gauss(1)]
    assert linalg.charpoly_from_roots([(Fraction(7, 3), 0)]) == [gauss(1)]
    assert linalg.charpoly_from_roots([(Fraction(1, 2), 2), (Fraction(-2, 3), 1)]) == \
        expand_on_gaussian_rationals([(Fraction(1, 2), 2), (Fraction(-2, 3), 1)]) == \
        [gauss(1), gauss(Fraction(-1, 3)), gauss(Fraction(-5, 12)), gauss(Fraction(1, 6))]


# -- sparse rank ------------------------------------------------------------------


def oracle_sparse_rank(rows):
    """sympy's rank of the rows ``{col: (re, im)}`` laid out densely over the
    sorted union of their columns."""
    columns = sorted({c for row in rows for c in row})
    if not columns:
        return 0
    return oracle_rank(([[row.get(c, (0, 0))[0] for c in columns] for row in rows],
                        [[row.get(c, (0, 0))[1] for c in columns] for row in rows]))


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
    """The Gaussian-integer matrices ``blocks`` on the diagonal of one."""
    n = sum(len(re) for re, _ in blocks)
    out = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        size = len(block[0])
        for part, whole in zip(block, out):
            for i in range(size):
                whole[at + i][at:at + size] = part[i]
        at += size
    return out


def permuted(a, rows, cols):
    """The matrix with entry ``a[rows[i]][cols[j]]`` at (i, j)."""
    return tuple([[part[r][c] for c in cols] for r in rows] for part in a)


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
    order = list(range(len(a[0])))
    rng.shuffle(order)
    return permuted(a, order, order)


@pytest.mark.parametrize("seed", range(12))
def test_split_matches_sympy_on_blocks_hidden_by_a_permutation(seed):
    rng = random.Random(8000 + seed)
    a = hidden_blocks(rng)
    assert linalg.charpoly_int(a) == oracle_charpoly(a)
    assert linalg.rank_int(a) == oracle_rank(a)
    shifted = linalg.shift_int(a, rng.choice([-2, -1, 1, 2]))
    assert linalg.rank_int(shifted) == oracle_rank(shifted)
    # rows and columns shuffled apart: a rank question, not a charpoly one
    rows, cols = list(range(len(a[0]))), list(range(len(a[0])))
    rng.shuffle(rows)
    rng.shuffle(cols)
    mixed = permuted(a, rows, cols)
    assert linalg.rank_int(mixed) == oracle_rank(mixed)


@pytest.mark.parametrize("seed", range(8))
def test_split_matches_sympy_on_blocks_coupled_one_way(seed):
    # [[B1, C], [0, B2]]: the rows of B1 reach the columns of B2 but not
    # back, and the split must still keep them together, since C can raise
    # the rank above the sum over B1 and B2
    rng = random.Random(8500 + seed)
    n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
    b1, b2 = random_int_matrix(rng, n1, n1), random_int_matrix(rng, n2, n2)
    c = random_int_matrix(rng, n1, n2, 0.5)
    c[0][0][0] = 1  # at least one coupling entry
    a = tuple([r1 + rc for r1, rc in zip(p1, pc)] + [[0] * n1 + r2 for r2 in p2]
              for p1, pc, p2 in zip(b1, c, b2))
    order = list(range(n1 + n2))
    rng.shuffle(order)
    for m in (a, permuted(a, order, order)):
        assert linalg.charpoly_int(m) == oracle_charpoly(m)
        for shift in (0, -1, 2):
            shifted = linalg.shift_int(m, shift)
            assert linalg.rank_int(shifted) == oracle_rank(shifted)
    # the transpose couples the other way
    t = tuple([list(col) for col in zip(*part)] for part in a)
    assert linalg.charpoly_int(t) == oracle_charpoly(t)


def times(row, c):
    """The Gaussian-integer row (re, im) parts times the Gaussian integer c."""
    (re, im), (x, y) = row, c
    return [x * u - y * v for u, v in zip(re, im)], [x * v + y * u for u, v in zip(re, im)]


def two_rows(r1, r2):
    return [r1[0], r2[0]], [r1[1], r2[1]]


def sparse(a):
    """The nonzero entries of each row of (R, I) as ``{col: (re, im)}``."""
    return [{c: (x, y) for c, (x, y) in enumerate(zip(rr, ri)) if x or y} for rr, ri in zip(*a)]


@pytest.mark.parametrize("seed", SEEDS)
def test_two_rows_proportional_by_a_non_real_ratio(seed):
    # 3v and (1 + 2i)v: proportional by (1 + 2i)/3, cleared to integers
    rng = random.Random(8800 + seed)
    v = random_int_matrix(rng, 1, 2 + seed, 0.3)
    v = v[0][0], v[1][0]
    v[0][0] = v[0][0] or 1
    a = two_rows(times(v, (3, 0)), times(v, (1, 2)))
    assert linalg.rank_int(a) == oracle_rank(a) == 1
    assert linalg.rank_sparse(sparse(a)) == 1
    # the same two rows beside a one-row component elsewhere
    wide = tuple([row + [0] for row in part] + [[0] * len(v[0]) + [5]] for part in a)
    assert linalg.rank_int(wide) == oracle_rank(wide) == 2


@pytest.mark.parametrize("seed", SEEDS)
def test_two_rows_not_proportional(seed):
    rng = random.Random(8900 + seed)
    cols = 2 + seed
    v = [rng.randint(1, 9) for _ in range(cols)], [rng.randint(-9, 9) for _ in range(cols)]
    w = times(v, (1, 2))
    # equal supports, one entry off the line
    bent = [x for x in w[0]], [y for y in w[1]]
    bent[0][-1] += 1
    a = two_rows(v, bent)
    assert linalg.rank_int(a) == oracle_rank(a) == 2
    assert linalg.rank_sparse(sparse(a)) == 2
    # unequal supports that still share a column: proportional where both
    # are nonzero, but one row has an entry the other lacks
    cut = [x for x in w[0]], [y for y in w[1]]
    cut[0][0] = cut[1][0] = 0
    a = two_rows(v, cut)
    assert linalg.rank_int(a) == oracle_rank(a) == 2
    assert linalg.rank_sparse(sparse(a)) == 2


def test_dbar_charpoly_runs_dense_faddeev_leverrier_on_blocks_of_two_at_most(monkeypatch):
    sizes = []
    dense = linalg._faddeev_leverrier

    def counted(a):
        sizes.append(len(a[0]))
        return dense(a)

    monkeypatch.setattr(linalg, "_faddeev_leverrier", counted)
    block = dbar_block_int(12)
    assert linalg.charpoly_int(block) == oracle_charpoly(block)
    assert sum(sizes) == 26 and max(sizes) <= 2


def test_eigen_identity_makes_no_dense_elimination(monkeypatch):
    calls = []
    dense = linalg._echelon_rank

    def counted(a):
        calls.append(len(a[0]))
        return dense(a)

    monkeypatch.setattr(linalg, "_echelon_rank", counted)
    for k in range(7):
        assert eigen_identity(k, transfer_eigenbasis(k), dirac_section).passed
    assert calls == []
