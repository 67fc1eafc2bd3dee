"""Verification suites behind ``spinor-s3 verify``.

Each suite is a list of jobs (usually one per degree k) that return
:class:`CheckResult` records.  The jobs run one after another, suites in
name order and each suite once, so the report lists its checks in
(suite, job) order on every run.  The dirac, laplace and transfer jobs of
one degree share the run's ladder, and the jobs of a run share its
identities of weights; ``run_suites`` keeps nothing for the next run.
One table, ``SUITES``, names each suite once with its default degree and
its check of one degree (none for the integral suite, which has jobs of
its own); ``cli`` reads its keys as the suite list and builds the
``--k-max`` help from it, and reads the integral suite's defaults
(``MC_SAMPLES``, ``MC_SEED``) and ``--rule``'s choices (``RULES``) from
here.

The integral suite's quadrature rules, ``tensor_quadrature`` and
``monte_carlo_quadrature`` (value and standard error, one
``SeedSequence(seed)`` child per 2^16-sample chunk), each over a list of
polynomials on one set of nodes or draws, live here beside the checks that
call them, with ``SPHERE_VOLUME``, which turns the exact integrals into
floats: this is the one module of the package that imports numpy.  ``cli``
imports it last, so numpy loads after every other module of the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import linalg
from .abstract_dirac import dbar_apply_first_principles, dbar_block_int, eigenbasis_abstract, \
    quadratic_check
from .exactnum import Record, add_parts, gauss, hamilton, scale_parts
from .geometry import (
    LEFT,
    RIGHT,
    _OPERATORS,
    _compose,
    _kills_z2_powers,
    dirac_section,
    l2_inner_product,
    laplace_section,
    monomial_integral,
)
from .polyring import G2, Polynomial, SpinorSection, Z_VIEW
from .repspace import casimir, casimir_expected, l_matrix_int
from .transfer import beta_lower, gram_matrix, recursive_table, transfer_slice, transfer_table

MC_SAMPLES = 1_000_000  # the integral suite's defaults, read by cli
MC_SEED = 0
RULES = ("tensor", "mc")  # --rule's choices
TENSOR_DEGREE = 8
TENSOR_REL_TOL = 1e-8
MC_SIGMAS = 3.0

#: Monte Carlo cross-check integrands, as z-view exponent tuples.
MC_MONOMIALS = (
    (0, 0, 0, 0),
    (1, 1, 0, 0),
    (1, 0, 0, 0),
    (2, 2, 0, 0),
    (1, 1, 1, 1),
    (0, 0, 2, 2),
)


class CheckResult(Record):
    """One reported line: the suite, the check's name, whether it passed and
    its detail."""

    __slots__ = _fields = ("suite", "name", "passed", "detail")

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  [{self.suite}] {self.name}: {self.detail}"


# -- casimir -------------------------------------------------------------


def _check_casimir_k(k: int) -> list[CheckResult]:
    ls = {i: l_matrix_int(i, k) for i in (1, 2, 3)}
    ok = casimir(ls[1], ls[2], ls[3]) == casimir_expected(k)
    out = [CheckResult("casimir", f"casimir k={k}", ok, f"-(l1^2+l2^2+l3^2) = {k * (k + 2)} id")]

    comm_ok = True
    units = [tuple(int(a == b) for b in range(4)) for a in range(4)]
    for i, j in ((1, 2), (2, 3), (3, 1)):
        ij, ji = linalg.mat_mul_int(ls[i], ls[j]), linalg.mat_mul_int(ls[j], ls[i])
        # l_i l_j and l_j l_i once for both orders; e_a e_b = sign e_m, read
        # off the actual product of the integer units; each row is a
        # denominator-1 vector's parts
        for a, b, ab, ba in ((i, j, ij, ji), (j, i, ji, ij)):
            m, sign = next((m, c) for m, c in enumerate(hamilton(units[a], units[b])) if c)
            comm = [add_parts(x, 1, y, 1, -1)[0] for x, y in zip(ab, ba)]
            expected = [scale_parts(row, 1, 2 * sign, 0, 1)[0] for row in ls[m]]
            comm_ok = comm_ok and comm == expected
    out.append(CheckResult("casimir", f"commutators k={k}", comm_ok,
                           "[l_i, l_j] = 2 l_(e_i e_j) for all ordered pairs"))
    return out


# -- quadratic + spectrum ------------------------------------------------


def _check_quadratic_k(k: int) -> list[CheckResult]:
    block = dbar_block_int(k)
    out = [CheckResult("quadratic", f"quadratic relation k={k}", quadratic_check(block),
                       f"(Dbar + {k})(Dbar - {k + 2}) = 0 on the 2(k+1) block")]

    n = 2 * (k + 1)
    char_ok = (linalg.charpoly_int(block), 1) == linalg.charpoly_from_roots(
        [(k + 2, k), (-k, k + 2)])
    plus_null = n - linalg.rank_sparse(linalg.shift_int(block, -(k + 2)))
    minus_null = n - linalg.rank_sparse(linalg.shift_int(block, k))
    try:
        plus, minus = eigenbasis_abstract(k)
    except AssertionError:
        # a family failed its own eigenvector check: no families to compare
        plus = minus = None
    diag_ok = (
        plus is not None
        and char_ok
        and plus_null * (k + 1) == k * (k + 1) == len(plus)
        and minus_null * (k + 1) == (k + 1) * (k + 2) == len(minus)
    )
    out.append(CheckResult(
        "quadratic", f"spectrum two ways k={k}", diag_ok,
        f"families vs exact diagonalization: mult({Fraction(2 * k + 1, 2)}) = {k * (k + 1)}, "
        f"mult({Fraction(-2 * k - 3, 2)}) = {(k + 1) * (k + 2)}",
    ))

    # every q slice is this one slice of the families; a row scaled by its
    # vector's denominator leaves the rank alone
    rank_ok = plus is not None and linalg.rank_sparse(
        [v._num for v in plus.vectors + minus.vectors]) == n
    out.append(CheckResult("quadratic", f"family union is a basis k={k}", rank_ok,
                           f"rank {n} on every q slice"))

    out.append(CheckResult("quadratic", f"closed Dbar = first principles k={k}",
                           dbar_apply_first_principles(k) == block,
                           "-sum (l_i .) e_i reproduces the two-term formulas"))
    return out


# -- the ladder, the identities of weights and the lines derived from them -------
#
# The transfer suite's equivariance and harmonicity lines and the lifts of
# the dirac and laplace suites are derived lines: each reads facts of the
# degree's images, checked once per run (_ladder), and identities of
# weights, each checked once per run on its first read (_commutes), and
# holds when all of them hold (_derived).  VERIFICATION.md gives the
# arguments.


@lru_cache(maxsize=None)
def _ladder(k: int) -> tuple[dict[str, bool], bool, int, dict]:
    """The degree's images, built once by each construction and checked:
    the ladder's facts by name (the two tables are equal; every image is
    nonzero with exponents (a, b, c, d), b + c = p and b + d = q; the top
    rungs are lowered to 0), whether every exponent is >= 0 and sums to k,
    the rank of the images, and the closed images of slice q = 0.
    ``run_suites`` clears the memo when it starts and when it ends."""
    closed = transfer_table(k)
    facts = {
        "closed = recursive": recursive_table(k) == closed,
        "supports fix (p, q)": all(
            not h.is_zero() and all(b + c == p and b + d == q for _, b, c, d in h._num)
            for (p, q), h in closed.items()),
        "beta_L h_k0 = 0": beta_lower(LEFT, closed[(k, 0)]).is_zero(),
        "beta_R h_pk = 0": all(beta_lower(RIGHT, closed[(p, k)]).is_zero() for p in range(k + 1)),
    }
    books = all(a >= 0 and b >= 0 and c >= 0 and d >= 0 and a + b + c + d == k
                for h in closed.values() for a, b, c, d in h._num)
    # each image scaled by its denominator: the rank does not change
    rank = linalg.rank_sparse([h._num for h in closed.values()])
    return facts, books, rank, {(p, 0): closed[(p, 0)] for p in range(k + 1)}


@lru_cache(maxsize=None)
def _commutes(a: str, b: str) -> tuple[str, bool]:
    """The identity [a, b] = 0 of two operators of ``geometry._OPERATORS`` and
    whether it holds: an equality of canonical weights on every pair of
    blocks, so on every exponent, for every degree at once."""
    held = all(_compose(x, y) == _compose(y, x) for x in _OPERATORS[a]() for y in _OPERATORS[b]())
    return f"[{a}, {b}] = 0", held


#: The ladder facts that a derived line names as one premise: all of them,
#: or the three of right equivariance, by which slice q = 0 is lifted.
_FACTS = {"the ladder": ("closed = recursive", "supports fix (p, q)", "beta_L h_k0 = 0",
                         "beta_R h_pk = 0"),
          "right equivariance": ("closed = recursive", "supports fix (p, q)", "beta_R h_pk = 0")}


def _derived(k: int, facts: str, identities: list[tuple[str, bool]]) -> tuple[bool, str]:
    """Decide and word a line of degree k derived from the ladder facts that
    ``facts`` names and the ``identities`` (name, held): the line holds when
    every premise does, and its detail's tail reads "derived from A, B and
    C", then "; failed: X, Y" with the premises that failed."""
    ladder = _ladder(k)[0]
    premises = {**{fact: ladder[fact] for fact in _FACTS[facts]}, **dict(identities)}
    failed = [premise for premise, held in premises.items() if not held]
    *rest, last = [facts, *(name for name, _ in identities)]
    return not failed, (f"derived from {', '.join(rest)} and {last}"
                        + ("; failed: " + ", ".join(failed) if failed else ""))


# -- transfer ----------------------------------------------------------------


def _check_transfer_k(k: int) -> list[CheckResult]:
    facts, books, rank, _ = _ladder(k)
    n = (k + 1) ** 2
    out = [CheckResult("transfer", f"closed form = recursive k={k}", facts["closed = recursive"],
                       f"all {n} images agree exactly")]

    # by the ladder every image is z2^k lowered p times left and q times
    # right; the identities carry what holds of z2^k, or of slice 0, to it
    for name, claim, identities in (
        ("equivariance", "lowering commutes with the transfer on both sides",
         [_commutes("beta_L", "beta_R")]),
        ("harmonicity", "flat Laplacian annihilates every image",
         [("Delta_R4 z2^k = 0", all(map(_kills_z2_powers, _OPERATORS["Delta_R4"]()))),
          _commutes("beta_L", "Delta_R4"), _commutes("beta_R", "Delta_R4")]),
    ):
        held, tail = _derived(k, "the ladder", identities)
        out.append(CheckResult("transfer", f"{name} k={k}", held, f"{claim}, {tail}"))

    out.append(CheckResult("transfer", f"exponent bookkeeping k={k}", books,
                           "all exponents >= 0 and sum to k"))

    # an exponent (a, b, c, d) fixes p = b + c and q = b + d, so distinct
    # images have disjoint supports and split into one-row components
    out.append(CheckResult("transfer", f"images independent k={k}", rank == n,
                           f"rank {rank} over the Gaussian rationals"))
    return out


# -- dirac / laplace on sections -------------------------------------------------
#
# The dirac job and the laplace eigenvalue line check slice q = 0 only and
# lift it to all 2(k+1)^2 sections of the degree, a line derived from right
# equivariance of the degree's images and the operator's [., beta_R] = 0.
# The commute line is [D, Delta] = 0 on the weights, which needs no lift.


def _eigensections(entries, n: int, where: str = "") -> tuple[bool, str]:
    """Whether the eigenbasis ``entries`` are n nonzero sections of exact
    rank n that each satisfy D sigma = lambda sigma under
    :func:`dirac_section`, and the detail that says so."""
    failed = [e for e in entries if dirac_section(e.section) != e.section.scale(e.eigenvalue)]
    # a section's numerators are the section times its one denominator,
    # which leaves the rank alone
    rows = [e.section._num for e in entries]
    nonzero = sum(1 for row in rows if row)
    rank = linalg.rank_sparse(rows)
    detail = (f"{len(entries) - len(failed)}/{n} sections{where} satisfy D sigma = lambda sigma "
              f"exactly, {nonzero} nonzero, rank {rank}")
    if failed:
        detail += f"; first failure family={failed[0].family} q={failed[0].q} p={failed[0].p}"
    return not failed and len(entries) == nonzero == rank == n, detail


def eigen_identity(k: int, entries) -> CheckResult:
    """The eigen-identity of every section that ``eigenbasis`` writes,
    checked before it writes: the 2(k+1)^2 ``entries`` of degree k are
    nonzero, have exact rank 2(k+1)^2, and each satisfies
    D sigma = lambda sigma."""
    return CheckResult("dirac", f"eigen-identity k={k}", *_eigensections(entries, 2 * (k + 1) ** 2))


def _check_dirac_k(k: int) -> list[CheckResult]:
    n = 2 * (k + 1)
    table = _ladder(k)[-1]
    try:
        families = eigenbasis_abstract(k)
    except AssertionError:
        # an abstract family failed its own eigenvector check: no sections
        families = ()
    entries = [e for family in families for e in transfer_slice(family, 0, table)]
    ok, detail = _eigensections(entries, n, " of slice q = 0")
    lifted, tail = _derived(k, "right equivariance", [_commutes("D", "beta_R")])
    return [CheckResult("dirac", f"eigen-identity k={k}", ok and lifted,
                        f"{detail}; lifted to all {n * (k + 1)} sections, {tail}")]


def _check_laplace_k(k: int) -> list[CheckResult]:
    # (h, 0) and (0, h) for each image h of slice q = 0 span what the
    # slice's eigensections span: each of those is a sum of them, and the
    # dirac suite checks their rank
    lam = 1 - (k + 1) ** 2
    zero = Polynomial.zero(Z_VIEW)
    images = list(_ladder(k)[-1].values())
    sections = [SpinorSection(h, zero) for h in images] + [SpinorSection(zero, h) for h in images]
    eig_ok = all(laplace_section(sigma) == sigma.scale(lam) for sigma in sections)
    lifted, tail = _derived(k, "right equivariance", [_commutes("Delta", "beta_R")])
    name, commutes = _commutes("D", "Delta")
    return [
        CheckResult("laplace", f"laplace eigenvalue k={k}", eig_ok and lifted,
                    f"Delta sigma = {lam} sigma on the {len(sections)} sections of slice q = 0; "
                    f"lifted to all {2 * (k + 1) ** 2} sections, {tail}"),
        CheckResult("laplace", f"dirac-laplace commute k={k}", commutes,
                    f"{name} on the weights that the runtime tables are compiled from, "
                    "so on every section of every degree"),
    ]


# -- numeric quadrature -------------------------------------------------------

#: The volume 2*pi^2 of the unit 3-sphere, the unit of every exact integral:
#: ``float(v) * SPHERE_VOLUME`` is the integral whose exact value is v.
SPHERE_VOLUME = 2.0 * math.pi**2


def _complex_terms(f: Polynomial):
    fz = f.in_view(Z_VIEW)
    return [(exp, complex(coeff)) for exp, coeff in fz.terms_sorted()]


def _eval_terms(terms, z1, z2):
    u = (z2, np.conj(z2), -z1, np.conj(z1))
    total = np.zeros(np.broadcast(z1, z2).shape, dtype=complex)
    for (a, b, c, d), coeff in terms:
        total = total + coeff * u[0] ** a * u[1] ** b * u[2] ** c * u[3] ** d
    return total


def tensor_quadrature(fs: list[Polynomial], n_angular: int, n_radial: int) -> list[complex]:
    """Sphere integral of each polynomial in ``fs`` on one grid, each equal
    to its one-polynomial call bit for bit, through the chart (t, s, rho) ->
    (e^{it} sqrt(rho), e^{is} sqrt(1-rho)) with volume element dt ds drho / 2:
    trapezoid in both angles with ``n_angular`` nodes, Gauss-Legendre in rho
    with ``n_radial``.  Exact on total degree d (up to roundoff) once
    n_angular > d and 2*n_radial - 1 >= d/2."""
    if n_angular < 1 or n_radial < 1:
        raise ValueError("tensor rule needs n_angular >= 1 and n_radial >= 1")
    t = 2.0 * np.pi * np.arange(n_angular) / n_angular
    nodes, weights = np.polynomial.legendre.leggauss(n_radial)
    rho = (nodes + 1.0) / 2.0
    w_rho = weights / 2.0
    tt = t[:, None, None]
    ss = t[None, :, None]
    rr = rho[None, None, :]
    z1 = np.exp(1j * tt) * np.sqrt(rr)
    z2 = np.exp(1j * ss) * np.sqrt(1.0 - rr)
    cell = (2.0 * np.pi / n_angular) ** 2 * 0.5
    return [
        complex(cell * np.sum(_eval_terms(_complex_terms(f), z1, z2) * w_rho[None, None, :]))
        for f in fs
    ]


_MC_CHUNK = 1 << 16


def monte_carlo_quadrature(fs: list[Polynomial], samples: int,
                           seed: int) -> list[tuple[complex, float]]:
    """(value, standard error) of the sphere integral of each polynomial in
    ``fs`` by Monte Carlo, on one set of draws, each equal to its
    one-polynomial call bit for bit.  The samples are drawn in fixed chunks
    of 2^16, one child stream per chunk, spawned from SeedSequence(seed) as
    the chunk is drawn, so the estimate is reproducible no matter how chunks
    are scheduled, and no stream is held before its chunk."""
    if samples < 2:
        # one sample has no variance estimate, so no error bar
        raise ValueError("monte carlo rule needs samples >= 2")
    if seed is None:
        raise ValueError("monte carlo rule needs an explicit seed")
    all_terms = [_complex_terms(f) for f in fs]
    # per polynomial: sums of the real and imaginary parts and of their squares
    sums = [[0.0, 0.0, 0.0, 0.0] for _ in all_terms]
    n = samples
    root = np.random.SeedSequence(seed)
    drawn = 0
    while drawn < n:
        m = min(_MC_CHUNK, n - drawn)
        rng = np.random.default_rng(root.spawn(1)[0])
        x = rng.standard_normal((m, 4))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        z1 = x[:, 0] + 1j * x[:, 1]
        z2 = x[:, 2] + 1j * x[:, 3]
        for acc, terms in zip(sums, all_terms):
            values = _eval_terms(terms, z1, z2)
            acc[0] += float(np.sum(values.real))
            acc[1] += float(np.sum(values.imag))
            acc[2] += float(np.sum(values.real**2))
            acc[3] += float(np.sum(values.imag**2))
        drawn += m
    results = []
    for total_re, total_im, sq_re, sq_im in sums:
        mean = complex(total_re / n, total_im / n)
        var_re = max(sq_re / n - (total_re / n) ** 2, 0.0)
        var_im = max(sq_im / n - (total_im / n) ** 2, 0.0)
        stderr = SPHERE_VOLUME * math.sqrt((var_re + var_im) / n)
        results.append((mean * SPHERE_VOLUME, stderr))
    return results


# -- integration -----------------------------------------------------------------


def _check_integral_exact() -> list[CheckResult]:
    out = []
    ok = (
        monomial_integral(0, 0, 0, 0) == 1
        and monomial_integral(1, 0, 0, 0) == 0
        and monomial_integral(0, 0, 1, 1) == Fraction(-1, 2)
        and all(monomial_integral(k, k, 0, 0) == Fraction(1, k + 1) for k in range(9))
    )
    out.append(CheckResult("integral", "closed monomial formula", ok,
                           "(-1)^l4 l1! l3! / (l1+l3+1)! in 2pi^2 units"))

    norms = all(l2_inner_product(G2**k, G2**k) == gauss(Fraction(1, k + 1)) for k in range(9))
    out.append(CheckResult("integral", "power norms", norms,
                           "<z2^k, z2^k> = 2pi^2/(k+1) for k <= 8"))
    return out


def _check_integral_tensor() -> list[CheckResult]:
    exps = [
        (l1, l2, l3, l4)
        for l1 in range(TENSOR_DEGREE + 1)
        for l2 in range(TENSOR_DEGREE + 1 - l1)
        for l3 in range(TENSOR_DEGREE + 1 - l1 - l2)
        for l4 in range(TENSOR_DEGREE + 1 - l1 - l2 - l3)
    ]
    values = tensor_quadrature([Polynomial.monomial(e, 1, Z_VIEW) for e in exps],
                               TENSOR_DEGREE + 1, (TENSOR_DEGREE + 2 + 1) // 2)
    worst = 0.0
    ok = True
    for e, value in zip(exps, values):
        exact = float(monomial_integral(*e)) * SPHERE_VOLUME
        err = abs(value - exact) / (1.0 + abs(exact))
        worst = max(worst, err)
        ok = ok and err <= TENSOR_REL_TOL
    return [CheckResult("integral", "tensor rule vs exact", ok,
                        f"{len(exps)} monomials of degree <= {TENSOR_DEGREE}, "
                        f"worst relative error {worst:.12g}")]


def _check_integral_mc(samples: int, seed: int) -> list[CheckResult]:
    ok = True
    details = []
    polys = [Polynomial.monomial(exps, 1, Z_VIEW) for exps in MC_MONOMIALS]
    for exps, (value, stderr) in zip(MC_MONOMIALS, monte_carlo_quadrature(polys, samples, seed)):
        exact = float(monomial_integral(*exps)) * SPHERE_VOLUME
        bound = MC_SIGMAS * stderr + 1e-12
        ok = ok and abs(value - exact) <= bound
        details.append(f"{exps}:{abs(value - exact):.3g}<= {bound:.3g}")
    return [CheckResult("integral", "monte carlo vs exact", ok,
                        f"{samples} samples, seed {seed}, |error| <= 3 sigma: " + ", ".join(details))]


def _check_gram(k_max: int) -> list[CheckResult]:
    out = []
    for k in range(k_max + 1):
        gram = gram_matrix(k)
        n = len(gram)
        diagonal = all(
            gram[i][j].is_zero() for i in range(n) for j in range(n) if i != j
        )
        exact = all(
            gram[p * (k + 1) + q][p * (k + 1) + q]
            == gauss(Fraction(1, (k + 1) * math.comb(k, p) * math.comb(k, q)))
            for p in range(k + 1)
            for q in range(k + 1)
        )
        out.append(CheckResult("integral", f"gram structure k={k}", diagonal and exact,
                               f"diagonal, exactly 1/({k + 1} C({k},p) C({k},q)) in 2pi^2 units"))
    return out


# -- suite assembly ---------------------------------------------------------------


#: Each suite by name, in the order ``cli`` lists them: its default degree
#: and its check of one degree, or None for the integral suite.  That suite
#: has jobs of its own, and only its Gram lines take a degree; they stop at
#: its default degree whatever k_max is.
SUITES = {
    "casimir": (12, _check_casimir_k),
    "quadratic": (12, _check_quadratic_k),
    "dirac": (6, _check_dirac_k),
    "transfer": (8, _check_transfer_k),
    "laplace": (6, _check_laplace_k),
    "integral": (5, None),
}


def suite_jobs(
    suite: str, k_max: Optional[int], rule: Optional[str], samples: int, seed: int
) -> list[Callable[[], list[CheckResult]]]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if rule not in (None, *RULES):
        raise ValueError(f"unknown quadrature rule {rule!r}")
    default, check_k = SUITES[suite]
    top = default if k_max is None else k_max
    if top < 0:
        raise ValueError("k_max must be >= 0")
    if check_k is not None:
        return [(lambda kk=k: check_k(kk)) for k in range(top + 1)]

    jobs: list[Callable[[], list[CheckResult]]] = [_check_integral_exact]
    if rule in (None, "tensor"):
        jobs.append(_check_integral_tensor)
    if rule in (None, "mc"):
        jobs.append(lambda: _check_integral_mc(samples, seed))
    jobs.append(lambda: _check_gram(min(top, default)))
    return jobs


def run_suites(
    suites: list[str],
    k_max: Optional[int] = None,
    rule: Optional[str] = None,
    samples: int = MC_SAMPLES,
    seed: int = MC_SEED,
) -> list[CheckResult]:
    """Run the jobs of each named suite in order, suites by name, each once."""
    memos = (_ladder, _commutes)  # what the run's jobs share, kept for this run
    for memo in memos:
        memo.cache_clear()
    results = [result for suite in sorted(set(suites))
               for job in suite_jobs(suite, k_max=k_max, rule=rule, samples=samples, seed=seed)
               for result in job()]
    for memo in memos:
        memo.cache_clear()
    return results
