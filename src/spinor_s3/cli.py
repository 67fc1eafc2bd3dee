"""Command-line front end.

Subcommands::

    spinor-s3 spectrum   --k-max N [--format table|json] [--out FILE]
    spinor-s3 eigenbasis --k K [--out FILE]
    spinor-s3 verify     --suite NAME[,NAME...] [--k-max N]
                         [--rule tensor|mc] [--samples N] [--seed S]

Exit codes: 0 success; 1 a failed verification (a failed ``verify`` check,
or a self-check of ``spectrum`` or ``eigenbasis``, reported as one
``internal verification failed:`` line); 2 a usage or input error, reported
as one ``error:`` line on stderr (any argument argparse refuses, a degree
above the cap, an unwritable --out, a write error partway through an
export, a failed write to stdout or a closed stdout, --help included, and
a request that would run no checks).  Exact values are printed as
num/den strings; floating point appears only in quadrature reports (12
significant digits).  ``eigenbasis`` checks its sections before it opens
the output, then writes the document one section at a time, each record
from one fixed layout with its ``num/den`` strings straight from the
section's numerators (``exactnum.ratio_to_str``), not through
``SpinorSection.to_json``.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import os
import sys
from typing import Callable, Iterable, Iterator, NoReturn, Optional

from .abstract_dirac import spectrum_table
from .exactnum import ratio_to_str, rational_to_str
from .polyring import _term_order
from .transfer import transfer_eigenbasis
from .verify import MC_SAMPLES, MC_SEED, RULES, SUITES, eigen_identity, run_suites

#: Exact-arithmetic cost grows fast with k; refuse degrees above this
#: unless --unsafe-k is given.  ``verify --suite all`` takes about 0.6 s at
#: 20 and 0.8 s at 28 (README.md gives the measurements); above 20 the
#: suites that build each degree's ladder, ``transfer``, ``dirac`` and
#: ``laplace``, grow fastest.
DEFAULT_K_CAP = 20


def _check_cap(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Refuse a degree above the cap through ``parser.error``."""
    if args.unsafe_k:
        return
    for value in (getattr(args, "k", None), getattr(args, "k_max", None)):
        if value is not None and value > DEFAULT_K_CAP:
            parser.error(
                f"k={value} exceeds the hard cap {DEFAULT_K_CAP}; "
                "exact coefficients grow quickly, pass --unsafe-k to override"
            )


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as one ``error:`` line
    and writes its ``--help`` text through :func:`_write_stdout`;
    argparse's own writer drops a failed write.  Subparsers are made of
    the same class."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")

    def print_help(self, file=None) -> None:
        if file is not None:
            super().print_help(file)
        elif _write_stdout((self.format_help(),)):
            self.exit(2)


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type for an int >= ``low``.  It is named ``int``, so
    that argparse reports a non-integer as ``invalid int value: 'x'``."""

    def check(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value

    check.__name__ = "int"
    return check


_NONNEGATIVE = _int_at_least(0)


def _suite_names(text: str) -> list[str]:
    """An argparse type for the comma-separated suite list, with ``all``
    expanded."""
    names = [s.strip() for s in text.split(",") if s.strip()]
    unknown = [n for n in names if n not in SUITES and n != "all"]
    if unknown or not names:
        raise argparse.ArgumentTypeError(
            f"unknown suite(s): {', '.join(unknown) or '(none given)'}")
    return list(SUITES) if "all" in names else names


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinor-s3",
        description="Exact spectrum and polynomial eigenbasis of the spin "
        "Dirac operator on the round 3-sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    unsafe_help = f"allow a degree above {DEFAULT_K_CAP}"

    spectrum = sub.add_parser("spectrum", help="print the eigenvalue/multiplicity table")
    spectrum.add_argument("--k-max", type=_NONNEGATIVE, required=True)
    spectrum.add_argument("--format", choices=("table", "json"), default="table")
    spectrum.add_argument("--out", type=str, default=None)
    spectrum.add_argument("--unsafe-k", action="store_true", help=unsafe_help)
    spectrum.set_defaults(run=cmd_spectrum)

    eigen = sub.add_parser("eigenbasis", help="export all eigensections of one degree as JSON")
    eigen.add_argument("--k", type=_NONNEGATIVE, required=True)
    eigen.add_argument("--out", type=str, default=None)
    eigen.add_argument("--unsafe-k", action="store_true", help=unsafe_help)
    eigen.set_defaults(run=cmd_eigenbasis)

    verify = sub.add_parser("verify", help="run exact/numeric verification suites")
    verify.add_argument("--suite", dest="suites", metavar="SUITE",
                        type=_suite_names, default="all",
                        help="comma-separated from: " + ", ".join(SUITES) + ", all")
    verify.add_argument("--k-max", type=_NONNEGATIVE, default=None,
                        help="check degrees 0..K_MAX; by default "
                        + ", ".join(f"{name} {k}" for name, (k, _) in SUITES.items())
                        + f"; the integral suite's Gram lines stop at {SUITES['integral'][0]}")
    verify.add_argument("--rule", choices=RULES, default=None,
                        help="run only this quadrature in the integral suite (default: both)")
    # one sample has no variance estimate to bound the error with
    verify.add_argument("--samples", type=_int_at_least(2), default=MC_SAMPLES,
                        help="Monte Carlo samples, at least 2 (default %(default)s)")
    verify.add_argument("--seed", type=_NONNEGATIVE, default=MC_SEED,
                        help="Monte Carlo seed (default %(default)s)")
    verify.add_argument("--unsafe-k", action="store_true", help=unsafe_help)
    verify.set_defaults(run=cmd_verify)

    return parser


def _write_stdout(chunks: Iterable[str]) -> int:
    """Write the text ``chunks`` to stdout and flush it; return the exit
    code.  On a write error (a full device, a closed pipe) stdout's file
    descriptor is pointed at the null device, so that the text still held
    in stdout's buffer is dropped and any later flush of stdout succeeds:
    :func:`entry`'s, or the interpreter's at exit for an in-process
    caller."""
    try:
        if sys.stdout is None:  # file descriptor 1 was closed at startup
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def _emit(chunks: Iterable[str], out: Optional[str]) -> int:
    """Write the text ``chunks`` in order to the file ``out``, or to stdout,
    opened once; return the exit code."""
    if out is None:
        return _write_stdout(chunks)
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        print(f"error: cannot write --out {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    rows = spectrum_table(args.k_max)
    if args.format == "json":
        import json  # only here: no other command pays for the import

        text = json.dumps([r.to_json() for r in rows], indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"{'k':>4}  {'eigenvalue':>12}  {'multiplicity':>12}"]
        for r in rows:
            lines.append(f"{r.k:>4}  {str(r.eigenvalue):>12}  {r.multiplicity:>12}")
        text = "\n".join(lines) + "\n"
    return _emit((text,), args.out)


def _eigenbasis_chunks(k: int, entries) -> Iterator[str]:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\n"`` for the document
    ``{"count": ..., "k": k, "sections": [...]}`` of the eigenbasis
    ``entries``, one chunk per section record, so that only one record is
    held at a time.  A record is ``e.section.to_json()`` with the entry's
    eigenvalue, family, p and q added; it is written from its one fixed
    layout, straight from the section's numerators and denominator."""
    yield f'{{\n  "count": {len(entries)},\n  "k": {k},\n  "sections": ['
    lead = "\n    "
    for e in entries:
        section = e.section
        out = [f'{lead}{{\n      "eigenvalue": "{rational_to_str(e.eigenvalue)}",\n      "f": ']
        _write_part(section, 0, out)
        out.append(f',\n      "family": "{e.family}",\n      "g": ')
        _write_part(section, 2, out)
        out.append(f',\n      "k": {section.degree},\n      "p": {e.p},\n'
                   f'      "q": {e.q}\n    }}')
        yield "".join(out)
        lead = ",\n    "
    yield "\n  ]\n}\n"


# One term of a part in a section record: its lead, the imaginary and real
# parts of its coefficient, and its four exponents.
_TERM = """%s          {
            "coeff": {
              "im": "%s",
              "re": "%s"
            },
            "exp": [
              %d,
              %d,
              %d,
              %d
            ]
          }"""


def _write_part(section, r: int, out: list[str]) -> None:
    """Append to ``out`` the record of part r of ``section`` (0 for f, 2 for
    g), as ``Polynomial.to_json`` gives it for that part: each coefficient
    part is reduced over the section's denominator, so it reads the same as
    over the part's own."""
    den = section._den
    terms = sorted(((exp, c) for (s, exp), c in section._num.items() if s == r),
                   key=_term_order)
    out.append('{\n        "terms": [')
    lead = "\n"
    for (a, b, c, d), (re, im) in terms:
        out.append(_TERM % (lead, ratio_to_str(im, den), ratio_to_str(re, den), a, b, c, d))
        lead = ",\n"
    close = "\n        ]" if terms else "]"
    out.append(f'{close},\n        "view": "{section.view}"\n      }}')


def cmd_eigenbasis(args: argparse.Namespace) -> int:
    entries = transfer_eigenbasis(args.k)
    check = eigen_identity(args.k, entries)
    if not check.passed:
        raise AssertionError(check.line())
    return _emit(_eigenbasis_chunks(args.k, entries), args.out)


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suites(
        args.suites, k_max=args.k_max, rule=args.rule, samples=args.samples, seed=args.seed
    )
    if not results:
        # zero checks run is not a pass
        print("error: no checks ran", file=sys.stderr)
        return 2
    failed = sum(not r.passed for r in results)
    lines = [r.line() + "\n" for r in results]
    lines.append(f"{len(results) - failed}/{len(results)} checks passed\n")
    return _write_stdout(lines) or (1 if failed else 0)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_cap(parser, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except AssertionError as exc:
        # a self-check failed: an abstract family's eigenvector check, or
        # the eigen-identity of the sections about to be exported
        print(f"internal verification failed: {exc}", file=sys.stderr)
        return 1


def entry() -> NoReturn:
    """The process entry of ``python -m spinor_s3.cli`` and of the
    ``spinor-s3`` script: run :func:`main`, then the registered exit
    handlers, flush stdout and stderr, and end the process with
    ``os._exit``.

    That skips the interpreter's teardown (module cleanup and a last
    garbage collection, about 30 ms), which writes nothing.  It is safe
    because importing this package starts no thread to join and adds no
    exit handler, the handlers that others registered run first, and every
    file is closed by its ``with`` block.  A failed flush of stdout is
    reported as any failed write to stdout is, with exit code 2.  An
    uncaught exception ends the process the normal way, with its
    traceback."""
    code = main()
    atexit._run_exitfuncs()
    if sys.stdout is not None and _write_stdout(()):
        code = 2
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:
            pass  # nowhere left to report it; the interpreter ignores it too
    os._exit(code)


if __name__ == "__main__":
    entry()
