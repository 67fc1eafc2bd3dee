"""Work that the benchmark runs in a fresh interpreter of its own.

    python3 perfbench/child.py trace OUT.json -- <spinor-s3 arguments>
        runs one CLI command with every layer traced and writes the
        span summary to OUT.json; exits with the command's exit code.

    python3 perfbench/child.py micro OUT.json
        times the scalar and polynomial operations of ROADMAP aim 1 on
        fixed operands taken from the workloads and writes them to OUT.json.

    python3 perfbench/child.py probe
        times a fixed chunk of exact arithmetic every PROBE_INTERVAL_S and
        prints one line "START SECONDS" per chunk until it is terminated;
        run.py divides by these to correct for the speed of the CPU.

``src`` must be on PYTHONPATH; ``run.py`` sets it.
"""

from __future__ import annotations

import json
import signal
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402

MICRO_REPEATS = 5

#: Pause between two probe chunks; the probe takes about 2.5 % of its CPU.
PROBE_INTERVAL_S = 0.04


def trace_command(out: str, argv: list[str]) -> int:
    from spinor_s3 import cli

    tracer = spans.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        end = time.perf_counter()
        tracer.restore()
        sys.stdout.flush()
    left = spans.leftovers()
    if left:
        print(f"tracer left patched attributes: {', '.join(left)}", file=sys.stderr)
        return 3
    summary = tracer.summary(start, end)
    summary["span_cost_s"] = spans.span_cost_s()
    Path(out).write_text(json.dumps(summary), encoding="utf-8")
    return code


def _per_op_us(run, ops: int) -> float:
    """Median over repeats of one pass of ``run``, in microseconds per op,
    after one untimed warm-up pass."""
    run()
    passes = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter()
        run()
        passes.append(time.perf_counter() - t0)
    return statistics.median(passes) / ops * 1e6


def charpoly_iterate_entries(k: int = 12) -> list:
    """Nonzero entries of the Faddeev-LeVerrier iterates of the k-th Dbar
    block, the operands ``linalg.charpoly`` multiplies and adds."""
    from fractions import Fraction

    from spinor_s3 import linalg
    from spinor_s3.abstract_dirac import dbar_block_matrix
    from spinor_s3.exactnum import gauss

    a = dbar_block_matrix(k)
    n = len(a)
    m = [row[:] for row in a]
    entries = []
    for j in range(1, n):
        c = -(linalg.trace(m) * gauss(Fraction(1, j)))
        m = linalg.mat_mul(a, linalg.mat_add(m, linalg.mat_scale(linalg.identity(n), c)))
        entries.extend(x for row in m for x in row if not x.is_zero())
    return entries


def micro(out: str) -> int:
    from spinor_s3.polyring import X_VIEW
    from spinor_s3.transfer import iso_closed_form

    entries = charpoly_iterate_entries()
    step = max(len(entries) // 2000, 1)
    picked = entries[::step]
    pairs = [(picked[i], picked[(7 * i + 3) % len(picked)]) for i in range(len(picked))]
    sink = [None] * len(pairs)

    def scalar(op):
        def run():
            for i, (a, b) in enumerate(pairs):
                sink[i] = op(a, b)
        return run

    images = [iso_closed_form(8, p, q).poly for p in range(9) for q in range(9)]
    poly_pairs = [(images[i], images[(5 * i + 1) % len(images)]) for i in range(len(images))]
    poly_sink = [None] * (4 * len(images))

    def poly_mul():
        for i, (a, b) in enumerate(poly_pairs):
            poly_sink[i] = a * b

    def partial():
        for i, a in enumerate(images):
            for j in range(4):
                poly_sink[4 * i + j] = a.partial(j)

    converted = images[::3]  # a z-to-x conversion of degree 8 takes milliseconds

    def in_view():
        for i, a in enumerate(converted):
            poly_sink[i] = a.in_view(X_VIEW)

    result = {
        "exactnum.mul_us": _per_op_us(scalar(lambda a, b: a * b), len(pairs)),
        "exactnum.add_us": _per_op_us(scalar(lambda a, b: a + b), len(pairs)),
        "polyring.mul_us": _per_op_us(poly_mul, len(poly_pairs)),
        "polyring.partial_us": _per_op_us(partial, 4 * len(images)),
        "polyring.in_view_us": _per_op_us(in_view, len(converted)),
    }
    Path(out).write_text(json.dumps(result), encoding="utf-8")
    return 0


def probe_chunk() -> dict:
    """A fixed chunk of sparse polynomial arithmetic over Fraction, the kind
    of work the library does, written here so that no change to the
    library changes it; about a millisecond on an idle 2-core Xeon VM."""
    from fractions import Fraction

    p = {(i, 7 - i, i % 3): Fraction(i + 1, 3) for i in range(8)}
    q = {(i, 5 - i, i % 2): Fraction(2, i + 1) for i in range(6)}
    product: dict = {}
    for _ in range(7):
        for ea, ca in p.items():
            for eb, cb in q.items():
                key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                product[key] = product.get(key, 0) + ca * cb
    return product


def probe() -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda _signum, _frame: stop.append(True))
    while not stop:
        start = time.perf_counter()
        probe_chunk()
        print(f"{start!r} {time.perf_counter() - start!r}", flush=True)
        time.sleep(PROBE_INTERVAL_S)
    return 0


def main(argv: list[str]) -> int:
    if argv == ["probe"]:
        return probe()
    if len(argv) >= 2 and argv[0] == "micro":
        return micro(argv[1])
    if len(argv) >= 3 and argv[0] == "trace" and argv[2] == "--":
        return trace_command(argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
