#!/usr/bin/env python3
"""The spinor-s3 benchmark: runs the real CLI on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S] [--seed N] [--save FILE]

Every command runs as ``python -m spinor_s3.cli ...`` in a fresh
interpreter with ``src`` on PYTHONPATH, as a user runs it, so the
library's caches start cold.  Each command is gated: exit code 0, the
``M/N checks passed`` summary with M == N == the expected count, and the
sha256 of the exported JSON.  A gate failure counts as a failed operation.
The benchmark, its commands and a speed probe share one CPU, and times
are reported at a reference CPU speed (see ``SpeedProbe``).

With ``--trace 0`` the workload repeats for up to ``--seconds`` and the
end-to-end metrics are reported (medians over repeats).  With
``--trace 1`` one untraced and one traced repeat run, plus the micro
timings, and the per-layer metrics are reported.  ``--workload all`` does
both for every workload and prints every metric with its unit.  The last
line of standard output is always one JSON object.  See README.md for the
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
NPROC = len(os.sched_getaffinity(0))
#: The CPU that the benchmark, its commands and its speed probe share.
BENCH_CPU = max(os.sched_getaffinity(0))

#: A run must end well inside the 180 s a caller waits for it.
RUN_LIMIT_S = 170.0
#: Fresh interpreters timed per run for setup_s.
SETUP_REPEATS = 21
#: Time of one probe chunk at the reference speed (about this benchmark's
#: 2-core Xeon VM when its host is idle).
REF_CHUNK_S = 1e-3
#: How the workloads' wall time follows the probe's speed: on the VM above
#: it grew as speed ** -0.65 to -0.85 for the pure-Python workloads, over
#: two sets of ten runs with speeds from 0.36 to 0.76 (see README.md).
HOST_ELASTICITY = 0.7
#: Fewest probe samples a correction uses; shorter commands borrow the
#: nearest samples.
MIN_PROBES = 3

SUMMARY = re.compile(r"(\d+)/(\d+) checks passed")


@dataclass(frozen=True)
class Command:
    role: str  # "verify" or "export"
    args: tuple[str, ...]  # "{out}" and "{seed}" are filled in per run
    checks: int = 0  # expected N of the verify summary
    digest: str = ""  # key of the expected sha256 in expected.json
    out_file: bool = False  # the export is written through --out


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    threads: bool = False  # run with SPINOR_S3_THREADS = nproc


SECTIONS_VERIFY = Command("verify", ("verify", "--suite", "transfer,dirac,laplace"), checks=66)

WORKLOADS = {
    # Dense exact linear algebra over GaussianRational on the Dirac blocks;
    # polyring, geometry and transfer do no work here.
    "abstract": Workload((
        Command("verify", ("verify", "--suite", "casimir,quadratic"), checks=78),
        Command("export", ("spectrum", "--k-max", "12", "--format", "json"),
                digest="spectrum_sha256"),
    )),
    # Sparse polynomial calculus and JSON export; linalg runs only one rank
    # per degree.
    "sections": Workload((
        SECTIONS_VERIFY,
        Command("export", ("eigenbasis", "--k", "12", "--out", "{out}"),
                digest="eigenbasis_sha256", out_file=True),
    )),
    # numpy quadrature beside small exact integrals; no derivatives.  The
    # speed probe does not track how numpy work slows on a busy host, so
    # BENCHMARK.json leaves this workload out; run it by name.
    "integral": Workload((
        Command("verify", ("verify", "--suite", "integral", "--seed", "{seed}"), checks=10),
    )),
    # The sections verify through the verify thread pool, the only
    # workload that uses it.
    "fanout": Workload((SECTIONS_VERIFY,), threads=True),
}

#: Per-layer metric -> the spans whose self time it sums.
SELF_TIME = {
    "linalg.charpoly_s": ("linalg.charpoly",),
    "linalg.rank_s": ("linalg.rank",),
    "linalg.mat_mul_s": ("linalg.mat_mul",),
    "repspace.l_matrix_s": ("repspace.l_matrix",),
    "repspace.casimir_s": ("repspace.casimir",),
    "abstract_dirac.dbar_block_matrix_s": ("abstract_dirac.dbar_block_matrix",),
    "abstract_dirac.eigenbasis_abstract_s": ("abstract_dirac.eigenbasis_abstract",),
    "abstract_dirac.dbar_apply_first_principles_s": ("abstract_dirac.dbar_apply_first_principles",),
    "abstract_dirac.quadratic_check_s": ("abstract_dirac.quadratic_check",),
    "polyring.mul_s": ("polyring.Polynomial.__mul__", "polyring.Polynomial.__rmul__"),
    "polyring.add_s": ("polyring.Polynomial.__add__",),
    "polyring.partial_s": ("polyring.Polynomial.partial",),
    "polyring.in_view_s": ("polyring.Polynomial.in_view",),
    "polyring.laplacian_r4_s": ("polyring.laplacian_r4",),
    "geometry.killing_derivative_s": ("geometry.killing_derivative",),
    "geometry.dirac_section_s": ("geometry.dirac_section",),
    "geometry.laplace_section_s": ("geometry.laplace_section",),
    "transfer.iso_closed_form_s": ("transfer.iso_closed_form",),
    "transfer.iso_recursive_s": ("transfer.iso_recursive",),
    "transfer.beta_lower_s": ("transfer.beta_lower",),
    "transfer.transfer_eigenbasis_s": ("transfer.transfer_eigenbasis",),
    "cli.emit_s": ("cli._emit",),
}

#: The same for the integration functions, which only ``integral`` runs.
#: They are reported but not declared, like that workload.
INTEGRATION_SELF_TIME = {
    "geometry.eta_quadrature_s": ("geometry.eta_quadrature",),
    "geometry.l2_inner_product_s": ("geometry.l2_inner_product",),
    "geometry.gram_matrix_s": ("geometry.gram_matrix",),
}

#: Per-layer metric -> the span whose calls it counts.
CALLS = {
    "linalg.charpoly_calls": "linalg.charpoly",
    "linalg.rank_calls": "linalg.rank",
    "polyring.mul_calls": "polyring.Polynomial.__mul__",
    "polyring.partial_calls": "polyring.Polynomial.partial",
    "geometry.killing_derivative_calls": "geometry.killing_derivative",
}

#: Per-layer metric -> GaussianRational operation counted.
SCALAR_CALLS = {"exactnum.mul_calls": "mul", "exactnum.add_calls": "add",
                "exactnum.div_calls": "div"}

#: Top-level modules whose spans' tracer cost is estimated.
LAYERS = ("linalg", "repspace", "abstract_dirac", "polyring", "geometry",
          "transfer", "verify", "cli")

MICRO = ("exactnum.mul_us", "exactnum.add_us", "polyring.mul_us",
         "polyring.partial_us", "polyring.in_view_us")

VERIFY_METRICS = ("verify.jobs", "verify.job_busy_s", "verify.job_wait_s",
                  "verify.critical_job_s", "verify.pool_util")


def unit_of(metric: str) -> str:
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("_calls", ".jobs")):
        return "count"
    return "ratio"


# -- running one command ------------------------------------------------------


def child_env(threads: bool) -> dict:
    env = dict(os.environ)
    env.pop("SPINOR_S3_THREADS", None)
    if threads:
        env["SPINOR_S3_THREADS"] = str(NPROC)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], env: dict, stdout: Path, stderr: Path,
          deadline: float) -> tuple[int, float, float, float]:
    """Run ``argv`` to completion; return (exit code, start, wall seconds,
    max RSS in MB).  The child is killed if it is still running at
    ``deadline``."""
    lock = threading.Lock()
    reaped = False
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)

        def kill() -> None:
            with lock:
                if not reaped:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(deadline - time.perf_counter(), 0.1), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            with lock:
                reaped = True
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, wall, usage.ru_maxrss / 1024.0


def parse_summary(stdout: str, expected: int) -> tuple[int, str]:
    """Checks passed by a verify run, and an error ("" if none).

    The last non-empty line must read ``M/N checks passed`` with
    N == expected and M <= N.  Zero checks run is never a pass."""
    lines = [line.strip() for line in stdout.splitlines() if line.strip()]
    match = SUMMARY.fullmatch(lines[-1]) if lines else None
    if match is None:
        return 0, f"no 'M/N checks passed' summary (last line {lines[-1:]!r})"
    passed, total = int(match[1]), int(match[2])
    if total == 0:
        return 0, "0/0 checks: nothing was verified"
    if total != expected:
        return 0, f"{total} checks ran, expected {expected}"
    if passed > total:
        return 0, f"malformed summary {lines[-1]!r}"
    if passed < total:
        return passed, f"{total - passed} of {total} checks failed"
    return passed, ""


class SpeedProbe:
    """The speed of the benchmark's CPU, sampled while the commands run.

    The host's other tenants change the speed of this CPU by up to 1.7x,
    in phases of a few seconds, and user plus system time slows down with
    wall time.  So a process pinned to the commands' CPU (``child.py
    probe``) times a fixed chunk of sparse Fraction arithmetic every 40 ms,
    taking about 2.5 % of the CPU.  The speed while a command ran is the
    mean of ``REF_CHUNK_S / chunk time`` over the chunks that started
    meanwhile; see :func:`at_reference`.
    """

    def __init__(self, path: Path, env: dict, deadline: float) -> None:
        self.path = path
        with open(path, "wb") as out:
            self.proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), "probe"],
                                         stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        while len(self.samples()) < MIN_PROBES:  # the first chunks also import
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.close()
                raise RuntimeError("the speed probe did not start")
            time.sleep(0.05)
        self.skip = len(self.samples())

    def samples(self) -> list[tuple[float, float]]:
        lines = self.path.read_bytes().split(b"\n")[:-1]  # the last may be half written
        return [(float(t), float(d)) for t, d in (line.split() for line in lines)]

    def speed(self, start: float, wall: float) -> float:
        """The probe's speed relative to the reference, from ``start`` for
        ``wall`` seconds."""
        samples = self.samples()[self.skip:]
        inside = [d for t, d in samples if start <= t <= start + wall]
        if len(inside) < MIN_PROBES:
            mid = start + wall / 2
            inside = [d for _, d in sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_PROBES]]
        if len(inside) < MIN_PROBES or self.proc.poll() is not None:
            raise RuntimeError("the speed probe stopped")
        return statistics.fmean(REF_CHUNK_S / d for d in inside)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


def at_reference(wall: float, speed: float) -> float:
    """Seconds at the reference speed of a command that took ``wall``
    seconds while the probe ran at ``speed``."""
    return wall * speed ** HOST_ELASTICITY


class Runner:
    """Runs the commands of one workload in a scratch directory inside the
    checkout, times them at the reference speed and gates their output."""

    def __init__(self, name: str, seed: int, scratch: Path, started: float) -> None:
        self.workload = WORKLOADS[name]
        seeds = EXPECTED["mc_seeds"]
        self.mc_seed = seeds[seed % len(seeds)]
        self.scratch = scratch
        self.deadline = started + RUN_LIMIT_S
        self.env = child_env(self.workload.threads)
        self.probe = SpeedProbe(scratch / "probe.txt", self.env, self.deadline)

    def close(self) -> None:
        self.probe.close()

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float, float, float]:
        """Run one child; return (exit code, wall seconds, probe speed,
        max RSS in MB)."""
        code, start, wall, rss = spawn(argv, self.env, stdout, stderr, self.deadline)
        return code, wall, self.probe.speed(start, wall), rss

    def setup_times(self) -> tuple[list[float], list[float]]:
        """Times of fresh interpreters importing the CLI, at the reference
        speed and as wall time."""
        argv = [sys.executable, "-c", "import spinor_s3.cli"]
        out, err = self.scratch / "setup.out", self.scratch / "setup.err"
        ref, raw = [], []
        for i in range(SETUP_REPEATS + 1):
            code, wall, speed, _ = self.run(argv, out, err)
            if code != 0:
                raise RuntimeError(f"importing spinor_s3.cli failed: {err.read_text()[-500:]}")
            if i:  # the first import compiles bytecode; users pay that once
                ref.append(at_reference(wall, speed))
                raw.append(wall)
        return ref, raw

    def iteration(self, traced: bool) -> dict:
        """Run every command of the workload once."""
        rec = {"wall_s": 0.0, "raw_wall_s": 0.0, "host_speed": 0.0, "rss_mb": 0.0, "attempted": 0, "failed": 0,
               "output_bytes": 0, "errors": [], "commands": []}
        out_path = self.scratch / "export.json"
        for cmd in self.workload.commands:
            args = [a.format(out=out_path, seed=self.mc_seed) for a in cmd.args]
            stdout, stderr = self.scratch / "stdout.txt", self.scratch / "stderr.txt"
            trace_path = self.scratch / "trace.json"
            for stale in (out_path, trace_path):
                stale.unlink(missing_ok=True)
            if traced:
                argv = [sys.executable, str(HERE / "child.py"), "trace", str(trace_path), "--", *args]
            else:
                argv = [sys.executable, "-m", "spinor_s3.cli", *args]
            code, wall, speed, rss = self.run(argv, stdout, stderr)
            ref_s = at_reference(wall, speed)
            text = stdout.read_bytes()
            errors = [] if code == 0 else [
                f"exit code {code}: {stderr.read_text(errors='replace')[-300:]!r}"]
            checks_failed = 0
            if cmd.role == "verify":
                passed, error = parse_summary(text.decode(errors="replace"), cmd.checks)
                errors += [error] if error else []
                checks_failed = cmd.checks - passed
            else:
                body = out_path.read_bytes() if cmd.out_file and out_path.exists() else text
                if hashlib.sha256(body).hexdigest() != EXPECTED[cmd.digest]:
                    errors.append(f"{cmd.digest} mismatch")
            output_bytes = len(text) + (out_path.stat().st_size if out_path.exists() else 0)
            rec["attempted"] += 1 + cmd.checks
            rec["failed"] += (1 if errors else 0) + checks_failed
            rec["errors"] += [f"{' '.join(args)}: {e}" for e in errors]
            rec["wall_s"] += ref_s
            rec["raw_wall_s"] += wall
            rec["host_speed"] += wall * speed
            rec[f"{cmd.role}_s"] = rec.get(f"{cmd.role}_s", 0.0) + ref_s
            rec[f"raw_{cmd.role}_s"] = rec.get(f"raw_{cmd.role}_s", 0.0) + wall
            rec["rss_mb"] = max(rec["rss_mb"], rss)
            rec["output_bytes"] += output_bytes
            command = {"command": " ".join(cmd.args), "wall_s": ref_s, "raw_wall_s": wall,
                       "exit": code, "output_bytes": output_bytes}
            if traced and trace_path.exists():
                command["trace"] = json.loads(trace_path.read_text(encoding="utf-8"))
            rec["commands"].append(command)
        rec["host_speed"] /= rec["raw_wall_s"]
        return rec

    def micro(self) -> dict:
        """The micro timings, at the reference speed."""
        path = self.scratch / "micro.json"
        code, wall, speed, _ = self.run([sys.executable, str(HERE / "child.py"), "micro", str(path)],
                                        self.scratch / "micro.out", self.scratch / "micro.err")
        if code != 0:
            raise RuntimeError(f"micro timings failed: {(self.scratch / 'micro.err').read_text()[-500:]}")
        return {m: at_reference(v, speed) for m, v in json.loads(path.read_text(encoding="utf-8")).items()}


# -- metrics ------------------------------------------------------------------


def distribution(values: list[float]) -> dict:
    """Median, and the highest percentile that has at least ten samples
    above it, with the sample count.  Up to 21 samples that percentile
    would not exceed the median, so it is left out."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "tail_pct": None, "tail": None,
           "samples": list(values)}
    if n > 21:
        out["tail_pct"] = round(100.0 * (n - 10) / n, 1)
        out["tail"] = ordered[n - 11]
    return out


def end_to_end(iterations: list[dict], setup: list[float], raw_setup: list[float]) -> dict:
    """Every end-to-end metric of a workload as a distribution."""
    out = {"setup_s": distribution(setup), "raw_setup_s": distribution(raw_setup)}
    for key in ("wall_s", "verify_s", "export_s", "raw_wall_s", "raw_verify_s", "raw_export_s",
                "host_speed"):
        values = [it[key] for it in iterations if key in it]
        if values:
            out[key] = distribution(values)
    rss = [it["rss_mb"] for it in iterations]
    out["peak_rss_mb"] = {"median": max(rss), "n": len(rss), "tail_pct": 100.0,
                          "tail": max(rss), "samples": rss}
    attempted = sum(it["attempted"] for it in iterations)
    out["fail_frac"] = {"median": sum(it["failed"] for it in iterations) / attempted,
                        "n": attempted, "tail_pct": None, "tail": None, "samples": []}
    return out


def per_layer(traced: dict, untraced: dict, micro: dict) -> dict:
    """Per-layer metrics from one traced repeat of a workload.  Times are
    at the reference speed: each command's span times are scaled by its
    reference seconds per wall second."""
    commands = [c for c in traced["commands"] if "trace" in c]
    traces = [c["trace"] for c in commands]
    speeds = [c["wall_s"] / c["raw_wall_s"] for c in commands]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_spans: dict[str, int] = {}
    counts: dict[str, int] = {}
    for t, speed in zip(traces, speeds):
        for name, v in t["child_spans"].items():
            child_spans[name] = child_spans.get(name, 0) + v
        for name, v in t["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + v * speed
        for name, v in t["calls"].items():
            calls[name] = calls.get(name, 0) + v
        for name, v in t["counts"].items():
            counts[name] = counts.get(name, 0) + v
    out = {m: sum(self_s.get(s, 0.0) for s in spans)
           for m, spans in (SELF_TIME | INTEGRATION_SELF_TIME).items()}
    out.update({m: calls.get(s, 0) for m, s in CALLS.items()})
    out.update({m: counts.get(k, 0) for m, k in SCALAR_CALLS.items()})
    out.update({m: micro[m] for m in MICRO})

    jobs = [(t["verify"], speed) for t, speed in zip(traces, speeds)]
    n_jobs = sum(j["jobs"] for j, _ in jobs)
    busy = sum(j["job_busy_s"] for j, _ in jobs)
    capacity = sum(j["workers"] * j["suites_s"] for j, _ in jobs)
    out["verify.jobs"] = n_jobs
    out["verify.job_busy_s"] = sum(j["job_busy_s"] * speed for j, speed in jobs)
    out["verify.job_wait_s"] = (sum(j["job_wait_s"] * j["jobs"] * speed for j, speed in jobs) / n_jobs
                                if n_jobs else 0.0)
    out["verify.critical_job_s"] = max((j["critical_job_s"] * speed for j, speed in jobs), default=0.0)
    out["verify.pool_util"] = busy / capacity if capacity else 0.0
    out["cli.output_bytes"] = traced["output_bytes"]

    traced_wall = sum(t["wall_s"] for t in traces)
    out["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    out["trace.span_share"] = (sum(t["span_share"] * t["wall_s"] for t in traces) / traced_wall
                               if traced_wall else 0.0)
    costs = [t["span_cost_s"] * speed for t, speed in zip(traces, speeds)]
    out["trace.span_cost_us"] = statistics.median(costs) * 1e6 if costs else 0.0
    return out


def tracer_cost_by_layer(traced: dict) -> dict:
    """Estimated seconds of tracer bookkeeping inside each layer's self
    time, at the reference speed: the layer's direct child spans times the
    cost of one span.  It is an upper bound, because part of a span's cost
    falls inside the child span itself."""
    out = dict.fromkeys(LAYERS, 0.0)
    for c in traced["commands"]:
        if "trace" not in c:
            continue
        cost = c["trace"]["span_cost_s"] * c["wall_s"] / c["raw_wall_s"]
        for name, n in c["trace"]["child_spans"].items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += n * cost
    return out


def per_layer_names() -> list[str]:
    return (list(SELF_TIME) + list(CALLS) + list(SCALAR_CALLS) + list(MICRO)
            + list(VERIFY_METRICS) + ["cli.output_bytes", "trace.overhead_frac",
                                      "trace.span_share", "trace.span_cost_us"])


# -- runs ---------------------------------------------------------------------


def git_commit() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, check=False).stdout.strip()

    return {"commit": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def environment(seed: int) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy, "nproc": NPROC,
            "machine": platform.machine(), "seed": seed, **git_commit()}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload."""
    started = time.perf_counter()
    os.sched_setaffinity(0, {BENCH_CPU})  # the commands and the probe inherit it
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(name, seed, Path(tmp), started)
        try:
            result = run_workload(runner, name, seed, seconds, trace)
        finally:
            runner.close()
    result["attempted"] = sum(it["attempted"] for it in result["iterations"])
    result["failed"] = sum(it["failed"] for it in result["iterations"])
    result["errors"] = [e for it in result["iterations"] for e in it["errors"]]
    result["repeats"] = len(result.pop("iterations"))
    return result


def run_workload(runner: Runner, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """The results of one run; its repeats are under "iterations"."""
    result = {"workload": name, "trace": int(trace), "seed": seed,
              "mc_seed": runner.mc_seed if name == "integral" else None}
    if trace:
        untraced = runner.iteration(traced=False)
        traced = runner.iteration(traced=True)
        result["iterations"] = [untraced, traced]
        result["per_layer"] = per_layer(traced, untraced, runner.micro())
        result["tracer_cost_s_by_layer"] = tracer_cost_by_layer(traced)
        result["span_share_by_command"] = {
            c["command"]: c["trace"]["span_share"] for c in traced["commands"] if "trace" in c}
    else:
        setup, raw_setup = runner.setup_times()
        iterations = []
        deadline = time.perf_counter() + seconds
        last = 0.0  # a repeat starts only if one as long as the last ends in time
        while not iterations or time.perf_counter() + last <= deadline:
            began = time.perf_counter()
            iterations.append(runner.iteration(traced=False))
            last = time.perf_counter() - began
        result["iterations"] = iterations
        result["end_to_end"] = end_to_end(iterations, setup, raw_setup)
    return result


CONTRACT_METRICS = ("wall_s", "verify_s", "setup_s", "peak_rss_mb")


def contract_line(result: dict) -> dict:
    if "per_layer" in result:
        metrics = {m: {"value": result["per_layer"][m], "unit": unit_of(m)}
                   for m in per_layer_names()}
    else:
        metrics = {m: {"value": result["end_to_end"][m]["median"], "unit": unit_of(m)}
                   for m in CONTRACT_METRICS}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def report(result: dict) -> None:
    print(f"== {result['workload']} (trace {result['trace']}, {result['repeats']} repeats, "
          f"{result['attempted']} operations, {result['failed']} failed)")
    for e in result["errors"]:
        print(f"   FAILED {e}")
    for m, d in result.get("end_to_end", {}).items():
        tail = f"p{d['tail_pct']:g}={d['tail']:.4f}" if d["tail"] is not None else "tail n/a"
        samples = " ".join(f"{v:.4g}" for v in d["samples"])
        print(f"   {m:<12} median={d['median']:<10.6g} {unit_of(m):<5} {tail:<16} n={d['n']:<4} {samples}")
    for m, v in result.get("per_layer", {}).items():
        print(f"   {m:<44} {v:.6g} {unit_of(m)}")
    for cmd, share in result.get("span_share_by_command", {}).items():
        print(f"   span share {share:.3f}  {cmd}")
    for layer, cost in result.get("tracer_cost_s_by_layer", {}).items():
        print(f"   tracer cost in {layer} self time ~{cost:.3f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, default=None,
                        help="with --workload all: write every result and the environment here")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "spinor_s3" / "cli.py").is_file():
        print(f"error: no spinor_s3 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        report(result)
        print(json.dumps(contract_line(result)))
        return 0

    results = []
    for name in WORKLOADS:
        for trace in (False, True):
            results.append(measure(name, args.seed, args.seconds, trace))
            report(results[-1])
    if args.save:
        args.save.write_text(json.dumps({"env": env, "seconds": args.seconds,
                                         "results": results}, indent=1) + "\n")
    lines = [contract_line(r) for r in results]
    print(json.dumps({
        "correct": all(line["correct"] for line in lines),
        "attempted": sum(line["attempted"] for line in lines),
        "failed": sum(line["failed"] for line in lines),
        "metrics": {f"{r['workload']}.{m}": v for r, line in zip(results, lines)
                    for m, v in line["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
