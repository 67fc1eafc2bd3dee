"""The benchmark's micro and trace modes run against the library as it is.

``perfbench/child.py micro`` replays a Faddeev-LeVerrier loop on the
dense Gaussian-rational edge of ``linalg`` (``from_int``, ``_to_int``,
``mat_mul``, ``trace``, ``mat_add``, ``mat_scale``, ``identity``) and
``abstract_dirac.dbar_block_matrix``, which no other test reaches.
``perfbench/child.py trace`` wraps every library function and class in a
span and runs one CLI command through them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MICRO_KEYS = {"exactnum.mul_us", "exactnum.add_us", "polyring.mul_us",
              "polyring.partial_us", "polyring.in_view_us"}


def run_child(*args):
    """``perfbench/child.py`` with ``src`` on PYTHONPATH, as ``run.py`` runs it."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_perfbench_micro_mode_runs(tmp_path):
    out = tmp_path / "micro.json"
    proc = run_child("micro", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    assert set(result) == MICRO_KEYS
    assert all(value > 0 for value in result.values())


def test_perfbench_trace_mode_runs(tmp_path):
    out = tmp_path / "trace.json"
    proc = run_child("trace", str(out), "--", "verify", "--suite", "quadratic", "--k-max", "1")
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(out.read_text(encoding="utf-8"))["calls"]
    assert {"abstract_dirac.eigenbasis_abstract", "verify.job"} <= calls.keys()
