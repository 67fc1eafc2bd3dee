"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import contextlib
import io
import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402


# -- self time ----------------------------------------------------------------


def table(rows):
    """rows: (name, parent index, thread, start, end)"""
    names = sorted({r[0] for r in rows})
    return spans.SpanTable(names, [names.index(r[0]) for r in rows], [r[1] for r in rows],
                           [r[2] for r in rows], [r[3] for r in rows], [r[4] for r in rows])


def test_self_time_of_nested_tree():
    t = table([
        ("cli.main", -1, 1, 0.0, 10.0),
        ("linalg.charpoly", 0, 1, 1.0, 4.0),
        ("linalg.mat_mul", 1, 1, 2.0, 3.0),
        ("linalg.mat_mul", 0, 1, 5.0, 9.0),
        ("linalg.mat_mul", 3, 1, 6.0, 6.5),  # recursion: self time splits
    ])
    assert t.self_times() == pytest.approx([3.0, 2.0, 1.0, 3.5, 0.5])
    self_s, inclusive, calls = t.by_name()
    assert self_s == pytest.approx({"cli.main": 3.0, "linalg.charpoly": 2.0, "linalg.mat_mul": 5.0})
    assert inclusive["linalg.mat_mul"] == pytest.approx(5.5)
    assert calls == {"cli.main": 1, "linalg.charpoly": 1, "linalg.mat_mul": 3}
    assert sum(t.self_times()) == pytest.approx(10.0)
    assert t.child_counts() == {"cli.main": 2, "linalg.charpoly": 1, "linalg.mat_mul": 1}


def test_layer_coverage_merges_threads_and_skips_orchestration():
    t = table([
        ("verify.run_suites", -1, 1, 0.0, 10.0),
        ("verify.job", -1, 2, 1.0, 6.0),
        ("polyring.Polynomial.partial", 1, 2, 2.0, 5.0),
        ("polyring.Polynomial.__mul__", 2, 2, 3.0, 4.0),  # inside a layer span
        ("verify.job", -1, 3, 1.0, 9.0),
        ("linalg.rank", 4, 3, 4.0, 8.0),  # overlaps the other thread's span
        ("cli._emit", 0, 1, 9.5, 10.0),
    ])
    assert t.layer_coverage() == pytest.approx(6.0 + 0.5)


# -- tracer ---------------------------------------------------------------------


def test_spans_nest_per_thread_under_contention():
    tracer = spans.Tracer()
    inner = tracer.span(lambda x: x + 1, "linalg.inner")
    outer = tracer.span(lambda n: sum(inner(i) for i in range(n)), "linalg.outer")
    calls = 200
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append(outer(calls))) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == [calls * (calls + 1) // 2] * 8
    t = tracer.spans()
    assert len(t) == 8 * (calls + 1)
    assert all(e >= s > 0 for s, e in zip(t.starts, t.ends))
    for i, p in enumerate(t.parents):
        name = t.names[t.name_ids[i]]
        if name == "linalg.outer":
            assert p == -1
        else:
            assert t.names[t.name_ids[p]] == "linalg.outer"
            assert t.threads[p] == t.threads[i]
            assert t.starts[p] <= t.starts[i] <= t.ends[i] <= t.ends[p]
    _, _, by_calls = t.by_name()
    assert by_calls == {"linalg.outer": 8, "linalg.inner": 8 * calls}


def attribute_snapshot():
    snap = {}
    for module in spans._library_modules():
        for attr, value in vars(module).items():
            snap[(module.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for cattr, cvalue in vars(value).items():
                    snap[(module.__name__, attr, cattr)] = cvalue
    return snap


def test_install_and_restore_leave_no_patch_behind():
    from spinor_s3 import cli, polyring, verify

    before = attribute_snapshot()
    original_mul = polyring.Polynomial.__mul__
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert polyring.Polynomial.__mul__ is not original_mul
        assert cli.run_suites is verify.run_suites  # the from-import binding is patched too
        assert "spinor_s3.polyring.Polynomial.__mul__" in spans.leftovers()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["verify", "--suite", "transfer", "--k-max", "1"])
    finally:
        tracer.restore()
    assert code == 0 and "10/10 checks passed" in out.getvalue()
    assert spans.leftovers() == []
    after = attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    summary = tracer.summary(0.0, 1.0)
    assert summary["calls"]["verify.job"] == 2
    assert summary["calls"]["transfer.iso_closed_form"] > 0
    assert summary["counts"]["mul"] > 0
    assert summary["counts"]["polyring.Polynomial.is_zero"] > 0  # counted, not spanned
    assert "polyring.Polynomial.is_zero" not in summary["calls"]
    assert summary["calls"]["polyring.Polynomial.partial"] > 0
    assert summary["verify"]["jobs"] == 2


def test_span_cost_is_small_and_positive():
    assert 0.0 < spans.span_cost_s(calls=2000) < 1e-3


# -- the speed probe ---------------------------------------------------------------


class _Running:
    @staticmethod
    def poll():
        return None


def probe_with(tmp_path, samples):
    path = tmp_path / "probe.txt"
    path.write_bytes(b"".join(f"{t!r} {d!r}\n".encode() for t, d in samples) + b"12.0 0.0")
    probe = run.SpeedProbe.__new__(run.SpeedProbe)
    probe.path, probe.proc, probe.skip = path, _Running(), 0
    return probe


def test_probe_speed_averages_the_speed_inside_the_window(tmp_path):
    ref = run.REF_CHUNK_S
    probe = probe_with(tmp_path, [(0.0, ref), (1.0, 2 * ref), (2.0, ref / 2), (3.0, ref), (4.0, 4 * ref)])
    assert probe.samples()[-1] == (4.0, 4 * ref)  # the half-written last line is skipped
    assert probe.speed(0.5, 2.6) == pytest.approx((0.5 + 2 + 1) / 3)
    assert run.at_reference(2.0, 1.0) == 2.0
    assert run.at_reference(2.0, 0.5) == pytest.approx(2.0 * 0.5 ** run.HOST_ELASTICITY)
    # too short for MIN_PROBES samples: the nearest samples stand in
    assert probe.speed(3.9, 0.05) == pytest.approx((0.25 + 1 + 2) / 3)


def test_probe_speed_fails_when_the_probe_died(tmp_path):
    probe = probe_with(tmp_path, [(0.0, 1e-3)])
    with pytest.raises(RuntimeError):
        probe.speed(0.0, 1.0)


# -- the gate ---------------------------------------------------------------------


@pytest.mark.parametrize("stdout, expected, passed, ok", [
    ("PASS  a\nPASS  b\n2/2 checks passed\n", 2, 2, True),
    ("2/2 checks passed\n\n", 2, 2, True),
    ("FAIL  a\nPASS  b\n1/2 checks passed\n", 2, 1, False),
    ("0/0 checks passed\n", 0, 0, False),
    ("0/0 checks passed\n", 78, 0, False),
    ("3/3 checks passed\n", 2, 0, False),
    ("3/2 checks passed\n", 2, 0, False),
    ("2/2 checks passed, mostly\n", 2, 0, False),
    ("Traceback (most recent call last):\n", 2, 0, False),
    ("", 2, 0, False),
])
def test_parse_summary(stdout, expected, passed, ok):
    got, error = run.parse_summary(stdout, expected)
    assert got == passed
    assert (error == "") == ok


# -- the declared metrics --------------------------------------------------------


def test_benchmark_json_matches_the_reported_metrics():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} <= set(run.WORKLOADS)
    assert [m["name"] for m in declared["end_to_end"]] == list(run.CONTRACT_METRICS)
    assert [m["name"] for m in declared["per_layer"]] == run.per_layer_names()
    for m in declared["end_to_end"] + declared["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
