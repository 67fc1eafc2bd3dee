"""Span tracer for the spinor_s3 layers.

The tracer wraps the public functions and methods of each library module,
both where they are defined and on every ``spinor_s3`` module that bound
the name with ``from ... import``.  Every wrapped call records a span: its
name, the thread it ran on, its start and end, and the span that was open
on the same thread when it began (its parent).  Self time is a span's
duration minus the durations of its children, which nest inside it
because parents are taken from the span's own thread.

``GaussianRational`` operations and trivial accessors such as
``Polynomial.is_zero`` take a microsecond or so, so a span would cost more
than the call and would inflate the caller's self time; they are counted
instead, with per-thread counters.  :func:`span_cost_s` measures what a
span still adds, so the tracer's share of each layer can be estimated.

All patching is undone by :meth:`Tracer.restore`; :func:`leftovers`
finds any wrapper that was left behind.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from array import array
from collections import Counter

#: Library modules that get spans, in dependency order.
SPAN_MODULES = (
    "linalg", "repspace", "abstract_dirac", "polyring", "geometry",
    "transfer", "verify", "cli",
)

#: Operator methods that get spans like public methods do.
OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__pow__",
)

#: Private names that still get a span, per module.
PRIVATE_SPANS = {"cli": ("_emit",)}

#: GaussianRational operations that are counted, not spanned.
COUNTED = {"__add__": "add", "__radd__": "add", "__mul__": "mul",
           "__rmul__": "mul", "__truediv__": "div"}

#: Methods of library classes that are counted, not spanned: accessors and
#: constructors that take about a microsecond.
COUNTED_METHODS = (
    "zero", "constant", "variable", "monomial", "is_zero", "degree",
    "is_homogeneous", "coefficient", "as_dict", "float_value", "line",
    "check_cap",
)

#: Spans that only dispatch work; the rest are layer spans.
ORCHESTRATION_PREFIXES = ("cli.", "verify.")

_ORIGINAL = "__perfbench_original__"


def _library_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "spinor_s3" or name.startswith("spinor_s3."))]


class Tracer:
    """Records spans and counts; :meth:`install` patches, :meth:`restore`
    unpatches.  One tracer serves one traced command."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_thread = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.jobs: list[tuple[float, float, float]] = []  # (queued, start, end)
        self._counters: list[Counter] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, fn, name: str):
        """Return ``fn`` wrapped so that each call records a span."""
        nid = self._name_id(name)
        lock, local, clock = self._lock, self._local, time.perf_counter
        names, parents, threads = self.span_name, self.span_parent, self.span_thread
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                idx = len(starts)
                names.append(nid)
                parents.append(stack[-1] if stack else -1)
                threads.append(threading.get_ident())
                ends.append(0.0)
                starts.append(clock())
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                end = clock()
                with lock:
                    ends[idx] = end

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    def counter(self, fn, key: str):
        """Return ``fn`` wrapped so that each call bumps a per-thread count."""
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = getattr(local, "counts", None)
            if counts is None:
                counts = local.counts = Counter()
                with self._lock:
                    self._counters.append(counts)
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    def _job(self, job, queued: float):
        traced = self.span(job, "verify.job")

        def run():
            start = time.perf_counter()
            try:
                return traced()
            finally:
                end = time.perf_counter()
                with self._lock:
                    self.jobs.append((queued, start, end))

        return run

    def _suite_jobs(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            jobs = fn(*args, **kwargs)
            queued = time.perf_counter()
            return [self._job(job, queued) for job in jobs]

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, prefix: str) -> None:
        done: dict[int, object] = {}  # aliases such as __rmul__ = __mul__ share a wrapper
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn):
                continue
            if id(fn) not in done:
                name = f"{prefix}.{cls.__name__}.{attr}"
                wrap = self.counter if attr in COUNTED_METHODS else self.span
                done[id(fn)] = wrap(fn, name)
            self._patch(cls, attr, kind(done[id(fn)]) if kind else done[id(fn)])

    def install(self) -> None:
        """Wrap every layer of the ``spinor_s3`` package."""
        exactnum = importlib.import_module("spinor_s3.exactnum")
        done: dict[int, object] = {}
        for attr, key in COUNTED.items():
            fn = vars(exactnum.GaussianRational)[attr]
            if id(fn) not in done:
                done[id(fn)] = self.counter(fn, key)
            self._patch(exactnum.GaussianRational, attr, done[id(fn)])

        functions: dict[int, object] = {}  # id(original) -> wrapper
        for short in SPAN_MODULES:
            module = importlib.import_module(f"spinor_s3.{short}")
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, type):
                    if obj.__module__ == module.__name__:
                        self._wrap_class(obj, short)
                    continue
                public = not attr.startswith("_") or attr in PRIVATE_SPANS.get(short, ())
                if not (public and callable(obj)
                        and getattr(obj, "__module__", None) == module.__name__):
                    continue
                if short == "verify" and attr == "suite_jobs":
                    functions[id(obj)] = self._suite_jobs(obj)
                else:
                    functions[id(obj)] = self.span(obj, f"{short}.{attr}")

        for module in _library_modules():
            for attr, obj in list(vars(module).items()):
                if id(obj) in functions and not isinstance(obj, type):
                    self._patch(module, attr, functions[id(obj)])

    def restore(self) -> None:
        """Put every patched attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def counts(self) -> Counter:
        total: Counter = Counter()
        with self._lock:
            for c in self._counters:
                total.update(c)
        return total

    def spans(self) -> "SpanTable":
        with self._lock:
            return SpanTable(self.names, self.span_name, self.span_parent,
                             self.span_thread, self.span_start, self.span_end)

    def summary(self, start: float, end: float) -> dict:
        """Everything the benchmark reports about one traced command that
        ran from ``start`` to ``end``."""
        table = self.spans()
        self_s, inclusive_s, calls = table.by_name()
        child_spans = table.child_counts()
        wall = end - start
        suites = inclusive_s.get("verify.run_suites", 0.0)
        workers = int(os.environ.get("SPINOR_S3_THREADS", "1") or "1")
        with self._lock:
            jobs = list(self.jobs)
        busy = sum(e - s for _, s, e in jobs)
        return {
            "wall_s": wall,
            "span_share": table.layer_coverage() / wall if wall > 0 else 0.0,
            "self_s": self_s,
            "calls": calls,
            "child_spans": child_spans,
            "counts": dict(self.counts()),
            "verify": {
                "jobs": len(jobs),
                "job_busy_s": busy,
                "job_wait_s": sum(s - q for q, s, _ in jobs) / len(jobs) if jobs else 0.0,
                "critical_job_s": max((e - s for _, s, e in jobs), default=0.0),
                "workers": max(workers, 1),
                "suites_s": suites,
            },
        }


class SpanTable:
    """Spans as parallel columns; parents always precede their children."""

    def __init__(self, names, name_ids, parents, threads, starts, ends) -> None:
        self.names = list(names)
        self.name_ids = list(name_ids)
        self.parents = list(parents)
        self.threads = list(threads)
        self.starts = list(starts)
        self.ends = list(ends)

    def __len__(self) -> int:
        return len(self.starts)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        out = list(own)
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= own[i]
        return out

    def by_name(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Self time, inclusive time and call count summed per span name."""
        self_s: dict[str, float] = {}
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, t in enumerate(self.self_times()):
            name = self.names[self.name_ids[i]]
            self_s[name] = self_s.get(name, 0.0) + t
            inclusive[name] = inclusive.get(name, 0.0) + self.ends[i] - self.starts[i]
            calls[name] = calls.get(name, 0) + 1
        return self_s, inclusive, calls

    def child_counts(self) -> dict[str, int]:
        """Direct children per span name: each child's bookkeeping before
        its start and after its end is charged to the parent's self time."""
        out: dict[str, int] = {}
        for p in self.parents:
            if p >= 0:
                name = self.names[self.name_ids[p]]
                out[name] = out.get(name, 0) + 1
        return out

    def layer_coverage(self) -> float:
        """Seconds during which at least one thread was inside a layer span
        (any span that is not orchestration)."""
        is_layer = [not self.names[n].startswith(ORCHESTRATION_PREFIXES)
                    or self.names[n] == "cli._emit" for n in self.name_ids]
        inside = [False] * len(self)
        intervals = []
        for i, p in enumerate(self.parents):
            enclosed = p >= 0 and inside[p]
            inside[i] = is_layer[i] or enclosed
            if is_layer[i] and not enclosed:
                intervals.append((self.starts[i], self.ends[i]))
        intervals.sort()
        covered = 0.0
        cur_start = cur_end = None
        for s, e in intervals:
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        return covered


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one span adds to a call: the best of three loops of ``calls``
    calls of an empty function through a span, minus the same unwrapped."""

    def empty() -> None:
        return None

    def loop(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    wrapped = Tracer().span(empty, "calibration")
    loop(wrapped)
    spanned = min(loop(wrapped) for _ in range(3))
    plain = min(loop(empty) for _ in range(3))
    return max(spanned - plain, 0.0) / calls


def leftovers() -> list[str]:
    """Names of attributes on ``spinor_s3`` modules and classes that still
    hold a tracer wrapper."""
    found = []

    def check(owner, label: str) -> None:
        for attr, raw in list(vars(owner).items()):
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if hasattr(fn, _ORIGINAL):
                found.append(f"{label}.{attr}")
            if isinstance(raw, type) and raw.__module__.startswith("spinor_s3") \
                    and owner is sys.modules.get(raw.__module__):
                check(raw, f"{label}.{attr}")

    for module in _library_modules():
        check(module, module.__name__)
    return found
