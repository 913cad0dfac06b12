"""Span tracer for the benchmark's traced repetition.

The tracer changes nothing in the package: it replaces, for the lifetime of
one child process, the names the package's callers resolve at call time
(module attributes such as ``fracldg.ldg.step`` and class attributes such as
``LdgOperators.solve_system``) with wrappers that record a span per call.
Spans (name, start, end, parent, run id) stay in memory; the child writes
them out when it ends. A target that no longer exists is recorded as missing
instead of failing the run, so the benchmark keeps working when a later
change removes or renames a function; its layer then reads zero.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import math
import os
import resource
import statistics
import time
from collections import defaultdict

#: Span names reported per layer, in report order. ``cli.main`` is opened by
#: the child around each study; every other name comes from a wrapper.
LAYERS = (
    "cli.main",
    "cli.load_config",
    "ldg.solve",
    "ldg.assemble_operators",
    "ldg.step",
    "ldg.solve_system",
    "fractional.substantial_history",
    "fractional.l1_coefficients",
    "basis.eval_on_grid",
    "basis.eval_volume_quad",
    "basis.l2_project",
    "problems.f",
    "problems.exact",
    "analysis.error_E",
    "analysis.condition_number",
)

#: (span name, module, attribute path) for every plain wrapper. One layer may
#: be reached through several names, e.g. ``l2_project`` is imported by name
#: into ``ldg`` and ``analysis``; each binding is wrapped.
TARGETS = (
    ("cli.load_config", "fracldg.cli", "load_config"),
    ("ldg.assemble_operators", "fracldg.ldg", "assemble_operators"),
    ("fractional.substantial_history", "fracldg.ldg", "substantial_history"),
    ("fractional.l1_coefficients", "fracldg.ldg", "l1_coefficients"),
    ("fractional.l1_coefficients", "fracldg.fractional", "l1_coefficients"),
    ("basis.eval_on_grid", "fracldg.ldg", "eval_on_grid"),
    ("basis.eval_on_grid", "fracldg.basis", "eval_on_grid"),
    ("basis.eval_volume_quad", "fracldg.basis", "DgField.eval_volume_quad"),
    ("basis.l2_project", "fracldg.ldg", "l2_project"),
    ("basis.l2_project", "fracldg.basis", "l2_project"),
    ("basis.l2_project", "fracldg.analysis", "l2_project"),
    ("analysis.error_E", "fracldg.analysis", "error_E"),
    ("analysis.condition_number", "fracldg.analysis", "condition_number"),
)

#: Spans the tracer opens for its own checks; they are subtracted from their
#: parent's self time and reported nowhere else.
CHECK_SPAN = "trace.check"


def _layer_specs() -> tuple[tuple[str, str, str], ...]:
    specs = []
    for name in LAYERS:
        specs += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.s", "s", "lower"),
            (f"{name}.self_s", "s", "lower"),
        ]
    specs += [
        ("ldg.solve_system.p99_ms", "ms", "lower"),
        ("ldg.solve_system.factorizations", "count", "lower"),
        ("ldg.solve_system.factor_s", "s", "lower"),
        ("ldg.solve_system.factor_reuse", "ratio", "higher"),
        ("ldg.solve_system.max_rel_residual", "ratio", "lower"),
        ("ldg.solve.rss_growth_mb", "MB", "lower"),
        ("ldg.step.p50_ms", "ms", "lower"),
        ("ldg.step.p99_ms", "ms", "lower"),
        ("ldg.step.late_early_ratio", "ratio", "lower"),
        ("fractional.substantial_history.p99_ms", "ms", "lower"),
        ("fractional.mittag_leffler.calls", "count", "lower"),
        ("fractional.mittag_leffler.hit_ratio", "ratio", "higher"),
        ("trace.missing", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return tuple(specs)


#: (metric name, unit, better) of every per-layer metric, as BENCHMARK.json lists them.
PER_LAYER = _layer_specs()


def percentile(samples, q: float) -> tuple[float, int]:
    """The q-th percentile (linear interpolation between order statistics)
    and the number of samples it rests on; (0.0, 0) for no samples."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 0.0, 0
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), n


def self_time(start: float, end: float, children) -> float:
    """Duration of [start, end] minus the part covered by the child intervals."""
    covered = 0.0
    run_s = run_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in children):
        if e <= s:
            continue
        if run_e is None or s > run_e:
            if run_e is not None:
                covered += run_e - run_s
            run_s, run_e = s, e
        else:
            run_e = max(run_e, e)
    if run_e is not None:
        covered += run_e - run_s
    return (end - start) - covered


def _rss_mb() -> float:
    """Current resident set size of this process, in MiB."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return _maxrss_mb()


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: str


def largest_self(metrics: dict[str, float]) -> str:
    """Layer with the largest total self time."""
    return max(LAYERS, key=lambda name: metrics[f"{name}.self_s"])


class Tracer:
    """In-memory span recorder plus the wrappers it installs."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.run_id = ""
        self.missing: list[str] = []
        self.residuals: list[float] = []
        self.rss_growth_mb: list[float] = []
        self.factorizations: list[tuple[int, float]] = []  # (enclosing span, seconds)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._solve_rss: list[float] | None = None  # [rss at entry, highest sample]
        self._ml_base = None

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), math.nan, parent, self.run_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, after=None):
        """fn timed as span `name`; after(args, kwargs, result), if given, runs
        once the span has closed, inside a check span of the same parent."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                with self.span(CHECK_SPAN):
                    after(args, kwargs, result)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.run]) + "\n")

    # -- installation -----------------------------------------------------
    def _patch(self, module: str, path: str, make) -> None:
        """Replace module.path by make(current value); record it as missing
        when the module or attribute does not exist."""
        try:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            current = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{path}")
            return
        self._restore.append((owner, attr, current))
        setattr(owner, attr, make(current))

    def install(self) -> None:
        for name, module, path in TARGETS:
            self._patch(module, path, functools.partial(self.wrap, name))
        self._patch("fracldg.ldg", "solve", self._wrap_solve)
        self._patch(
            "fracldg.ldg", "step", lambda fn: self.wrap("ldg.step", fn, self._sample_rss)
        )
        self._patch(
            "fracldg.ldg",
            "LdgOperators.solve_system",
            lambda fn: self.wrap("ldg.solve_system", fn, self._record_residual),
        )
        self._patch("scipy.sparse.linalg", "splu", self._wrap_factorization)
        for factory in ("example1", "example2"):
            self._patch("fracldg.problems", factory, self._wrap_problem_factory)
        try:
            from fracldg.fractional import mittag_leffler

            self._ml_base = mittag_leffler.cache_info()
        except (ImportError, AttributeError):
            self.missing.append("fracldg.fractional.mittag_leffler.cache_info")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- special wrappers -------------------------------------------------
    def _wrap_solve(self, fn):
        inner = self.wrap("ldg.solve", fn)

        @functools.wraps(fn)
        def solve(*args, **kwargs):
            rss0 = _rss_mb()
            maxrss0 = _maxrss_mb()
            self._solve_rss = [rss0, rss0]
            try:
                return inner(*args, **kwargs)
            finally:
                peak = self._solve_rss[1]
                maxrss = _maxrss_mb()
                if maxrss > maxrss0:  # this call set a new process high-water mark
                    peak = max(peak, maxrss)
                self.rss_growth_mb.append(peak - rss0)
                self._solve_rss = None

        return solve

    def _sample_rss(self, args, kwargs, result) -> None:
        if self._solve_rss is not None:
            self._solve_rss[1] = max(self._solve_rss[1], _rss_mb())

    def _record_residual(self, args, kwargs, x) -> None:
        import numpy as np

        ops, a0, b = (*args, kwargs.get("a0"), kwargs.get("b"))[:3]
        try:
            res = float(np.linalg.norm((a0 * ops.M) * x + ops.K @ x - b))
        except AttributeError:  # the operators no longer expose K and M
            if "LdgOperators.K/M" not in self.missing:
                self.missing.append("LdgOperators.K/M")
            return
        bnorm = float(np.linalg.norm(b))
        self.residuals.append(res / bnorm if bnorm > 0.0 else res)

    def _wrap_factorization(self, fn):
        """Counts factorizations and attributes each to the enclosing span,
        without a span of its own, so the caller's self time keeps it."""

        @functools.wraps(fn)
        def splu(*args, **kwargs):
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                parent = self._stack[-1] if self._stack else -1
                self.factorizations.append((parent, self.clock() - t0))

        return splu

    def _wrap_problem_factory(self, fn):
        @functools.wraps(fn)
        def factory(*args, **kwargs):
            spec = fn(*args, **kwargs)
            wrapped = {
                field: self.wrap(f"problems.{field}", getattr(spec, field))
                for field in ("f", "exact")
                if getattr(spec, field) is not None
            }
            return dataclasses.replace(spec, **wrapped)

        return factory

    # -- metrics ----------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of PER_LAYER except trace.overhead_s, which
        needs the untraced repetitions and is added by run.py."""
        spans = self.spans
        children: list[list[int]] = [[] for _ in spans]
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            by_name[s.name].append(i)
            if s.parent >= 0:
                children[s.parent].append(i)

        def dur(i: int) -> float:
            return spans[i].end - spans[i].start

        def self_of(i: int) -> float:
            kids = ((spans[c].start, spans[c].end) for c in children[i])
            return self_time(spans[i].start, spans[i].end, kids)

        out: dict[str, float] = {}
        for name in LAYERS:
            idx = by_name.get(name, [])
            out[f"{name}.calls"] = len(idx)
            out[f"{name}.s"] = sum(dur(i) for i in idx)
            out[f"{name}.self_s"] = sum(self_of(i) for i in idx)

        def ms(name: str, q: float) -> float:
            return 1e3 * percentile((dur(i) for i in by_name.get(name, [])), q)[0]

        calls = out["ldg.solve_system.calls"]
        in_solve = [t for p, t in self.factorizations if p >= 0 and spans[p].name == "ldg.solve_system"]
        out["ldg.solve_system.p99_ms"] = ms("ldg.solve_system", 99)
        out["ldg.solve_system.factorizations"] = len(in_solve)
        out["ldg.solve_system.factor_s"] = sum(in_solve)
        out["ldg.solve_system.factor_reuse"] = 1.0 - len(in_solve) / calls if calls else 0.0
        out["ldg.solve_system.max_rel_residual"] = max(self.residuals, default=0.0)
        out["ldg.solve.rss_growth_mb"] = max(self.rss_growth_mb, default=0.0)
        out["ldg.step.p50_ms"] = ms("ldg.step", 50)
        out["ldg.step.p99_ms"] = ms("ldg.step", 99)
        out["ldg.step.late_early_ratio"] = self._late_early_ratio(by_name)
        out["fractional.substantial_history.p99_ms"] = ms("fractional.substantial_history", 99)
        ml_calls, ml_hits = self._mittag_leffler_counts()
        out["fractional.mittag_leffler.calls"] = ml_calls
        out["fractional.mittag_leffler.hit_ratio"] = ml_hits / ml_calls if ml_calls else 0.0
        out["trace.missing"] = len(self.missing)
        return out

    def _late_early_ratio(self, by_name) -> float:
        """Median over solve() calls of: median step time over the last 10% of
        that call's steps / median over its first 10%."""
        steps_of: dict[int, list[float]] = defaultdict(list)
        for i in by_name.get("ldg.step", []):
            s = self.spans[i]
            if s.parent >= 0 and self.spans[s.parent].name == "ldg.solve":
                steps_of[s.parent].append(s.end - s.start)
        ratios = []
        for durations in steps_of.values():
            k = max(1, len(durations) // 10)
            early = statistics.median(durations[:k])
            if early > 0.0:
                ratios.append(statistics.median(durations[-k:]) / early)
        return statistics.median(ratios) if ratios else 0.0

    def _mittag_leffler_counts(self) -> tuple[int, int]:
        if self._ml_base is None:
            return 0, 0
        from fracldg.fractional import mittag_leffler

        now = mittag_leffler.cache_info()
        hits = now.hits - self._ml_base.hits
        return hits + now.misses - self._ml_base.misses, hits
