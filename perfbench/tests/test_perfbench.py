"""Tests of the benchmark's own logic: span self time, percentiles, frozen
checks, the traced run and its bookkeeping.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import tracing
from tracing import PER_LAYER, Tracer, percentile, self_time

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # solve [0, 10] holds step [1, 5] (holding solve_system [2, 3]) and step [6, 7].
    tracer = Tracer(clock=_fake_clock([0, 1, 2, 3, 5, 6, 7, 10]))
    solve = tracer.open("ldg.solve")
    step = tracer.open("ldg.step")
    inner = tracer.open("ldg.solve_system")
    tracer.close(inner)
    tracer.close(step)
    step = tracer.open("ldg.step")
    tracer.close(step)
    tracer.close(solve)
    m = tracer.layer_metrics()
    assert m["ldg.solve.s"] == 10 and m["ldg.solve.self_s"] == 5
    assert m["ldg.step.calls"] == 2 and m["ldg.step.s"] == 5 and m["ldg.step.self_s"] == 4
    assert m["ldg.solve_system.self_s"] == 1
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == 3.0
    assert self_time(0.0, 2.0, []) == 2.0


def test_percentile_reports_sample_count():
    assert percentile(range(1, 101), 99) == pytest.approx((99.01, 100))
    assert percentile([3.0, 1.0, 2.0], 50) == (2.0, 3)
    assert percentile([5.0], 99) == (5.0, 1)
    assert percentile([], 99) == (0.0, 0)


def test_wrong_frozen_error_fails_every_check(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "fixture", (str(FIXTURES / "wrong-expect.yaml"),))
    record = run.measure("fixture", seed=0, seconds=1.0, trace=False)
    assert record["attempted"] >= 1
    assert record["failed"] == record["attempted"]  # check_fail_frac = 1
    assert record["metrics"]["check_pass_frac"] == 0.0
    assert record["correct"] is False


def test_traced_smoke_run_on_tiny_config(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "fixture", (str(FIXTURES / "tiny.yaml"),))
    record = run.measure("fixture", seed=0, seconds=1.0, trace=True)
    m = record["metrics"]
    assert record["correct"] is True
    assert set(m) == {name for name, _, _ in run.END_TO_END + PER_LAYER}
    assert m["trace.missing"] == 0
    assert m["ldg.solve.calls"] == 2
    assert m["ldg.step.calls"] == m["ldg.solve_system.calls"] == 20
    assert m["ldg.solve_system.factorizations"] == 20
    assert 0.0 < m["ldg.solve_system.max_rel_residual"] <= run.RESIDUAL_LIMIT
    assert m["problems.f.calls"] == 20 and m["analysis.error_E.calls"] == 2
    assert m["analysis.condition_number.calls"] == 0
    assert m["ldg.step.self_s"] < m["ldg.step.s"]


def test_missing_wrapper_is_reported_not_raised(monkeypatch):
    import fracldg.ldg

    original = fracldg.ldg.step
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("ldg.gone", "fracldg.ldg", "removed_function"),
        ("ldg.gone", "fracldg.no_such_module", "f"),
    ))
    tracer = Tracer()
    tracer.install()
    try:
        assert fracldg.ldg.step is not original
        assert tracer.missing == ["fracldg.ldg.removed_function", "fracldg.no_such_module.f"]
        assert tracer.layer_metrics()["trace.missing"] == 2
    finally:
        tracer.uninstall()
    assert fracldg.ldg.step is original


def test_benchmark_json_lists_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
