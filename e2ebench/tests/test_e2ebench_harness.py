"""Tests of the end-to-end benchmark harness (not of the simulator).

Run with ``PYTHONPATH=src python -m pytest e2ebench/tests -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from e2ebench import checks, spans, workloads  # noqa: E402


# -- spec generation ------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_spec_generation_is_deterministic_per_seed(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)
    assert workloads.build(name, 7).specs != workloads.build(name, 8).specs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_spec_pins_the_adaptive_backend_and_the_seeded_exchange(name):
    paper, exchange = workloads.build(name, 3).specs
    for spec in (paper, exchange):
        assert dict(spec.platform)["replay_backend"] == "adaptive"
        assert spec.patterns == workloads.PATTERNS
    assert paper.apps == workloads.PAPER_APPS
    assert exchange.apps == ("random-exchange",) and exchange.seeds == (3,)
    assert paper.bandwidths == exchange.bandwidths


def test_jitter_stays_within_its_bound():
    base = workloads.geometric(8.0, 1000.0, 9)
    for seed in range(20):
        jittered = workloads.build("cohort_flat", seed).specs[0].bandwidths
        for value, reference in zip(jittered, base):
            assert abs(value / reference - 1.0) <= workloads.JITTER + 1e-3


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError, match="unknown workload"):
        workloads.build("nope", 1)


# -- self-time arithmetic ----------------------------------------------------------

def test_self_times_subtract_direct_children_only():
    tree = [
        spans.Span("runner", 0.0, 10.0, None),      # 0
        spans.Span("plan.expand", 0.0, 2.0, 0),     # 1
        spans.Span("tracing.trace", 0.5, 1.5, 1),   # 2
        spans.Span("executor", 3.0, 9.0, 0),        # 3
        spans.Span("gridreplay.replay", 3.0, 7.0, 3),  # 4
        spans.Span("simulator.fallback", 4.0, 5.0, 4),  # 5
        spans.Span("gridreplay.replay", 7.0, 8.0, 3),  # 6
    ]
    own = spans.self_times(tree)
    assert own["runner"] == pytest.approx(10.0 - 2.0 - 6.0)
    assert own["plan.expand"] == pytest.approx(1.0)
    assert own["tracing.trace"] == pytest.approx(1.0)
    assert own["executor"] == pytest.approx(6.0 - 4.0 - 1.0)
    assert own["gridreplay.replay"] == pytest.approx(3.0 + 1.0)
    assert own["simulator.fallback"] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_recorder_nests_spans_and_restores_the_originals():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original_outer, original_inner = Layer.outer, Layer.inner
    recorder = spans.SpanRecorder()
    recorder.patch(Layer, "outer", "outer")
    recorder.patch(Layer, "inner", "inner")
    try:
        assert Layer().outer() == 2
    finally:
        recorder.uninstall()
    assert Layer.outer is original_outer and Layer.inner is original_inner
    assert [(s.name, s.parent) for s in recorder.spans] == [
        ("outer", None), ("inner", 0)]


# -- oracle check -------------------------------------------------------------------

def _row(bandwidth, time, variant="ideal"):
    return {"app": "nas-cg", "variant": variant, "topology": "flat",
            "collective_model": "analytical", "processors_per_node": 1,
            "latency": 5e-6, "eager_threshold": 65536, "cpu_speed": 1.0,
            "bandwidth_mbps": bandwidth, "time": time, "task_seconds": 0.1}


def test_oracle_check_flags_cells_over_their_claimed_bound():
    rows = [_row(10.0, 1.05), _row(20.0, 1.005), _row(40.0, 1.0 + 1e-12)]
    oracle = [checks.OracleCell(checks.row_key(_row(10.0, 0)), 1.0, 0.01),
              checks.OracleCell(checks.row_key(_row(20.0, 0)), 1.0, 0.01),
              checks.OracleCell(checks.row_key(_row(40.0, 0)), 1.0, 0.0)]
    report = checks.check_against_oracle(rows, oracle)
    assert report.attempted == 3 and report.failed == 2
    assert report.max_rel_error == pytest.approx(0.05)
    assert "10.0MBps" in report.over_bound[0]
    assert "app=nas-cg, variant=ideal" in report.over_bound[0]
    assert "40.0MBps" in report.over_bound[1]


def test_oracle_check_counts_unreplayable_and_missing_cells_as_failed():
    oracle = [checks.OracleCell(checks.row_key(_row(10.0, 0)), 1.0, 0.01)]
    report = checks.check_against_oracle([], oracle, errors=["raised"])
    assert report.attempted == 2 and report.failed == 2
    assert "no result for" in report.errors[1]


def test_compare_rows_ignores_task_seconds_and_names_the_cell():
    expected = [_row(10.0, 1.0), _row(20.0, 2.0)]
    same = [dict(_row(10.0, 1.0), task_seconds=9.0), _row(20.0, 2.0)]
    assert checks.compare_rows(expected, same, "run") == []
    diverged = [_row(10.0, 1.0), _row(20.0, 2.5)]
    problems = checks.compare_rows(expected, diverged, "run")
    assert len(problems) == 1 and "time" in problems[0]
    assert "variant=ideal" in problems[0] and "20.0MBps" in problems[0]
    assert "cell missing" in checks.compare_rows(expected, same[:1], "run")[0]


def test_oracle_pass_agrees_with_a_real_run_and_flags_an_injected_divergence(
        tmp_path):
    from repro.experiments import ExperimentSpec, runner

    spec = ExperimentSpec(
        apps=("nas-cg",), app_options={"num_ranks": 4, "iterations": 1},
        topologies=("flat", "tree:radix=2"), bandwidths=(50.0, 200.0),
        platform=workloads.ADAPTIVE)
    recorder = spans.instrument()
    try:
        result = runner.run_experiment(spec, cache_dir=tmp_path)
    finally:
        recorder.uninstall()
    rows = result.to_rows()
    cells, errors = checks.oracle_cells(spec, recorder.claims)
    assert errors == [] and len(cells) == len(rows) == 12
    clean = checks.check_against_oracle(rows, cells)
    assert clean.failed == 0 and clean.max_rel_error <= 0.01

    assert checks.oracle_cells(spec, recorder.claims, jobs=2) == (cells, [])

    rows[5] = dict(rows[5], time=rows[5]["time"] * 1.2)
    report = checks.check_against_oracle(rows, cells)
    assert report.failed == 1
    assert report.over_bound[0].startswith(checks.describe(checks.row_key(rows[5])))
