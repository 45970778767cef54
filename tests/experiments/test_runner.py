"""Tests for the experiment runner: grid expansion, variant labelling,
seeded workloads and parallel determinism on multi-axis grids."""

import pytest

from repro.dimemas.platform import Platform
from repro.errors import AnalysisError, ConfigurationError
from repro.experiments import Experiment, ExperimentSpec, run_experiment
from repro.experiments.plan import expand_grid, variant_plans


def _stable_rows(result):
    """Tidy rows minus the wall-clock timing column (never reproducible)."""
    return [{key: value for key, value in row.items() if key != "task_seconds"}
            for row in result.to_rows()]


class TestVariantPlans:
    def test_single_mechanism_uses_pattern_labels(self):
        plans = variant_plans(ExperimentSpec(apps=("a",)))
        assert [plan.label for plan in plans] == ["real", "ideal"]

    def test_single_pattern_uses_mechanism_labels(self):
        spec = ExperimentSpec(apps=("a",), patterns=("ideal",),
                              mechanisms=("early-send", "late-receive", "full"))
        assert [plan.label for plan in variant_plans(spec)] == \
            ["early-send", "late-receive", "full"]

    def test_both_axes_use_combined_labels(self):
        spec = ExperimentSpec(apps=("a",), patterns=("real", "ideal"),
                              mechanisms=("early-send", "full"))
        assert [plan.label for plan in variant_plans(spec)] == [
            "real+early-send", "real+full",
            "ideal+early-send", "ideal+full"]


class TestGridExpansion:
    def test_default_axes_use_the_base_platform(self):
        base = Platform(bandwidth_mbps=123.0, latency=7e-6,
                        processors_per_node=2, eager_threshold=1024,
                        relative_cpu_speed=2.0, topology="tree:radix=2")
        cells, platforms, per_cell = expand_grid(ExperimentSpec(apps=("a",)), base)
        assert len(cells) == 1 and len(platforms) == 1 and per_cell == 1
        assert platforms[0] == base
        dims = cells[0]
        assert dims.topology == "tree:radix=2"
        assert dims.processors_per_node == 2
        assert dims.eager_threshold == 1024
        assert dims.cpu_speed == 2.0

    def test_bandwidth_is_the_innermost_axis(self):
        spec = ExperimentSpec(apps=("a",), bandwidths=(1.0, 2.0),
                              topologies=("flat", "torus"))
        cells, platforms, per_cell = expand_grid(spec, Platform())
        assert per_cell == 2
        assert [p.bandwidth_mbps for p in platforms] == [1.0, 2.0, 1.0, 2.0]
        assert [p.topology.kind for p in platforms] == \
            ["flat", "flat", "torus", "torus"]
        assert [c.topology for c in cells] == ["flat", "torus"]

    def test_full_cross_product_size(self):
        spec = ExperimentSpec(apps=("a",), bandwidths=(1.0, 2.0),
                              latencies=(1e-6, 5e-6),
                              node_mappings=(1, 2),
                              eager_thresholds=(0, 65536),
                              cpu_speeds=(1.0, 4.0))
        cells, platforms, per_cell = expand_grid(spec, Platform())
        assert len(cells) == 16
        assert len(platforms) == 32
        assert per_cell == 2


class TestRunner:
    def test_unknown_app_is_reported(self):
        with pytest.raises(ConfigurationError, match="unknown application"):
            run_experiment(ExperimentSpec(apps=("no-such-app",)))

    def test_unsupported_app_option_is_reported(self):
        spec = ExperimentSpec(apps=("nas-bt",), app_options={"seed": 1})
        with pytest.raises(ConfigurationError, match="does not accept"):
            run_experiment(spec)

    def test_seeds_expand_generated_workloads(self):
        result = (Experiment.for_app("random-exchange", num_ranks=4,
                                     iterations=2)
                  .seeds(1, 2)
                  .patterns("ideal")
                  .bandwidths(100.0)
                  .chunk_count(4)
                  .run())
        assert result.apps() == ["random-exchange@seed=1",
                                 "random-exchange@seed=2"]
        times = [cell.sweep.points[0].time("original")
                 for cell in result.cells]
        assert times[0] != times[1]  # different seeds, different workloads

    def test_seeded_runs_are_reproducible(self):
        spec = (Experiment.for_app("random-exchange", num_ranks=4, iterations=2)
                .seeds(7).patterns("ideal").bandwidths(100.0).chunk_count(4)
                .build())
        first = run_experiment(spec)
        second = run_experiment(spec)
        assert _stable_rows(first) == _stable_rows(second)

    def test_injected_duplicate_app_names_rejected(self, small_bt):
        spec = ExperimentSpec(apps=(small_bt.name,))
        with pytest.raises(AnalysisError, match="duplicate application"):
            run_experiment(spec, apps=[small_bt, small_bt])

    def test_multi_axis_grid_is_parallel_deterministic(self):
        spec = (Experiment.for_app("sancho-loop", num_ranks=4, iterations=2)
                .bandwidths(50.0, 500.0)
                .topologies("flat", "tree:radix=2")
                .eager_thresholds(0, 65536)
                .chunk_count(4)
                .build())
        serial = run_experiment(spec)
        parallel = run_experiment(spec.with_jobs(2))
        assert _stable_rows(serial) == _stable_rows(parallel)
        assert len(serial.cells) == 4

    def test_mechanism_axis_end_to_end(self):
        result = (Experiment.for_app("sancho-loop", num_ranks=4, iterations=2)
                  .patterns("ideal")
                  .mechanisms("early-send", "late-receive", "full")
                  .bandwidths(250.0)
                  .chunk_count(4)
                  .run())
        point = result.sweep().points[0]
        full = point.speedup("full")
        assert full >= max(point.speedup("early-send"),
                           point.speedup("late-receive")) - 0.05

    def test_metadata_carries_execution_facts(self):
        result = (Experiment.for_app("sancho-loop", num_ranks=4, iterations=1)
                  .bandwidths(100.0).chunk_count(4).jobs(1).run())
        sweep = result.sweep()
        assert sweep.metadata["jobs"] == 1
        assert sweep.metadata["replay_wall_seconds"] > 0.0
        assert sweep.metadata["num_ranks"] == 4
        assert sweep.metadata["topology"] == "flat"
        assert result.metadata["grid_points"] == 1
