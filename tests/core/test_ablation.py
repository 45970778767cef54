"""Ablations of the overlap mechanism's design choices, as experiment specs.

Each ablation varies one design choice and reads off the ideal-pattern
speedup: the eager-threshold and CPU-speed ablations are single specs with
an ``eager_thresholds`` / ``cpu_speeds`` platform axis, the chunk-size
ablation runs one spec per chunking policy (the policy shapes the overlap
transform itself), and arbitrary policy objects are injected through an
environment.
"""

import pytest

from repro.apps import SanchoLoop
from repro.core import OverlapStudyEnvironment
from repro.core.chunking import FixedCountChunking, FixedSizeChunking
from repro.dimemas import Platform
from repro.experiments import ExperimentSpec, run_experiment

APP_OPTIONS = {"num_ranks": 4, "iterations": 3, "message_bytes": 120_000,
               "instructions_per_iteration": 1.5e6}
PLATFORM = {"bandwidth_mbps": 200.0}
CHUNKING = {"policy": "fixed-size", "chunk_bytes": 16384, "max_chunks": 64}


def _spec(platform=PLATFORM, chunking=CHUNKING, **axes):
    return ExperimentSpec(apps=("sancho-loop",), app_options=APP_OPTIONS,
                          patterns=("ideal",), platform=platform,
                          chunking=chunking, **axes)


def _speedup(result):
    return result.sweep().points[0].speedup("ideal")


def chunk_size_speedups(chunk_sizes):
    return {size: _speedup(run_experiment(_spec(chunking={
        "policy": "fixed-size", "chunk_bytes": size, "max_chunks": 256})))
        for size in chunk_sizes}


def axis_speedups(axis, values, platform=PLATFORM):
    """Ideal speedup per value of one platform axis (``CellDims`` field)."""
    result = run_experiment(_spec(platform=platform,
                                  **{f"{axis}s": tuple(values)}))
    return {getattr(cell.dims, axis): cell.sweep.points[0].speedup("ideal")
            for cell in result.cells}


class TestChunkSizeAblation:
    def test_returns_speedup_per_size(self):
        results = chunk_size_speedups((8192, 65536))
        assert set(results) == {8192, 65536}
        assert all(speedup > 0.9 for speedup in results.values())

    def test_finer_chunks_do_not_hurt_much(self):
        results = chunk_size_speedups((8192, 262144))
        # A single huge chunk degenerates towards the original execution.
        assert results[8192] >= results[262144] - 0.05

    def test_huge_chunks_approach_original(self):
        results = chunk_size_speedups((1 << 20,))
        assert results[1 << 20] == pytest.approx(1.0, abs=0.1)


class TestChunkingPolicyAblation:
    def test_named_policies(self):
        # Arbitrary policy objects are not spec-serialisable; inject them
        # through a caller-configured environment instead.
        app = SanchoLoop(**APP_OPTIONS)
        platform = Platform(**PLATFORM)
        spec = ExperimentSpec(apps=(app.name,), patterns=("ideal",))
        results = {}
        for name, policy in {"count-8": FixedCountChunking(count=8),
                             "size-16k": FixedSizeChunking(chunk_bytes=16384)
                             }.items():
            environment = OverlapStudyEnvironment(platform=platform,
                                                  chunking=policy)
            results[name] = _speedup(run_experiment(
                spec, environment=environment, apps=[app]))
        assert set(results) == {"count-8", "size-16k"}
        assert all(speedup > 1.0 for speedup in results.values())


class TestEagerThresholdAblation:
    def test_generous_threshold_helps(self):
        results = axis_speedups("eager_threshold", (0, 1 << 20))
        # Forcing every chunk through a rendezvous removes most of the early-
        # send benefit; a generous eager threshold preserves it.
        assert results[1 << 20] >= results[0] - 1e-9
        assert results[1 << 20] > 1.1

    def test_platform_topology_is_preserved(self):
        """The varied platforms must keep every non-threshold field.

        Regression: the ablation used to rebuild the Platform field by
        field, silently resetting tree/torus platforms to the flat bus.
        """
        flat = axis_speedups("eager_threshold", (16384,),
                             platform={"bandwidth_mbps": 50.0})
        tree = axis_speedups("eager_threshold", (16384,),
                             platform={"bandwidth_mbps": 50.0,
                                       "topology": "tree:radix=2,links=1"})
        assert tree[16384] != flat[16384]


class TestCpuSpeedAblation:
    def test_cpu_speed_moves_the_app_along_the_bandwidth_curve(self):
        """Scaling the CPU mirrors scaling the network in the other direction.

        On a compute-bound configuration (slow CPUs) there is little to hide;
        the benefit peaks where communication and computation are balanced and
        shrinks again once the faster CPUs make the run network-bound.
        """
        results = axis_speedups("cpu_speed", (0.25, 1.0, 8.0))
        assert results[1.0] > results[0.25]
        assert results[1.0] > results[8.0]
        assert all(speedup > 0.9 for speedup in results.values())
