"""Ablation benchmarks for the design choices called out in DESIGN.md §5.

The paper's tool fixes one chunking granularity and one MPI protocol; this
harness quantifies how sensitive the headline result (ideal-pattern speedup
at the reference bandwidth) is to those choices, using NAS-BT as the
representative stencil code.
"""

import pytest

from benchmarks.conftest import REFERENCE_BANDWIDTH_MBPS, print_banner
from repro.core.reporting import format_table
from repro.experiments import ExperimentSpec, run_experiment


def _spec(chunk_bytes=16384, max_chunks=64, **axes):
    """NAS-BT, ideal pattern, full mechanism on the reference platform."""
    return ExperimentSpec(
        apps=("nas-bt",), app_options={"num_ranks": 16, "iterations": 2},
        patterns=("ideal",),
        platform={"name": "reference",
                  "bandwidth_mbps": REFERENCE_BANDWIDTH_MBPS},
        chunking={"policy": "fixed-size", "chunk_bytes": chunk_bytes,
                  "max_chunks": max_chunks},
        **axes)


def _axis_speedups(axis, values):
    """Ideal speedup per value of one platform axis (one spec)."""
    result = run_experiment(_spec(**{f"{axis}s": values}))
    return {getattr(cell.dims, axis): cell.sweep.points[0].speedup("ideal")
            for cell in result.cells}


@pytest.mark.benchmark(group="ablation")
def test_ablation_chunk_size_eager_threshold_cpu_speed(benchmark):
    def run():
        # The chunking policy shapes the overlap transform itself, so each
        # chunk size is its own single-point spec.
        chunk_size = {
            size: run_experiment(_spec(chunk_bytes=size, max_chunks=256))
            .sweep().points[0].speedup("ideal")
            for size in (4096, 16384, 65536, 262144)}
        return {
            "chunk_size": chunk_size,
            "eager_threshold": _axis_speedups(
                "eager_threshold", (0, 16384, 65536, 1 << 20)),
            "cpu_speed": _axis_speedups("cpu_speed", (0.5, 1.0, 2.0, 4.0)),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_banner("Ablation: sensitivity of the NAS-BT ideal-pattern speedup")
    for study_name, table in results.items():
        rows = [[key, f"{value:.3f}x"] for key, value in table.items()]
        print()
        print(format_table([study_name, "speedup"], rows))

    chunk = results["chunk_size"]
    # Chunks around the eager threshold work well; one huge chunk degenerates
    # towards the original execution.
    assert chunk[16384] > chunk[262144] - 0.02
    assert chunk[16384] > 1.15

    eager = results["eager_threshold"]
    # An all-rendezvous MPI removes most of the early-send benefit.
    assert eager[1 << 20] >= eager[0]
    assert eager[65536] > 1.15

    cpu = results["cpu_speed"]
    # Faster CPUs make the same network relatively slower: the overlap benefit
    # grows from the compute-bound end, peaks where communication and
    # computation balance, and every configuration stays close to or above
    # the original execution.
    speeds = sorted(cpu)
    values = [cpu[speed] for speed in speeds]
    assert values[0] == min(values)
    assert max(values) > values[0] + 0.1
    assert all(value > 0.95 for value in values)
