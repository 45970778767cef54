"""Sweep cohorts: one lane walk over the trace, many platforms.

A parameter sweep replays one trace across a grid of platform points that
differ only in scalar axes -- bandwidth, latency, CPU speed, MPI overhead.
On cells the window classifier proves contention-free, the adaptive
backend replays with :func:`repro.dimemas.replay.lane_walk`, whose control
flow -- which rank blocks where, which send matches which receive, which
collective completes when -- reads no clock.  A *cohort* of such cells
sharing the structural axes (trace, topology shape, node mapping,
collective model kind, eager-threshold protocol class) is therefore
replayed by ONE walk carrying a vector of clocks, one lane per cell.  A
per-cell replay of a proven cell is the same walk at width 1, so every
lane is bit-identical to the per-cell result of its cell (and to the
event backend).

Cells that do not qualify -- contended windows, a diverging protocol
class, a non-adaptive backend, a trace defect -- peel off into the
per-cell path (:class:`DimemasSimulator`), which runs them in the paced
mode within the ``max_relative_error`` bound or falls back to the DES
exactly as a per-cell sweep would.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.dimemas.platform import Platform
from repro.dimemas.replay import adaptive_summary, lane_walk
from repro.dimemas.results import SimulationResult
from repro.dimemas.simulator import DimemasSimulator
from repro.dimemas.windows import classify, protocol_class
from repro.paraver.timeline import NullRecorder
from repro.tracing.trace import Trace

__all__ = ["cohort_signature", "replay_cohort"]


def cohort_signature(trace: Trace, platform: Platform) -> Optional[Tuple]:
    """The grouping key under which cells may share one lane walk.

    Cells with equal signatures replay the same structure: the clocks are
    the only thing that differs, so they can ride one walk as lanes.
    ``None`` marks a cell that must stay on the per-cell path (a
    non-adaptive backend, CPU contention, or a trace the classifier cannot
    prove).  Deliberately *absent* from the key: bandwidth, latency, CPU
    speed, MPI overhead, intranode parameters (pure scalar axes) and the
    flat bus/link counts (so a cohort may mix proven and contended cells
    -- the contended ones peel off inside :func:`replay_cohort`).
    """
    if platform.replay_backend != "adaptive" or platform.cpu_contention:
        return None
    klass = protocol_class(trace, platform.eager_threshold,
                           platform.processors_per_node)
    if klass < 0:
        return None
    return (platform.topology.to_string(),
            platform.collective_model.to_string(),
            platform.processors_per_node, klass)


def replay_cohort(trace: Trace, platforms: Sequence[Platform],
                  labels: Optional[Sequence[Optional[str]]] = None,
                  ) -> List[SimulationResult]:
    """Replay ``trace`` on every platform of a cohort, sharing one walk.

    Returns one :class:`SimulationResult` per platform, in order.  Cells
    the classifier proves exactly fast-forwardable -- and that share the
    first such cell's structural signature -- are evaluated together by a
    single lane walk; every other cell runs through the standard per-cell
    simulator (identical to what a non-batched sweep would do).
    """
    platforms = list(platforms)
    if labels is None:
        labels = [None] * len(platforms)
    plans = [classify(trace, platform) for platform in platforms]
    lane_cells: List[int] = []
    reference = None
    for index, (platform, plan) in enumerate(zip(platforms, plans)):
        if platform.replay_backend != "adaptive" or not plan.proven_exact:
            continue
        signature = cohort_signature(trace, platform)
        if signature is None:
            continue
        if reference is None:
            reference = signature
        if signature == reference:
            lane_cells.append(index)
    results: List[Optional[SimulationResult]] = [None] * len(platforms)
    walked = (lane_walk(trace, [platforms[index] for index in lane_cells])
              if lane_cells else [])
    width = len(lane_cells)
    for index, (total_time, rank_stats, network) in zip(lane_cells, walked):
        platform = platforms[index]
        label = labels[index]
        metadata = dict(trace.metadata)
        if label is not None:
            metadata["label"] = label
        metadata["adaptive"] = adaptive_summary(plans[index], platform,
                                                grid_width=width)
        results[index] = SimulationResult(
            platform=platform, total_time=total_time, ranks=rank_stats,
            timeline=NullRecorder(
                num_ranks=trace.num_ranks,
                name=label or trace.metadata.get("name", "trace")),
            network=network, metadata=metadata)
    for index, platform in enumerate(platforms):
        if results[index] is None:
            results[index] = DimemasSimulator(
                platform, collect_timeline=False).simulate(
                    trace, label=labels[index])
    return results  # type: ignore[return-value]
