#!/usr/bin/env python
"""Replay backends: the exact event engine vs the adaptive fast path.

The replay engine ships two backends selected by the ``replay_backend``
platform knob:

* ``event`` (the default): every CPU burst, MPI-overhead charge and
  transfer hop is its own discrete event -- the exact oracle, and
* ``adaptive``: each cell is classified first.  Contention-free cells are
  fast-forwarded in closed form (bit-identical to ``event``), cells with
  finite links are fast-forwarded through a resource micro-model within
  ``max_relative_error``, and cells the classifier cannot fast-forward
  (decomposed collectives, CPU contention) fall back to the DES over a
  fabric that grants uncontended transfers inline (again bit-identical).

Every adaptive cell reports how it ran and the error bound it claims.  This
example replays the same sweep through both backends, checks every adaptive
cell against the event result within its reported bound, and prints how
many cells ran in each mode.

Run with::

    python examples/replay_backends.py
    python examples/replay_backends.py --smoke   # tiny CI-sized workload
"""

import argparse
import time
from collections import Counter

from repro.apps import create_application
from repro.core import (
    ComputationPattern,
    FixedCountChunking,
    OverlapStudyEnvironment,
)
from repro.core.analysis import geometric_bandwidths
from repro.dimemas import Platform
from repro.dimemas.replay import ReplayEngine
from repro.experiments import Experiment, run_experiment


def replay_grid(traces, platforms, backend):
    """Replay every (trace, platform) cell.

    Returns the wall seconds and one ``(cell label, simulated time,
    adaptive summary)`` triple per cell (the summary is ``None`` on the
    event backend).
    """
    start = time.perf_counter()
    cells = []
    for trace in traces:
        for platform in platforms:
            engine = ReplayEngine(trace, platform.with_replay_backend(backend),
                                  collect_timeline=False)
            total_time = engine.run()[0]
            label = (f"{trace.metadata.get('name', 'trace')} on "
                     f"{platform.topology.to_string()}/"
                     f"{platform.collective_model.to_string()} at "
                     f"{platform.bandwidth_mbps:g} MB/s")
            cells.append((label, total_time, engine.adaptive_summary))
    return time.perf_counter() - start, cells


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload for CI smoke runs")
    args = parser.parse_args(argv)
    ranks, iterations, samples = (4, 2, 3) if args.smoke else (16, 4, 6)

    # The paper-style workload: an application plus its ideally overlapped
    # variant, swept across a log-spaced bandwidth grid on an unlimited
    # flat network, a tree with one link per edge, and with decomposed
    # collectives -- one grid per adaptive mode.
    environment = OverlapStudyEnvironment(chunking=FixedCountChunking(count=8))
    app = create_application("sweep3d", num_ranks=ranks, iterations=iterations)
    original = environment.trace(app)
    ideal = environment.overlap(original, pattern=ComputationPattern.IDEAL)
    traces = [original, ideal]
    bandwidths = geometric_bandwidths(10.0, 10000.0, samples)
    platforms = [
        Platform(bandwidth_mbps=bandwidth, **options)
        for options in ({"input_links": 0, "output_links": 0},
                        {"topology": "tree:radix=2,links=1"},
                        {"collective_model": "decomposed"})
        for bandwidth in bandwidths]

    event_seconds, event_cells = replay_grid(traces, platforms, "event")
    adaptive_seconds, adaptive_cells = replay_grid(traces, platforms,
                                                   "adaptive")

    modes = Counter()
    for (label, event_time, _), (_, adaptive_time, summary) in zip(
            event_cells, adaptive_cells):
        modes[summary["mode"]] += 1
        error = abs(adaptive_time - event_time)
        assert error <= summary["error_bound"] * event_time, (
            f"{label}: adaptive {adaptive_time!r} vs event {event_time!r} "
            f"exceeds the claimed bound {summary['error_bound']}")
    cells = len(event_cells)
    print(f"sweep3d, {ranks} ranks, {cells} sweep cells, every adaptive "
          f"cell within its reported error bound")
    for mode, count in sorted(modes.items()):
        print(f"  {mode:>13}: {count} cells")
    print(f"  event backend:    {event_seconds:7.3f} s")
    print(f"  adaptive backend: {adaptive_seconds:7.3f} s "
          f"({event_seconds / adaptive_seconds:.2f}x)")

    # The same knob through the experiment API: one builder call (or
    # ``repro-overlap run --replay-backend adaptive`` on the CLI).
    spec = (Experiment.for_app("sweep3d", num_ranks=ranks,
                               iterations=iterations)
            .patterns("ideal")
            .chunk_count(8)
            .bandwidths(bandwidths)
            .replay_backend("adaptive")
            .build())
    result = run_experiment(spec)
    print()
    print(f"experiment API with .replay_backend('adaptive'): "
          f"{len(result.to_rows())} rows")


if __name__ == "__main__":
    main()
