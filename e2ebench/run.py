#!/usr/bin/env python3
"""End-to-end benchmark: ``run_experiment`` throughput and oracle accuracy.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload cohort_flat --seed 1 --seconds 18 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 18 --trace 0

One invocation measures one workload (see ``workloads.py``):

1. **set-up** (``setup_s``): the median time a fresh interpreter takes
   to import the experiment API (over :data:`IMPORT_REPEATS` tries) plus
   the median spec generation -- which, for ``warm_resweep``, also fills
   the result store -- over :data:`SETUP_REPEATS` tries.
2. **check pass** (untimed): one cold, jobs=1 run with the span recorder
   installed.  Its rows are the reference every timed repetition must
   match, it records the error bound each cell claims, and it counts how
   the cells were replayed (cohort lane, contended, DES fallback) for the
   path guards.
3. **timed repetitions** for ``--seconds``: each runs the workload's specs
   through ``run_experiment`` (cold workloads on an empty store, the warm
   one on the store filled in set-up) and is compared with the reference
   rows.  ``cells_per_s`` is the cells the untraced repetitions delivered
   over their summed wall time.  With ``--trace 1`` every other
   repetition runs with the span recorder installed; the per-layer
   metrics are medians over those, and the tracing overhead is the traced
   minus the untraced mean wall time of one repetition.
4. **oracle pass** (untimed): every cell replayed on the ``event``
   backend, in :data:`ORACLE_JOBS` worker processes, and compared with its
   adaptive result.

The last line of standard output is one JSON object: ``correct``,
``attempted`` (cells delivered by the timed repetitions), ``failed``
(cells that did not match the reference, or checks that failed) and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  The exit code is 1 when any check fails and
2 when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Fresh interpreters timed importing the experiment API, and set-ups
#: (spec generation plus, for the warm workload, the store fill) timed; the
#: medians of both add up to ``setup_s``.
IMPORT_REPEATS = 7
SETUP_REPEATS = 3
#: Repetitions run even when one alone outlasts ``--seconds``.
MIN_REPS = 3
#: Worker processes of the (untimed) oracle pass.
ORACLE_JOBS = 2
WORK_DIR = ".e2ebench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Time a fresh interpreter takes to import the experiment API."""
    probe = ("import sys, time; start = time.perf_counter(); "
             "import repro.experiments; "
             "sys.stdout.write(repr(time.perf_counter() - start))")
    child = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    return float(child.stdout)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Bench:
    """One invocation: set-up, check pass, timed repetitions, oracle pass."""

    def __init__(self, args, work: Path):
        from e2ebench import workloads

        self.args = args
        self.work = work
        self.problems: List[str] = []
        imports = statistics.median(import_seconds()
                                    for _ in range(IMPORT_REPEATS))
        setups = []
        for repeat in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload = workloads.build(args.workload, args.seed)
            store = None
            if workload.warm:
                store = self.work / f"warm{repeat}"
                self.run_specs(workload.specs, store)
            setups.append(time.perf_counter() - start)
            if store is not None and repeat < SETUP_REPEATS - 1:
                shutil.rmtree(store)
        self.workload = workload
        self.warm_store = store
        self.setup_s = imports + statistics.median(setups)

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def run_specs(specs, store: Path):
        from repro.experiments import runner

        return [runner.run_experiment(spec, cache_dir=store) for spec in specs]

    @staticmethod
    def rows_of(results) -> List[Dict[str, Any]]:
        return [row for result in results for row in result.to_rows()]

    # -- stages --------------------------------------------------------------
    def check_pass(self) -> None:
        """Reference rows, claimed bounds and path counts (untimed)."""
        from e2ebench import spans

        specs = [dataclasses.replace(spec, jobs=1)
                 for spec in self.workload.specs]
        recorder = spans.instrument()
        try:
            store = self.work / "check"
            results = self.run_specs(specs, store)
            shutil.rmtree(store)
            cold = dict(recorder.counts)
            self.claims = dict(recorder.claims)
            if self.workload.warm:
                recorder.reset()
                warm = self.run_specs(self.workload.specs, self.warm_store)
                warm_counts = dict(recorder.counts)
        finally:
            recorder.uninstall()
        self.reference = self.rows_of(results)
        cells = len(self.reference)
        per_cell = spans.per_cell_replays(cold)
        self.paths = {
            "cells": cells,
            "cohort_lane_cells": cold.get("cohorts.batched_cells", 0),
            "vectorized_lanes": cold.get("gridreplay.lanes", 0),
            "per_cell_units": cold.get("cohorts.per_cell_units", 0),
            **{f"{mode}_cells": cold.get(f"simulator.{mode}_cells", 0)
               for mode in spans.MODE_SPANS},
        }
        if self.workload.name == "cohort_flat" and (
                per_cell or self.paths["vectorized_lanes"] != cells):
            self.problems.append(
                f"cohort_flat replayed {per_cell} of {cells} cells outside a "
                f"cohort lane ({self.paths['vectorized_lanes']} vectorized "
                f"lanes)")
        if self.workload.warm:
            hits = sum(result.cache_stats()["hits"] for result in warm)
            replayed = (warm_counts.get("gridreplay.lanes", 0)
                        + spans.per_cell_replays(warm_counts))
            self.paths["warm_cache_hits"] = hits
            if replayed or hits != cells:
                self.problems.append(
                    f"warm_resweep replayed {replayed} cells and hit the "
                    f"cache for {hits} of {cells}")

    def timed(self) -> Tuple[List[float], List[float], List[Dict[str, Any]], int]:
        """Repetitions until ``--seconds`` ran out (and at least MIN_REPS).

        Returns the wall times of the untraced and of the traced
        repetitions, the traced repetitions' layer metrics and the number
        of cells delivered.
        """
        from e2ebench import checks, spans

        untraced: List[float] = []
        traced: List[float] = []
        layers: List[Dict[str, Any]] = []
        delivered = 0
        deadline = time.perf_counter() + self.args.seconds
        rep = 0
        while True:
            tracing = bool(self.args.trace) and rep % 2 == 1
            store = (self.warm_store if self.workload.warm
                     else self.work / f"rep{rep}")
            recorder = spans.instrument() if tracing else None
            try:
                start = time.perf_counter()
                results = self.run_specs(self.workload.specs, store)
                wall = time.perf_counter() - start
            finally:
                if recorder is not None:
                    recorder.uninstall()
            rows = self.rows_of(results)
            delivered += len(rows)
            (traced if tracing else untraced).append(wall)
            if recorder is not None:
                layers.append(spans.layer_metrics(recorder))
            self.problems += checks.compare_rows(
                self.reference, rows, f"repetition {rep} vs reference")
            if not self.workload.warm:
                shutil.rmtree(store)
            rep += 1
            enough = len(untraced) >= MIN_REPS and (
                not self.args.trace or len(traced) >= MIN_REPS)
            if enough and time.perf_counter() >= deadline:
                return untraced, traced, layers, delivered

    def oracle(self):
        from e2ebench import checks

        cells, errors = [], []
        for spec in self.workload.specs:
            spec_cells, spec_errors = checks.oracle_cells(
                spec, self.claims, jobs=ORACLE_JOBS)
            cells += spec_cells
            errors += spec_errors
        return checks.check_against_oracle(self.reference, cells, errors)


def tail(walls: List[float]) -> str:
    """Median and the highest percentile with ten samples beyond it."""
    text = (f"median {statistics.median(walls):.4f} s over {len(walls)} "
            f"repetitions")
    slower = len(walls) - 10
    if slower > 0:
        text += f", p{100 * slower // len(walls)} {walls[slower - 1]:.4f} s"
    return text


def per_layer(layers: List[Dict[str, Any]], untraced_s: float,
              traced_s: float) -> Dict[str, Any]:
    """Median of each per-layer metric, plus the tracing overhead."""
    metrics = {}
    for name, (_, unit) in layers[0].items():
        value = statistics.median(layer[name][0] for layer in layers)
        metrics[name] = {"value": value, "unit": unit}
    metrics["recorder.overhead_s"] = {"value": traced_s - untraced_s,
                                      "unit": "s"}
    metrics["recorder.overhead_share"] = {
        "value": (traced_s - untraced_s) / untraced_s, "unit": "share"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repository sources under {ROOT / 'src'}; run the "
              f"benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from e2ebench import workloads

    if args.workload == "all":
        # One child process per workload, so no workload inherits another's
        # warmed in-process caches.
        codes = [subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode
            for name in workloads.WORKLOADS]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # A terminated run still unwinds, so its scratch stores are removed and
    # a running worker pool is shut down.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / WORK_DIR))
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    bench = Bench(args, work)
    bench.check_pass()
    untraced, traced, layers, delivered = bench.timed()
    report = bench.oracle()
    problems = bench.problems + report.errors
    cells = len(bench.reference)
    # Throughput over the whole run, not the median repetition: the shared
    # host switches between speeds for tens of seconds at a time, and the
    # median repetition jumps between them from run to run.
    cells_per_s = cells * len(untraced) / sum(untraced)
    failed_share = report.failed / report.attempted

    workload = bench.workload
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print(f"  {cells} cells per repetition, jobs={workload.jobs}, "
          f"{len(untraced)} untraced repetitions"
          + (f", {len(traced)} traced" if traced else ""))
    print(f"  cells_per_s        {cells_per_s:.4f} 1/s")
    print(f"  repetition wall    {tail(sorted(untraced))}")
    print(f"  setup_s            {bench.setup_s:.4f} s")
    print(f"  peak_rss_mb        {peak_rss_mb():.1f} MB")
    print(f"  max_rel_error      {report.max_rel_error:.6f} (vs the event "
          f"backend)")
    print(f"  failed_cell_share  {failed_share:.6f} ({report.failed} of "
          f"{report.attempted} cells raised or exceed their claimed bound)")
    print("  paths: " + ", ".join(f"{key}={value:g}"
                                 for key, value in bench.paths.items()))
    for line in report.over_bound:
        print(f"  over claimed bound: {line}")
    for line in problems:
        print(f"  CHECK FAILED: {line}")

    if args.trace:
        metrics = per_layer(layers, statistics.mean(untraced),
                            statistics.mean(traced))
        if workload.jobs > 1:
            print("  note: per-layer spans are parent-side only; time spent "
                  "in pool workers appears as executor.self_s")
        for name, metric in metrics.items():
            print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    else:
        metrics = {
            "cells_per_s": {"value": cells_per_s, "unit": "1/s"},
            "setup_s": {"value": bench.setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "max_error_ratio": {"value": 1.0 + report.max_rel_error,
                                "unit": "ratio"},
            "within_bound_share": {"value": 1.0 - failed_share,
                                   "unit": "share"},
        }
    print(json.dumps({"correct": not problems, "attempted": delivered,
                      "failed": len(problems), "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
