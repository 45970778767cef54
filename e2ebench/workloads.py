"""The benchmark's workloads: seeded experiment specs plus how to run them.

Every workload replays the three fixed paper applications (``nas-bt``,
``nas-cg``, ``sweep3d`` at 16 ranks) and one generated ``random-exchange``
instance chosen by the seed, each as the original, real and ideal variants.
The seed also jitters the bandwidth points by up to 2%, so two seeds give
two different (but equally sized) grids of nearly equal cost.  Every spec sets
``replay_backend="adaptive"`` explicitly: a later change of the default
backend must not silently change what is measured.

The seeded ``random-exchange`` instance needs a ``seed`` option the paper
applications do not accept, so each workload is two specs over the same
grid; a repetition runs both and counts the cells of both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.experiments import ExperimentSpec

PAPER_APPS = ("nas-bt", "nas-cg", "sweep3d")
RANKS = 16
#: Largest relative change the seed makes to a bandwidth point.
JITTER = 0.02
PATTERNS = ("real", "ideal")

#: Base platform of every workload; grids override single fields.
ADAPTIVE = {"replay_backend": "adaptive"}
#: Flat network without any bus or link limit: every window is provably
#: contention-free, so cells batch into cohorts.
UNLIMITED_FLAT = {**ADAPTIVE, "num_buses": 0, "input_links": 0,
                  "output_links": 0}


def geometric(low: float, high: float, count: int) -> Tuple[float, ...]:
    ratio = (high / low) ** (1.0 / (count - 1))
    return tuple(low * ratio ** index for index in range(count))


@dataclass(frozen=True)
class Workload:
    """One named workload: its specs and how a repetition runs them.

    ``warm`` workloads fill one result store during set-up and re-run
    against it, so every cell is a cache hit; the others start every
    repetition from an empty store.
    """

    name: str
    why: str
    specs: Tuple[ExperimentSpec, ...]
    warm: bool = False

    @property
    def jobs(self) -> int:
        return self.specs[0].jobs


#: name -> (why, grid axes, base platform, jobs, warm).  The ``why`` lines
#: are repeated in BENCHMARK.json and README.md.
_DEFINITIONS: Dict[str, tuple] = {
    "cohort_flat": (
        "cold store, unlimited flat network: every cell is a cohort lane, "
        "so it shows the grid walk and the fixed per-run stages",
        {"topologies": ("flat",), "eager_thresholds": (16384, 262144),
         "bandwidths": geometric(8.0, 1000.0, 9)},
        UNLIMITED_FLAT, 1, False),
    "contended_fabric": (
        "cold store, finite-link tree and torus with analytical and "
        "decomposed collectives: per-cell contended replay and DES fallback",
        {"topologies": ("tree:radix=4", "torus:links=1"),
         "eager_thresholds": (0, 65536),
         "collective_models": ("analytical", "decomposed"),
         "bandwidths": (12.0,)},
        ADAPTIVE, 1, False),
    "warm_resweep": (
        "store filled in set-up, every cell a cache hit: planning, keying, "
        "store reads and assembly with nothing replayed",
        {"topologies": ("flat", "tree:radix=4,links=0", "torus:links=0"),
         "bandwidths": geometric(8.0, 1000.0, 4)},
        UNLIMITED_FLAT, 1, True),
    "mixed_parallel": (
        "cold store at jobs=2 on a flat, tree and torus grid: the only "
        "workload that runs the process pool",
        {"topologies": ("flat", "tree:radix=4", "torus:links=1"),
         "bandwidths": geometric(10.0, 400.0, 4)},
        UNLIMITED_FLAT, 2, False),
}

WORKLOADS = tuple(_DEFINITIONS)


def jitter(values: Tuple[float, ...], rng: random.Random) -> Tuple[float, ...]:
    """Each value scaled by up to +-JITTER, rounded to a readable label."""
    return tuple(round(value * rng.uniform(1 - JITTER, 1 + JITTER), 3)
                 for value in values)


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed`` (same seed, same specs)."""
    try:
        why, grid, platform, jobs, warm = _DEFINITIONS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; "
                         f"known: {', '.join(WORKLOADS)}") from None
    rng = random.Random(seed)
    grid = dict(grid, bandwidths=jitter(grid["bandwidths"], rng))
    common = dict(grid, patterns=PATTERNS, mechanisms=("full",),
                  platform=platform, jobs=jobs)
    paper = ExperimentSpec(apps=PAPER_APPS,
                           app_options={"num_ranks": RANKS}, **common)
    exchange = ExperimentSpec(apps=("random-exchange",), seeds=(seed,),
                              app_options={"num_ranks": RANKS}, **common)
    return Workload(name=name, why=why, specs=(paper, exchange), warm=warm)
