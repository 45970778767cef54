"""The trace-driven network replay simulator (Dimemas model).

Dimemas reconstructs the time behaviour of an MPI application on a
configurable parallel platform from per-process trace files.  This package
implements that machine model from scratch on top of :mod:`repro.des`:

* :mod:`repro.dimemas.platform`    -- the platform description (CPU speed,
  latency, bandwidth, buses, per-node links, eager threshold, mapping);
* :mod:`repro.dimemas.topology`    -- pluggable interconnect topologies
  (flat bus, hierarchical tree, 2-D torus) with routing and per-hop
  contention resources;
* :mod:`repro.dimemas.network`     -- point-to-point transfers routed over
  the topology model;
* :mod:`repro.dimemas.protocol`    -- eager/rendezvous selection;
* :mod:`repro.dimemas.collectives` -- pluggable collective cost models
  (the closed-form ``analytical`` backend and the ``decomposed`` backend
  that lowers collectives into point-to-point phases routed over the
  topology model);
* :mod:`repro.dimemas.matching`    -- cross-rank message matching;
* :mod:`repro.dimemas.replay`      -- the replay interpreters: DES rank
  processes, the lane walk of proven cells and the paced mode of
  contended ones;
* :mod:`repro.dimemas.gridreplay`  -- sweep cohorts replayed as one lane
  walk;
* :mod:`repro.dimemas.results`     -- per-rank statistics and aggregates;
* :mod:`repro.dimemas.simulator`   -- the facade (`DimemasSimulator`).
"""

from repro.dimemas.collectives import (
    COLLECTIVE_MODELS,
    AnalyticalModel,
    CollectiveModel,
    CollectiveSpec,
    DecomposedModel,
)
from repro.dimemas.platform import Platform
from repro.dimemas.results import RankStats, SimulationResult
from repro.dimemas.simulator import DimemasSimulator
from repro.dimemas.topology import (
    TOPOLOGIES,
    FlatBus,
    HierarchicalTree,
    NetworkModel,
    TopologySpec,
    Torus2D,
)

__all__ = [
    "AnalyticalModel",
    "COLLECTIVE_MODELS",
    "CollectiveModel",
    "CollectiveSpec",
    "DecomposedModel",
    "DimemasSimulator",
    "FlatBus",
    "HierarchicalTree",
    "NetworkModel",
    "Platform",
    "RankStats",
    "SimulationResult",
    "TOPOLOGIES",
    "TopologySpec",
    "Torus2D",
]
