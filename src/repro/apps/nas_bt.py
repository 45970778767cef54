"""NAS BT model: block-tridiagonal ADI solver.

BT performs, per time step, three ADI sweeps (x, y, z).  Each sweep solves
block-tridiagonal systems across the local sub-domain and then exchanges the
faces touching the neighbouring processes along the sweep dimension.  The
face data is finalised while the last plane of the sweep is computed, and
the incoming faces are needed as soon as the next sweep starts -- the real
pattern that leaves almost no room for automatic overlap.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.apps.base import ApplicationModel
from repro.mpi.topology import CartesianTopology
from repro.tracing.context import RankContext


class NasBT(ApplicationModel):
    """Synthetic NAS BT (2-D process grid, three exchange phases per step)."""

    name = "nas-bt"

    def __init__(self, num_ranks: int = 16, iterations: int = 4,
                 face_bytes: int = 120_000,
                 instructions_per_phase: float = 3.5e6,
                 phases_per_iteration: int = 3,
                 norm_interval: int = 1,
                 mips: float = 1000.0, imbalance: float = 0.05):
        super().__init__(num_ranks, iterations, mips=mips, imbalance=imbalance)
        if face_bytes < 1:
            raise ValueError("face_bytes must be positive")
        if instructions_per_phase <= 0:
            raise ValueError("instructions_per_phase must be positive")
        if phases_per_iteration < 1:
            raise ValueError("phases_per_iteration must be >= 1")
        self.face_bytes = int(face_bytes)
        self.instructions_per_phase = float(instructions_per_phase)
        self.phases_per_iteration = int(phases_per_iteration)
        self.norm_interval = int(norm_interval)
        self.topology = CartesianTopology.square(num_ranks, ndims=2)

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info.update({
            "face_bytes": self.face_bytes,
            "instructions_per_phase": self.instructions_per_phase,
            "phases_per_iteration": self.phases_per_iteration,
            "norm_interval": self.norm_interval,
            "grid": self.topology.dims,
        })
        return info

    def run(self, ctx: RankContext) -> None:
        rank = ctx.rank
        neighbors = self.topology.neighbors(rank)
        # One send buffer and one halo buffer per (dimension, direction).
        faces = {
            key: ctx.buffer(f"face_d{key[0]}_{'p' if key[1] > 0 else 'm'}",
                            self.face_bytes)
            for key in neighbors
        }
        halos = {
            key: ctx.buffer(f"halo_d{key[0]}_{'p' if key[1] > 0 else 'm'}",
                            self.face_bytes)
            for key in neighbors
        }
        for iteration in range(self.iterations):
            for phase in range(self.phases_per_iteration):
                dimension = phase % self.topology.ndims
                phase_keys = [key for key in neighbors if key[0] == dimension]
                produce = [faces[key] for key in phase_keys]
                consume = [halos[key] for key in phase_keys]
                instructions = self.imbalanced(
                    self.instructions_per_phase, rank, iteration, phase)
                self.stencil_compute(ctx, instructions,
                                     consume=consume, produce=produce)
                sends = [(neighbors[key], faces[key], 10 + phase)
                         for key in phase_keys]
                recvs = [(neighbors[key], halos[key], 10 + phase)
                         for key in phase_keys]
                self.halo_exchange(ctx, sends, recvs)
            if self.norm_interval and (iteration + 1) % self.norm_interval == 0:
                # Residual norm check: a tiny allreduce every few steps.
                ctx.allreduce(count=5)
