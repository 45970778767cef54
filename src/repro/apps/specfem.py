"""SPECFEM3D model: spectral-element seismic wave propagation.

SPECFEM advances the seismic wave field explicitly; every time step computes
the element contributions and exchanges large boundary arrays (the
acceleration contributions of the shared spectral-element faces) with the
neighbouring mesh slices.  Messages are large and there are essentially no
collectives, which is why SPECFEM shows one of the highest overlapping
potentials in the paper (about 65 %).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.apps.base import ApplicationModel
from repro.mpi.topology import CartesianTopology
from repro.tracing.context import RankContext


class Specfem(ApplicationModel):
    """Synthetic SPECFEM3D (large boundary exchange, no collectives)."""

    name = "specfem"

    def __init__(self, num_ranks: int = 16, iterations: int = 4,
                 boundary_bytes: int = 400_000,
                 instructions_per_iteration: float = 4.5e6,
                 seismogram_interval: int = 0,
                 mips: float = 1000.0, imbalance: float = 0.05):
        super().__init__(num_ranks, iterations, mips=mips, imbalance=imbalance)
        if boundary_bytes < 1:
            raise ValueError("boundary_bytes must be positive")
        if instructions_per_iteration <= 0:
            raise ValueError("instructions_per_iteration must be positive")
        if seismogram_interval < 0:
            raise ValueError("seismogram_interval must be non-negative")
        self.boundary_bytes = int(boundary_bytes)
        self.instructions_per_iteration = float(instructions_per_iteration)
        self.seismogram_interval = int(seismogram_interval)
        self.topology = CartesianTopology.square(num_ranks, ndims=2)

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info.update({
            "boundary_bytes": self.boundary_bytes,
            "instructions_per_iteration": self.instructions_per_iteration,
            "seismogram_interval": self.seismogram_interval,
            "grid": self.topology.dims,
        })
        return info

    def run(self, ctx: RankContext) -> None:
        rank = ctx.rank
        neighbors = self.topology.neighbors(rank)
        outgoing = {
            key: ctx.buffer(f"accel_out_d{key[0]}_{'p' if key[1] > 0 else 'm'}",
                            self.boundary_bytes)
            for key in neighbors
        }
        incoming = {
            key: ctx.buffer(f"accel_in_d{key[0]}_{'p' if key[1] > 0 else 'm'}",
                            self.boundary_bytes)
            for key in neighbors
        }
        keys = list(neighbors)
        for iteration in range(self.iterations):
            instructions = self.imbalanced(
                self.instructions_per_iteration, rank, iteration)
            # Element-level update: the assembled boundary contributions are
            # only complete once the last elements touching the interface
            # have been processed (tail of the burst).
            self.stencil_compute(ctx, instructions,
                                 consume=[incoming[k] for k in keys],
                                 produce=[outgoing[k] for k in keys],
                                 head_fraction=0.03, tail_fraction=0.06)
            self.halo_exchange(
                ctx,
                sends=[(neighbors[k], outgoing[k], 50) for k in keys],
                recvs=[(neighbors[k], incoming[k], 50) for k in keys])
            if self.seismogram_interval and (iteration + 1) % self.seismogram_interval == 0:
                ctx.gather(count=16)
