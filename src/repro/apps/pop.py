"""POP model: the Parallel Ocean Program.

POP alternates a compute-heavy baroclinic phase (3-D ocean dynamics with a
2-D halo exchange) with a barotropic solver that performs several small halo
exchanges and latency-bound allreduces per time step.  The frequent global
reductions of the barotropic solver are what limits the overlapping
potential to about 10 % in the paper.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.apps.base import ApplicationModel
from repro.mpi.topology import CartesianTopology
from repro.tracing.context import RankContext


class Pop(ApplicationModel):
    """Synthetic POP (baroclinic halo exchange plus barotropic solver)."""

    name = "pop"

    def __init__(self, num_ranks: int = 16, iterations: int = 4,
                 halo_bytes: int = 25_000,
                 baroclinic_instructions: float = 2.5e6,
                 barotropic_steps: int = 4,
                 barotropic_halo_bytes: int = 4_000,
                 barotropic_instructions: float = 1.2e5,
                 mips: float = 1000.0, imbalance: float = 0.10):
        super().__init__(num_ranks, iterations, mips=mips, imbalance=imbalance)
        if halo_bytes < 1 or barotropic_halo_bytes < 1:
            raise ValueError("halo sizes must be positive")
        if baroclinic_instructions <= 0 or barotropic_instructions <= 0:
            raise ValueError("instruction counts must be positive")
        if barotropic_steps < 0:
            raise ValueError("barotropic_steps must be non-negative")
        self.halo_bytes = int(halo_bytes)
        self.baroclinic_instructions = float(baroclinic_instructions)
        self.barotropic_steps = int(barotropic_steps)
        self.barotropic_halo_bytes = int(barotropic_halo_bytes)
        self.barotropic_instructions = float(barotropic_instructions)
        self.topology = CartesianTopology.square(num_ranks, ndims=2)

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info.update({
            "halo_bytes": self.halo_bytes,
            "baroclinic_instructions": self.baroclinic_instructions,
            "barotropic_steps": self.barotropic_steps,
            "barotropic_halo_bytes": self.barotropic_halo_bytes,
            "barotropic_instructions": self.barotropic_instructions,
            "grid": self.topology.dims,
        })
        return info

    def run(self, ctx: RankContext) -> None:
        rank = ctx.rank
        neighbors = self.topology.neighbors(rank)
        ghost_out = {
            key: ctx.buffer(f"ghost_out_d{key[0]}_{'p' if key[1] > 0 else 'm'}",
                            self.halo_bytes)
            for key in neighbors
        }
        ghost_in = {
            key: ctx.buffer(f"ghost_in_d{key[0]}_{'p' if key[1] > 0 else 'm'}",
                            self.halo_bytes)
            for key in neighbors
        }
        solver_out = {
            key: ctx.buffer(f"solver_out_d{key[0]}_{'p' if key[1] > 0 else 'm'}",
                            self.barotropic_halo_bytes)
            for key in neighbors
        }
        solver_in = {
            key: ctx.buffer(f"solver_in_d{key[0]}_{'p' if key[1] > 0 else 'm'}",
                            self.barotropic_halo_bytes)
            for key in neighbors
        }
        keys = list(neighbors)
        for iteration in range(self.iterations):
            # Baroclinic phase: 3-D dynamics with a 2-D halo exchange.
            instructions = self.imbalanced(
                self.baroclinic_instructions, rank, iteration)
            self.stencil_compute(ctx, instructions,
                                 consume=[ghost_in[k] for k in keys],
                                 produce=[ghost_out[k] for k in keys])
            self.halo_exchange(
                ctx,
                sends=[(neighbors[k], ghost_out[k], 30) for k in keys],
                recvs=[(neighbors[k], ghost_in[k], 30) for k in keys])
            # Barotropic solver: small stencils plus global reductions.
            for step in range(self.barotropic_steps):
                step_instructions = self.imbalanced(
                    self.barotropic_instructions, rank, iteration, phase=step + 1)
                self.stencil_compute(ctx, step_instructions,
                                     consume=[solver_in[k] for k in keys],
                                     produce=[solver_out[k] for k in keys])
                self.halo_exchange(
                    ctx,
                    sends=[(neighbors[k], solver_out[k], 31) for k in keys],
                    recvs=[(neighbors[k], solver_in[k], 31) for k in keys])
                ctx.allreduce(count=1)
