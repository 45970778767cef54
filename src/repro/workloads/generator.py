"""Deterministic pseudo-random workload generation.

The generator produces application models with randomised (but seeded and
therefore reproducible) iteration structures: varying burst lengths, message
sizes, neighbour sets and occasional collectives.  These workloads exercise
the tracing tool, the overlap transformation and the replay engine on
structures that the hand-written paper applications do not cover, which is
exactly what the property-based tests need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.apps.base import ApplicationModel
from repro.errors import ConfigurationError
from repro.tracing.context import RankContext


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a generated workload."""

    seed: int = 0
    num_ranks: int = 4
    iterations: int = 3
    max_message_bytes: int = 100_000
    max_instructions: float = 2.0e6
    collective_probability: float = 0.3
    neighbor_count: int = 2

    def __post_init__(self) -> None:
        if self.num_ranks < 2:
            raise ConfigurationError("a workload needs at least 2 ranks")
        if self.iterations < 1:
            raise ConfigurationError("a workload needs at least 1 iteration")
        if self.max_message_bytes < 1 or self.max_instructions <= 0:
            raise ConfigurationError("message and burst sizes must be positive")
        if not 0.0 <= self.collective_probability <= 1.0:
            raise ConfigurationError("collective_probability must be in [0, 1]")
        if not 1 <= self.neighbor_count < self.num_ranks:
            raise ConfigurationError(
                "neighbor_count must be between 1 and num_ranks - 1")


class RandomExchangeWorkload(ApplicationModel):
    """A seeded random neighbour-exchange application.

    The per-iteration structure (burst lengths, message sizes, whether a
    collective happens) is drawn from a :class:`random.Random` seeded from
    the spec, and the draws depend only on the iteration index -- never on
    the rank -- so all ranks agree on the communication schedule and the
    resulting trace always matches.
    """

    name = "random-exchange"

    def __init__(self, spec: WorkloadSpec):
        super().__init__(spec.num_ranks, spec.iterations)
        self.spec = spec

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info.update({
            "seed": self.spec.seed,
            "max_message_bytes": self.spec.max_message_bytes,
            "max_instructions": self.spec.max_instructions,
            "collective_probability": self.spec.collective_probability,
            "neighbor_count": self.spec.neighbor_count,
        })
        return info

    def _schedule(self) -> List[Dict[str, Any]]:
        """The per-iteration schedule shared by all ranks."""
        rng = random.Random(self.spec.seed)
        schedule = []
        for _ in range(self.spec.iterations):
            schedule.append({
                "instructions": rng.uniform(0.2, 1.0) * self.spec.max_instructions,
                "message_bytes": rng.randint(1, self.spec.max_message_bytes),
                "offsets": [rng.randint(1, self.spec.num_ranks - 1)
                            for _ in range(self.spec.neighbor_count)],
                "collective": rng.random() < self.spec.collective_probability,
                "operation": rng.choice(["barrier", "allreduce", "bcast"]),
            })
        return schedule

    def run(self, ctx: RankContext) -> None:
        rank = ctx.rank
        size = self.num_ranks
        for index, step in enumerate(self._schedule()):
            offsets = sorted(set(step["offsets"]))
            send_peers = [(rank + offset) % size for offset in offsets]
            recv_peers = [(rank - offset) % size for offset in offsets]
            send_buffers = [
                ctx.buffer(f"out_{index}_{offset}", step["message_bytes"])
                for offset in offsets
            ]
            recv_buffers = [
                ctx.buffer(f"in_{index}_{offset}", step["message_bytes"])
                for offset in offsets
            ]
            self.stencil_compute(ctx, step["instructions"],
                                 consume=recv_buffers, produce=send_buffers)
            sends = [(peer, buffer, 100 + index)
                     for peer, buffer in zip(send_peers, send_buffers)]
            recvs = [(peer, buffer, 100 + index)
                     for peer, buffer in zip(recv_peers, recv_buffers)]
            self.halo_exchange(ctx, sends, recvs)
            if step["collective"]:
                if step["operation"] == "barrier":
                    ctx.barrier()
                elif step["operation"] == "allreduce":
                    ctx.allreduce(count=1)
                else:
                    ctx.bcast(count=4)


def generate_workload(seed: int = 0, num_ranks: int = 4, iterations: int = 3,
                      **overrides: Any) -> RandomExchangeWorkload:
    """Convenience factory for a seeded random workload."""
    spec = WorkloadSpec(seed=seed, num_ranks=num_ranks, iterations=iterations,
                        **overrides)
    return RandomExchangeWorkload(spec)
