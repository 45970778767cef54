"""The interconnect fabric: topology-routed transfer processes.

The Dimemas network model charges every inter-node transfer per-hop
``latency + size / bandwidth`` and limits concurrency through the hop
resources of a pluggable :class:`~repro.dimemas.topology.NetworkModel`
(selected by ``platform.topology``; the default :class:`FlatBus` reproduces
the original global-buses + per-node-links model bit for bit).  Transfers
between ranks mapped to the same node bypass the network entirely and use
the (faster) intra-node parameters.

A transfer crosses its route store-and-forward: each hop's resources are
acquired in the hop's fixed order, held for that hop's transfer time and
released (in a ``try``/``finally``, so a failed or interrupted transfer
never leaks capacity) before the next hop is requested.  No transfer waits
for a hop while holding another hop's resources, which keeps every
topology -- wrap-around torus rings included -- deadlock-free.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.des import Environment
from repro.des.events import PRIORITY_URGENT
from repro.des.resources import InfiniteResource, Request, Resource
from repro.dimemas.messages import Message
from repro.dimemas.platform import Platform
from repro.dimemas.topology import NetworkModel, build_network_model
from repro.paraver.timeline import Timeline


class NetworkStatistics:
    """Aggregate transfer counters maintained by the fabric."""

    def __init__(self) -> None:
        self.transfers = 0
        self.bytes_transferred = 0
        self.total_transfer_time = 0.0
        self.total_queue_time = 0.0
        self.intranode_transfers = 0
        #: Transfers injected by the decomposed collective backend (phases
        #: of lowered collectives) as opposed to replayed point-to-point
        #: messages; they cross the same hops but are attributed separately.
        self.collective_transfers = 0
        self.collective_bytes = 0
        self.collective_transfer_time = 0.0
        #: Per-hop-class accumulators, keyed by hop name (e.g. ``net``,
        #: ``up0``, ``x+``): how many crossings and how long they queued.
        self.hop_transfers: Dict[str, int] = {}
        self.hop_queue_time: Dict[str, float] = {}

    def record(self, size: int, queue_time: float, transfer_time: float,
               intranode: bool, collective: bool = False) -> None:
        self.transfers += 1
        self.bytes_transferred += size
        self.total_queue_time += queue_time
        self.total_transfer_time += transfer_time
        if intranode:
            self.intranode_transfers += 1
        if collective:
            self.collective_transfers += 1
            self.collective_bytes += size
            self.collective_transfer_time += transfer_time

    def record_hop(self, name: str, queue_time: float) -> None:
        self.hop_transfers[name] = self.hop_transfers.get(name, 0) + 1
        self.hop_queue_time[name] = self.hop_queue_time.get(name, 0.0) + queue_time

    @property
    def mean_queue_time(self) -> float:
        return self.total_queue_time / self.transfers if self.transfers else 0.0

    @property
    def mean_transfer_time(self) -> float:
        """Mean end-to-end transfer duration (queueing excluded)."""
        return self.total_transfer_time / self.transfers if self.transfers else 0.0

    @property
    def intranode_share(self) -> float:
        """Fraction of transfers that stayed inside a node."""
        return self.intranode_transfers / self.transfers if self.transfers else 0.0

    @property
    def collective_share(self) -> float:
        """Fraction of the transferred bytes carried by collective phases."""
        if not self.bytes_transferred:
            return 0.0
        return self.collective_bytes / self.bytes_transferred

    def summary(self) -> Dict[str, float]:
        """The scalar counters surfaced by results and sweep tables."""
        return {
            "transfers": self.transfers,
            "bytes_transferred": self.bytes_transferred,
            "mean_queue_time": self.mean_queue_time,
            "mean_transfer_time": self.mean_transfer_time,
            "intranode_transfers": self.intranode_transfers,
            "intranode_share": self.intranode_share,
            "collective_transfers": self.collective_transfers,
            "collective_bytes": self.collective_bytes,
            "collective_share": self.collective_share,
        }


class NetworkFabric:
    """Runs transfer processes over the platform's topology model."""

    def __init__(self, env: Environment, platform: Platform, num_ranks: int,
                 timeline: Optional[Timeline] = None):
        self.env = env
        self.platform = platform
        self.num_ranks = num_ranks
        self.timeline = timeline
        self.statistics = NetworkStatistics()
        self.model: NetworkModel = build_network_model(env, platform, num_ranks)

    # -- transfers ------------------------------------------------------------
    def start_transfer(self, message: Message) -> None:
        """Launch the transfer process for a matched message."""
        self.env.process(self._transfer(message), name="transfer")

    def transfer_event(self, src: int, dst: int, size: int):
        """Run one raw transfer outside the matcher; returns its arrival event.

        This is the entry point of the decomposed collective backend: each
        phase transfer of a lowered collective crosses the fabric exactly
        like a matched point-to-point message (same routing, same hop
        contention, same intranode shortcut) but is attributed to the
        collective statistics and kept off the communication timeline (the
        replay already records the enclosing COLLECTIVE interval).
        """
        message = Message(self.env, src=src, dst=dst, tag=-1, size=size)
        self.env.process(self._transfer(message, collective=True),
                         name="collective-transfer")
        return message.arrived

    def _transfer(self, message: Message, collective: bool = False):
        env = self.env
        timeout = env.schedule_timeout
        statistics = self.statistics
        platform = self.platform
        size = message.size
        src_node = platform.node_of(message.src)
        dst_node = platform.node_of(message.dst)
        intranode = src_node == dst_node
        queue_time = 0.0
        duration = 0.0
        if intranode:
            message.transfer_start = env._now
            duration = platform.transfer_time(size, intranode=True)
            yield timeout(duration)
        else:
            for hop in self.model.route(src_node, dst_node):
                requested_at = env._now
                requests = []
                try:
                    # Acquire the hop's resources in its fixed order (for
                    # the flat bus: output link, input link, bus) so
                    # transfers never hold one hop's resources in
                    # conflicting orders.
                    for resource in hop.resources:
                        request = resource.request()
                        requests.append((resource, request))
                        yield request
                    hop_queue = env._now - requested_at
                    if message.transfer_start is None:
                        message.transfer_start = env._now
                    hop_duration = hop.transfer_time(size)
                    yield timeout(hop_duration)
                finally:
                    # A failed or interrupted transfer must return its
                    # capacity; leaking a link or bus slot deadlocks every
                    # later transfer through the same resource.  Releasing
                    # a still-queued request simply withdraws it.
                    for resource, request in requests:
                        resource.release(request)
                queue_time += hop_queue
                duration += hop_duration
                statistics.record_hop(hop.name, hop_queue)
        message.arrival_time = env._now
        message.arrived.succeed(env._now)
        statistics.record(size, queue_time, duration, intranode, collective)
        if self.timeline is not None and not collective:
            self.timeline.add_communication(
                src=message.src, dst=message.dst, size=size,
                tag=message.tag, send_time=message.transfer_start,
                recv_time=message.arrival_time)


# ---------------------------------------------------------------------------
# Collapsing fabric: event-eliding transfers
# ---------------------------------------------------------------------------
#
# The collapsing fabric removes per-message DES bookkeeping while keeping
# every *side effect* (resource acquisition/release, statistics, event
# triggers) at the same (time, priority, relative-order) position in the
# processing order as the generator-based fabric above.  Event ids are
# assigned in push order, so eliding an event that has no observable effect
# of its own (a process's Initialize, a grant round-trip whose pop only
# resumes the owner, the process-completion event nobody waits on) can never
# reorder the remaining events.  A transfer whose whole acquisition is elided
# ("collapsed") pushes its wire timeout at its bootstrap pop instead of at
# its last grant pop; that is only safe when no observable event can land
# between those two positions, which the fabric establishes with one guard:
# no other same-time urgent event is pending at all, so the window between
# the two positions is empty.


class _FastTransfer:
    """Completion state of one fast-path transfer (single hop or intranode)."""

    __slots__ = ("fabric", "message", "duration", "grants", "hop",
                 "intranode", "collective")

    def __init__(self, fabric, message, duration, grants, hop, intranode,
                 collective):
        self.fabric = fabric
        self.message = message
        self.duration = duration
        self.grants = grants
        self.hop = hop
        self.intranode = intranode
        self.collective = collective

    def _complete(self, _event) -> None:
        # Mirrors the tail of NetworkFabric._transfer exactly: releases in
        # acquisition order, then the hop record, then arrival bookkeeping,
        # the arrived trigger, the global record and the timeline line.
        fabric = self.fabric
        env = fabric.env
        statistics = fabric.statistics
        message = self.message
        hop = self.hop
        if hop is not None:
            for resource, request in self.grants:
                resource.release(request)
            statistics.record_hop(hop.name, 0.0)
        message.arrival_time = env._now
        message.arrived.succeed(env._now)
        statistics.record(message.size, 0.0, self.duration, self.intranode,
                          self.collective)
        if fabric.timeline is not None and not self.collective:
            fabric.timeline.add_communication(
                src=message.src, dst=message.dst, size=message.size,
                tag=message.tag, send_time=message.transfer_start,
                recv_time=message.arrival_time)


class _TransferChain:
    """Slotted replacement for a ``_transfer`` generator process.

    Walks the route with the exact processing-order positions of the
    generic generator -- first request at the bootstrap pop, each next
    request at the previous grant's pop, the wire timeout at the last
    grant's pop, releases / hop record / next hop (or completion) at the
    timeout's pop -- but without generator frames or Process wrappers.
    """

    __slots__ = ("fabric", "message", "collective", "route", "hop_index",
                 "grants", "requested_at", "queue_time", "duration",
                 "hop_queue", "hop_duration")

    def __init__(self, fabric, message, collective, route):
        self.fabric = fabric
        self.message = message
        self.collective = collective
        self.route = route
        self.hop_index = 0
        self.queue_time = 0.0
        self.duration = 0.0

    def start(self) -> None:
        self._begin_hop()

    def _begin_hop(self) -> None:
        self.requested_at = self.fabric.env._now
        self.grants = []
        self._advance()

    def _advance(self) -> None:
        hop = self.route[self.hop_index]
        resources = hop.resources
        grants = self.grants
        index = len(grants)
        if index < len(resources):
            resource = resources[index]
            request = resource.request()
            grants.append((resource, request))
            request.callbacks.append(self._granted)
            return
        # Every resource of the hop is held: start the wire time.  This
        # runs at the last grant's pop, exactly where the generator resumes.
        env = self.fabric.env
        message = self.message
        self.hop_queue = env._now - self.requested_at
        if message.transfer_start is None:
            message.transfer_start = env._now
        self.hop_duration = hop.transfer_time(message.size)
        env.schedule_timeout(self.hop_duration).callbacks.append(
            self._finish_hop)

    def _granted(self, _event) -> None:
        self._advance()

    def _finish_hop(self, _event) -> None:
        fabric = self.fabric
        hop = self.route[self.hop_index]
        for resource, request in self.grants:
            resource.release(request)
        self.queue_time += self.hop_queue
        self.duration += self.hop_duration
        fabric.statistics.record_hop(hop.name, self.hop_queue)
        self.hop_index += 1
        if self.hop_index < len(self.route):
            self._begin_hop()
            return
        env = fabric.env
        message = self.message
        message.arrival_time = env._now
        message.arrived.succeed(env._now)
        fabric.statistics.record(message.size, self.queue_time,
                                 self.duration, False, self.collective)
        if fabric.timeline is not None and not self.collective:
            fabric.timeline.add_communication(
                src=message.src, dst=message.dst, size=message.size,
                tag=message.tag, send_time=message.transfer_start,
                recv_time=message.arrival_time)


def _grab_free_slots(resources):
    """Synchronously acquire every resource, or ``None`` if any is busy.

    Builds the same granted :class:`Request` tokens ``Resource.request``
    would (so ``release`` works unchanged) but skips the grant event -- the
    caller only takes this path when the grant chain would have popped
    back-to-back anyway, making the round-trips pure bookkeeping.
    """
    grants = []
    for resource in resources:
        kind = type(resource)
        if kind is Resource:
            if len(resource._users) >= resource._capacity:
                for held, token in grants:
                    held.release(token)
                return None
        elif kind is not InfiniteResource:
            # Unknown resource flavour: let the generic path handle it.
            for held, token in grants:
                held.release(token)
            return None
        request = Request.__new__(Request)
        request.env = resource.env
        request._name = None
        request.callbacks = None  # processed: the grant already happened
        request._value = resource
        request._ok = True
        request._defused = False
        request.resource = resource
        if kind is Resource:
            resource._users.append(request)
        else:
            resource._count += 1
        grants.append((resource, request))
    return grants


class CollapsingNetworkFabric(NetworkFabric):
    """The fabric of the ``adaptive`` backend's DES fallback.

    Transfers start from a bootstrap event at the exact queue position of
    the generic fabric's process-Initialize event.  When the bootstrap
    pops with a single-hop route and the collapse guard holds (see the
    module comment above), the whole acquisition collapses into
    synchronous calls and one completion timeout.  Otherwise a
    :class:`_TransferChain` walks the route from the same position with
    every side effect at its generic processing-order slot.  Either way
    results are bit-identical to :class:`NetworkFabric` (pinned by the
    backend golden tests).
    """

    def start_transfer(self, message: Message) -> None:
        self._post(message, False)

    def transfer_event(self, src: int, dst: int, size: int):
        message = Message(self.env, src=src, dst=dst, tag=-1, size=size)
        self._post(message, True)
        return message.arrived

    def _post(self, message: Message, collective: bool) -> None:
        platform = self.platform
        src_node = platform.node_of(message.src)
        dst_node = platform.node_of(message.dst)
        route = (None if src_node == dst_node
                 else self.model.route(src_node, dst_node))
        self.env.schedule_bootstrap(
            self._begin_collective if collective else self._begin_p2p,
            (message, route))

    # -- bootstrap callbacks ------------------------------------------------
    def _begin_p2p(self, event) -> None:
        message, route = event._value
        self._begin(message, route, False)

    def _begin_collective(self, event) -> None:
        message, route = event._value
        self._begin(message, route, True)

    def _begin(self, message: Message, route, collective: bool) -> None:
        env = self.env
        now = env._now
        if route is None:
            # Intranode: the generic path touches no shared resource
            # between its bootstrap and its timeout, so collapsing is
            # unconditionally order-preserving.
            message.transfer_start = now
            duration = self.platform.transfer_time(message.size,
                                                   intranode=True)
            completion = _FastTransfer(self, message, duration, (), None,
                                       True, collective)
            env.schedule_timeout(duration).callbacks.append(
                completion._complete)
            return
        if len(route) == 1:
            queue = env._queue
            if (not queue or queue[0][0] > now
                    or queue[0][1] != PRIORITY_URGENT):
                # The elided window is empty outright.
                hop = route[0]
                grants = _grab_free_slots(hop.resources)
                if grants is not None:
                    message.transfer_start = now
                    duration = hop.transfer_time(message.size)
                    completion = _FastTransfer(self, message, duration,
                                               grants, hop, False,
                                               collective)
                    env.schedule_timeout(duration).callbacks.append(
                        completion._complete)
                    return
        _TransferChain(self, message, collective, route).start()
