"""Golden regression: the adaptive backend's DES fallback is bit-identical to
the event backend.

When the adaptive backend cannot fast-forward a cell (decomposed
collectives, CPU contention, ``max_relative_error=0`` on a contended
network, defective traces) it replays the cell through the same DES rank
loop as the event backend, but over the
:class:`~repro.dimemas.network.CollapsingNetworkFabric`, which grants
uncontended transfers inline instead of through per-hop acquisition
chains.  Its acceptance contract: total time, per-rank statistics, network
statistics and timelines must match the event backend *exactly*.

Every case asserts the cell really ran in ``des-fallback`` mode, so these
tests fail if the collapsing fabric stops being exercised.
"""

import pytest

from repro.apps.registry import create_application
from repro.core.chunking import FixedCountChunking
from repro.core.environment import OverlapStudyEnvironment
from repro.core.mechanisms import OverlapMechanism
from repro.core.patterns import ComputationPattern
from repro.dimemas.platform import Platform
from repro.dimemas.replay import ReplayEngine
from repro.errors import ConfigurationError, SimulationError
from repro.experiments import Experiment, run_experiment
from repro.store.keys import platform_fingerprint
from repro.tracing.records import CpuBurst, RecvRecord, SendRecord, WaitRecord
from repro.tracing.trace import RankTrace, Trace

APPS = ("nas-bt", "nas-cg", "sweep3d")
TOPOLOGIES = ("flat", "tree:radix=2", "torus:torus_width=2")
MECHANISMS = ("full", "early-send", "late-receive")


def _trace(app_name, overlap=None, mechanism="full", ranks=4, iterations=2):
    environment = OverlapStudyEnvironment(chunking=FixedCountChunking(count=4))
    trace = environment.trace(
        create_application(app_name, num_ranks=ranks, iterations=iterations))
    if overlap is not None:
        trace = environment.overlap(
            trace, pattern=ComputationPattern.from_label(overlap),
            mechanism=OverlapMechanism.from_label(mechanism))
    return trace


def _engine(trace, platform, backend, collect_timeline=True):
    engine = ReplayEngine(trace, platform.with_replay_backend(backend),
                          collect_timeline=collect_timeline)
    return engine, engine.run()


def _assert_fallback_identical(trace, platform):
    for collect_timeline in (True, False):
        _, event = _engine(trace, platform, "event", collect_timeline)
        engine, fallback = _engine(trace, platform, "adaptive",
                                   collect_timeline)
        assert engine.adaptive_summary["mode"] == "des-fallback"
        event_time, event_stats, event_timeline, event_network = event
        time, stats, timeline, network = fallback
        assert time == event_time
        assert stats == event_stats  # dataclass equality, every field
        assert network == event_network
        assert timeline.intervals == event_timeline.intervals
        assert timeline.communications == event_timeline.communications


def _decomposed(topology="flat", **options):
    return Platform(bandwidth_mbps=100.0, collective_model="decomposed",
                    topology=topology, **options)


class TestDecomposedCollectivesFallback:
    """Decomposed collectives route phase traffic through the fabric, so
    the adaptive backend always falls back to the DES for them."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("app", APPS)
    def test_original_trace_bit_identical(self, app, topology):
        _assert_fallback_identical(_trace(app), _decomposed(topology))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("app", APPS)
    def test_overlapped_trace_bit_identical(self, app, topology):
        _assert_fallback_identical(_trace(app, overlap="ideal"),
                                   _decomposed(topology))

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("pattern", ["real", "ideal"])
    def test_mechanism_variants_bit_identical(self, pattern, mechanism):
        trace = _trace("nas-bt", overlap=pattern, mechanism=mechanism)
        _assert_fallback_identical(trace, _decomposed())
        _assert_fallback_identical(trace, _decomposed("tree:radix=2"))

    @pytest.mark.parametrize("app", APPS)
    def test_rendezvous_protocol(self, app):
        _assert_fallback_identical(_trace(app),
                                   _decomposed(eager_threshold=0))
        _assert_fallback_identical(
            _trace(app, overlap="ideal"),
            _decomposed("tree:radix=2,links=1", eager_threshold=0))

    @pytest.mark.parametrize("app", APPS)
    def test_mpi_overhead(self, app):
        _assert_fallback_identical(_trace(app, overlap="ideal"),
                                   _decomposed(mpi_overhead=2.0e-5))
        _assert_fallback_identical(
            _trace(app),
            _decomposed("torus:torus_width=2", mpi_overhead=2.0e-5))

    def test_ideal_network(self):
        # Zero latency and infinite bandwidth make every transfer complete
        # at the instant it starts: the densest same-instant orderings.
        _assert_fallback_identical(
            _trace("nas-cg"),
            Platform.ideal_network().with_collective_model("decomposed"))

    @pytest.mark.parametrize("app", ["nas-cg", "sweep3d"])
    def test_equal_intranode_timing(self, app):
        # Intranode and internode transfers of the same size complete at
        # the same instant: adversarial for any reordering of same-time
        # completions between the collapsed and the chained paths (on
        # nas-cg, collapsing past a pending same-instant urgent event
        # reorders the recorded timeline).
        _assert_fallback_identical(
            _trace(app),
            _decomposed(latency=1.0e-6, processors_per_node=2,
                        intranode_bandwidth_mbps=100.0,
                        intranode_latency=1.0e-6))


class TestCpuContentionFallback:
    @pytest.mark.parametrize("app", APPS)
    def test_cpu_contention_with_intranode_traffic(self, app):
        _assert_fallback_identical(
            _trace(app),
            Platform(bandwidth_mbps=100.0, processors_per_node=4,
                     cpu_contention=True, intranode_bandwidth_mbps=1000.0))

    def test_cpu_contention_on_a_tree(self):
        _assert_fallback_identical(
            _trace("sweep3d", overlap="ideal"),
            Platform(bandwidth_mbps=100.0, processors_per_node=2,
                     cpu_contention=True, topology="tree:radix=2,links=1"))


class TestExactBoundFallback:
    """``max_relative_error=0`` forbids approximating contended windows, so
    cells on finite buses or links fall back to the DES."""

    @pytest.mark.parametrize("app", APPS)
    def test_contended_buses_and_links(self, app):
        _assert_fallback_identical(
            _trace(app),
            Platform(bandwidth_mbps=25.0, num_buses=1, input_links=1,
                     output_links=1, max_relative_error=0.0))

    @pytest.mark.parametrize("topology", ["tree:radix=2,links=1",
                                          "torus:torus_width=2,links=1"])
    def test_finite_topology_links(self, topology):
        _assert_fallback_identical(
            _trace("nas-cg", overlap="ideal"),
            Platform(bandwidth_mbps=50.0, topology=topology,
                     max_relative_error=0.0))


class TestLeftoverRequests:
    """A non-blocking request never waited on is a malformed trace; both
    backends must name the rank and the dangling request ids."""

    def _trace_with_dangling_request(self):
        return Trace(ranks=[
            RankTrace(rank=0, records=[
                CpuBurst(instructions=1.0e6),
                SendRecord(dst=1, size=1000, tag=0, blocking=False, request=7),
                SendRecord(dst=1, size=1000, tag=1, blocking=False, request=9),
                CpuBurst(instructions=1.0e6),
            ]),
            RankTrace(rank=1, records=[
                RecvRecord(src=0, size=1000, tag=0),
                RecvRecord(src=0, size=1000, tag=1),
            ]),
        ], mips=1000.0, metadata={"name": "dangling"})

    @pytest.mark.parametrize("backend", ["event", "adaptive"])
    def test_dangling_requests_raise(self, backend):
        platform = Platform(bandwidth_mbps=100.0,
                            replay_backend=backend)
        engine = ReplayEngine(self._trace_with_dangling_request(), platform)
        with pytest.raises(SimulationError,
                           match=r"TL301 dangling-request at rank 0, "
                                 r"record 1: .*7, 9"):
            engine.run()

    def test_waited_requests_do_not_raise(self):
        trace = Trace(ranks=[
            RankTrace(rank=0, records=[
                SendRecord(dst=1, size=1000, tag=0, blocking=False, request=7),
                WaitRecord(requests=[7]),
            ]),
            RankTrace(rank=1, records=[RecvRecord(src=0, size=1000, tag=0)]),
        ], mips=1000.0, metadata={"name": "waited"})
        for backend in ("event", "adaptive"):
            engine = ReplayEngine(
                trace, Platform(bandwidth_mbps=100.0, replay_backend=backend))
            engine.run()


class TestReplayBackendKnob:
    @pytest.mark.parametrize("backend", ["bytecode", "compiled"])
    def test_invalid_backend_rejected(self, backend):
        with pytest.raises(ConfigurationError,
                           match="replay_backend must be 'event' or "
                                 "'adaptive'"):
            Platform(replay_backend=backend)

    def test_with_replay_backend_round_trip(self):
        platform = Platform(bandwidth_mbps=100.0)
        assert platform.replay_backend == "event"
        adaptive = platform.with_replay_backend("adaptive")
        assert adaptive.replay_backend == "adaptive"
        assert adaptive.bandwidth_mbps == platform.bandwidth_mbps

    def test_event_backend_excluded_from_cache_fingerprint(self):
        platform = Platform(bandwidth_mbps=100.0)
        assert "replay_backend" not in platform_fingerprint(platform)
        assert (platform_fingerprint(platform.with_replay_backend("adaptive"))
                ["replay_backend"] == "adaptive")

    def test_builder_sets_the_backend(self):
        spec = (Experiment.for_app("sancho-loop", num_ranks=4, iterations=2)
                .bandwidths(100.0)
                .replay_backend("adaptive")
                .build())
        assert spec.platform_dict()["replay_backend"] == "adaptive"


class TestParallelSweepDeterminism:
    def test_jobs_gt_one_matches_across_backends(self):
        # The worker pool must not perturb either backend: with an exact
        # bound the adaptive rows equal the event rows at jobs=2 and match
        # the serial run.
        def rows(backend, jobs):
            spec = (Experiment.for_app("sancho-loop", num_ranks=4,
                                       iterations=2)
                    .patterns("ideal")
                    .chunk_count(4)
                    .bandwidths(50.0, 500.0, 5000.0)
                    .replay_backend(backend)
                    .max_relative_error(0.0)
                    .jobs(jobs)
                    .build())
            return [{key: value for key, value in row.items()
                     if key != "task_seconds"}
                    for row in run_experiment(spec).to_rows()]

        event_parallel = rows("event", 2)
        adaptive_parallel = rows("adaptive", 2)
        assert adaptive_parallel == event_parallel
        assert adaptive_parallel == rows("adaptive", 1)
