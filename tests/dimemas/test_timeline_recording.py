"""Pluggable timeline recording: the NullRecorder and its wiring.

``collect_timeline`` flows from the entry points down to the replay engine:
metric-only sweep tasks default to the null recorder, full-result
executions (studies) always record, the experiment spec exposes
``collect_timelines``, and the interactive ``simulate`` path keeps
recording by default.  Recording never changes a number, in any of the
adaptive backend's interpreters (lane walk, paced mode, DES fallback).
"""

import pytest

from repro.apps.registry import APPLICATIONS, create_application
from repro.core.analysis import ORIGINAL
from repro.core.chunking import FixedCountChunking
from repro.core.environment import OverlapStudyEnvironment
from repro.core.patterns import ComputationPattern
from repro.core.executor import SweepExecutor, SweepTask
from repro.dimemas.platform import Platform
from repro.dimemas.replay import ReplayEngine
from repro.dimemas.simulator import DimemasSimulator
from repro.errors import AnalysisError
from repro.experiments import ExperimentSpec, plan_experiment, run_experiment
from repro.paraver.states import ThreadState
from repro.paraver.timeline import NullRecorder, Timeline


@pytest.fixture
def trace(small_loop):
    return OverlapStudyEnvironment().trace(small_loop)


class TestNullRecorder:
    def test_drops_intervals_and_communications(self):
        recorder = NullRecorder(num_ranks=2)
        recorder.add_interval(0, 0.0, 1.0, ThreadState.RUNNING)
        recorder.add_communication(0, 1, 100, 0, 0.0, 1.0)
        assert recorder.intervals == []
        assert recorder.communications == []
        assert recorder.duration == 0.0
        assert recorder.collects is False
        assert Timeline(num_ranks=2).collects is True

    def test_queries_stay_valid(self):
        recorder = NullRecorder(num_ranks=2)
        assert recorder.time_in_state(ThreadState.RUNNING) == 0.0
        assert recorder.state_at(0, 0.5) == ThreadState.IDLE
        recorder.validate()  # no overlap in an empty timeline


class TestEngineFlag:
    def test_default_records(self, trace):
        engine = ReplayEngine(trace, Platform())
        _, _, timeline, _ = engine.run()
        assert timeline.collects is True
        assert timeline.intervals

    def test_disabled_recording_returns_empty_timeline(self, trace):
        engine = ReplayEngine(trace, Platform(), collect_timeline=False)
        total_time, stats, timeline, _ = engine.run()
        assert isinstance(timeline, NullRecorder)
        assert timeline.intervals == []
        assert total_time > 0
        # The network fabric was not handed a recorder either.
        assert engine.network.timeline is None

    def test_simulator_flag(self, trace):
        recording = DimemasSimulator(Platform()).simulate(trace)
        bare = DimemasSimulator(Platform()).simulate(trace, collect_timeline=False)
        assert recording.timeline.intervals
        assert bare.timeline.intervals == []
        assert bare.total_time == recording.total_time
        assert bare.ranks == recording.ranks


#: Adaptive cells per interpreter: proven cells run the lane walk, the
#: contended ones the paced mode, decomposed collectives the DES fallback.
_UNLIMITED = {"num_buses": 0, "input_links": 0, "output_links": 0}
ADAPTIVE_CELLS = {
    "proven": {
        "flat": Platform(**_UNLIMITED),
        "flat-ppn2": Platform(**_UNLIMITED, processors_per_node=2),
        "tree-links0": Platform(topology="tree:radix=2,links=0"),
        "tree-links0-ppn2": Platform(topology="tree:radix=2,links=0",
                                     processors_per_node=2),
        "torus-links0": Platform(topology="torus:links=0"),
    },
    "paced": {
        "tree-links1-eager0": Platform(topology="tree:radix=2,links=1",
                                       eager_threshold=0),
        "torus-links1-ppn2": Platform(topology="torus:links=1",
                                      processors_per_node=2),
        "flat-links1": Platform(input_links=1, output_links=1),
    },
    "fallback": {
        "decomposed": Platform(collective_model="decomposed"),
    },
}
_ADAPTIVE_TRACES = {}


def _adaptive_trace(app_name, variant):
    key = (app_name, variant)
    if key not in _ADAPTIVE_TRACES:
        environment = OverlapStudyEnvironment(
            chunking=FixedCountChunking(count=4))
        trace = environment.trace(create_application(
            app_name, num_ranks=4, iterations=2))
        if variant == "ideal":
            trace = environment.overlap(trace,
                                        pattern=ComputationPattern.IDEAL)
        _ADAPTIVE_TRACES[key] = trace
    return _ADAPTIVE_TRACES[key]


def _sorted_timeline(timeline):
    intervals = sorted((i.rank, i.start, i.end, i.state.value)
                       for i in timeline.intervals)
    communications = sorted((c.src, c.dst, c.size, c.tag, c.send_time,
                             c.recv_time) for c in timeline.communications)
    return intervals, communications


class TestAdaptiveTimelineContract:
    """collect_timeline on/off is invisible in every adaptive interpreter."""

    @pytest.mark.parametrize("cell", [
        pytest.param((path, name), id=f"{path}-{name}")
        for path, platforms in ADAPTIVE_CELLS.items() for name in platforms])
    @pytest.mark.parametrize("variant", ["original", "ideal"])
    @pytest.mark.parametrize("app_name", sorted(APPLICATIONS))
    def test_recording_changes_no_number(self, app_name, variant, cell):
        path, name = cell
        trace = _adaptive_trace(app_name, variant)
        platform = ADAPTIVE_CELLS[path][name].with_replay_backend("adaptive")
        recording = ReplayEngine(trace, platform, collect_timeline=True)
        time_on, stats_on, timeline, network_on = recording.run()
        bare = ReplayEngine(trace, platform, collect_timeline=False)
        time_off, stats_off, _, network_off = bare.run()
        plan = recording.window_plan
        assert path == ("proven" if plan.proven_exact else
                        "paced" if plan.fast_forward else "fallback")
        assert time_on == time_off
        assert stats_on == stats_off
        assert network_on == network_off
        assert recording.adaptive_summary == bare.adaptive_summary
        if path == "proven":
            # The lane walk records what the event backend records.
            event = ReplayEngine(trace, platform.with_replay_backend("event"))
            _, _, event_timeline, _ = event.run()
            assert timeline.intervals
            assert (_sorted_timeline(timeline)
                    == _sorted_timeline(event_timeline))


class TestExecutorWiring:
    def test_metric_tasks_default_to_null_recorder(self):
        plan = plan_experiment(ExperimentSpec(apps=("sancho-loop",),
                                              bandwidths=(50.0, 500.0)))
        assert all(task.collect_timeline is False for task in plan.tasks)

    def test_task_flag_reaches_the_replay(self, trace, platform):
        task = SweepTask(index=0, variant=ORIGINAL, trace_key=ORIGINAL,
                         platform=platform, label="loop",
                         collect_timeline=True)
        # Metric rows don't ship timelines, but the flag must still select
        # the recording replay path (simulator honours it per task).
        result = SweepExecutor().execute([task], {ORIGINAL: trace})
        assert result[0].total_time > 0

    def test_full_results_always_carry_timelines(self, trace, platform):
        task = SweepTask(index=0, variant=ORIGINAL, trace_key=ORIGINAL,
                         platform=platform, label="loop")
        results = SweepExecutor().execute([task], {ORIGINAL: trace},
                                          full_results=True)
        assert results[0].timeline.intervals


class TestSpecWiring:
    def test_spec_defaults_off_and_round_trips(self):
        spec = ExperimentSpec(apps=("nas-bt",))
        assert spec.collect_timelines is False
        enabled = spec.with_collect_timelines()
        assert enabled.collect_timelines is True
        assert ExperimentSpec.from_toml(enabled.to_toml()) == enabled
        assert ExperimentSpec.from_json(enabled.to_json()) == enabled
        # The default stays out of the serialized form.
        assert "collect_timelines" not in spec.to_toml()

    def test_run_experiment_keeps_full_results_when_enabled(self):
        spec = ExperimentSpec(
            apps=("sancho-loop",), app_options={"num_ranks": 4, "iterations": 2},
            patterns=("ideal",), collect_timelines=True)
        result = run_experiment(spec)
        assert result.simulation_results is not None
        assert all(r.timeline.intervals for r in result.simulation_results)

    def test_run_experiment_discards_timelines_by_default(self):
        spec = ExperimentSpec(
            apps=("sancho-loop",), app_options={"num_ranks": 4, "iterations": 2},
            patterns=("ideal",))
        result = run_experiment(spec)
        assert result.simulation_results is None

    def test_scalar_results_identical_either_way(self):
        base = ExperimentSpec(
            apps=("sancho-loop",), app_options={"num_ranks": 4, "iterations": 2},
            bandwidths=(20.0, 2000.0), patterns=("real", "ideal"))
        fast = run_experiment(base)
        recorded = run_experiment(base.with_collect_timelines())
        fast_points, recorded_points = fast.sweep().points, recorded.sweep().points
        assert [p.times for p in fast_points] == [p.times for p in recorded_points]
        assert [p.network for p in fast_points] == [p.network for p in recorded_points]
        assert ([p.original_communication_fraction for p in fast_points]
                == [p.original_communication_fraction for p in recorded_points])

    def test_timeline_still_guards_rank_bounds(self):
        timeline = Timeline(num_ranks=1)
        with pytest.raises(AnalysisError):
            timeline.add_interval(5, 0.0, 1.0, ThreadState.RUNNING)


class TestLazyRecvPostedHook:
    def test_access_after_posting_is_already_processed(self):
        from repro.des import Environment
        from repro.dimemas.matching import MessageMatcher
        from repro.dimemas.network import NetworkFabric
        from repro.tracing.records import RecvRecord, SendRecord

        env = Environment()
        p = Platform()
        matcher = MessageMatcher(env, p, NetworkFabric(env, p, num_ranks=2))
        matcher.post_send(0, SendRecord(dst=1, size=10))
        message = matcher.post_recv(1, RecvRecord(src=0, size=10))
        queued_before = len(env._queue)
        hook = message.recv_posted
        # Materialised in the processed state at the posting time: a waiter
        # resumes synchronously and nothing was enqueued retroactively.
        assert hook.processed and hook.triggered and hook.ok
        assert hook.value == 0.0
        assert len(env._queue) == queued_before

    def test_access_before_posting_waits_for_the_posting(self):
        from repro.des import Environment
        from repro.dimemas.matching import MessageMatcher
        from repro.dimemas.network import NetworkFabric
        from repro.tracing.records import RecvRecord, SendRecord

        env = Environment()
        p = Platform()
        matcher = MessageMatcher(env, p, NetworkFabric(env, p, num_ranks=2))
        message = matcher.post_send(0, SendRecord(dst=1, size=10))
        hook = message.recv_posted
        assert not hook.triggered
        matcher.post_recv(1, RecvRecord(src=0, size=10))
        assert hook.triggered
