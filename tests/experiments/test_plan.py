"""Experiment planning: keyed task expansion, derivation-keyed traces and
lazy trace materialisation (a warm run must trace, transform and replay
nothing)."""

import dataclasses

import pytest

from repro.apps import SanchoLoop
from repro.apps.registry import APPLICATIONS
from repro.core.environment import OverlapStudyEnvironment
from repro.dimemas import windows
from repro.experiments import (
    ExperimentSpec,
    plan_experiment,
    preview_experiment,
    run_experiment,
    runner,
)
from repro.experiments.plan import build_environment
from repro.store import CellKey, FileResultStore
from repro.tracing.trace import Trace

SPEC = ExperimentSpec(
    apps=("sancho-loop",),
    app_options={"num_ranks": 4, "iterations": 2},
    bandwidths=(50.0, 500.0),
    patterns=("ideal",),
    chunking={"policy": "fixed-count", "count": 4})


@pytest.fixture
def no_overlap(monkeypatch):
    """Make any overlap transformation an error."""
    def forbidden(self, trace, **kwargs):
        raise AssertionError("overlap transformation ran")

    monkeypatch.setattr(OverlapStudyEnvironment, "overlap", forbidden)


def forbid_tracing(monkeypatch):
    """Make any tracing from here on an error."""
    def forbidden(self, app):
        raise AssertionError("tracing ran")

    monkeypatch.setattr(OverlapStudyEnvironment, "trace", forbidden)


def stable(result):
    """Tidy rows minus wall-clock timing (not reproducible across runs)."""
    return [{key: value for key, value in row.items()
             if key != "task_seconds"}
            for row in result.to_rows()]


def content_digest(trace):
    """The content digest of ``trace``, ignoring any adopted identity."""
    return Trace(ranks=trace.ranks, mips=trace.mips).digest()


class TestPlanStructure:
    def test_tasks_are_point_major_variant_minor(self):
        plan = plan_experiment(SPEC)
        assert [task.index for task in plan.tasks] == list(range(4))
        assert [task.variant for task in plan.tasks] == \
            ["original", "ideal", "original", "ideal"]
        assert [task.platform.bandwidth_mbps for task in plan.tasks] == \
            [50.0, 50.0, 500.0, 500.0]
        assert plan.variant_labels == ["original", "ideal"]
        assert plan.app_labels == ["sancho-loop"]

    def test_cell_keys_align_with_tasks(self):
        plan = plan_experiment(SPEC)
        keys = plan.cell_keys()
        assert len(keys) == len(plan.tasks)
        assert len({key.digest for key in keys}) == len(keys)
        # Same trace content behind every key of the app...
        assert len({key.trace_digest for key in keys}) == 1
        # ...and the variant recorded as its canonical derivation id.
        assert keys[0].variant == "original"
        assert keys[1].variant.startswith("pattern=ideal,mechanism=full,")

    def test_cell_keys_are_reproducible_across_plans(self):
        first = [key.digest for key in plan_experiment(SPEC).cell_keys()]
        second = [key.digest for key in plan_experiment(SPEC).cell_keys()]
        assert first == second

    def test_variant_ids_pin_the_derivation_not_the_label(self):
        # The same (pattern, mechanism) pair gets spec-dependent display
        # labels but one canonical derivation id.
        by_pattern = plan_experiment(SPEC)
        relabelled = plan_experiment(ExperimentSpec(
            apps=SPEC.apps, app_options=SPEC.app_options_dict(),
            bandwidths=SPEC.bandwidths, patterns=("ideal",),
            mechanisms=("full", "early-send"),
            chunking=SPEC.chunking_dict()))
        assert by_pattern.variant_ids()["ideal"] == \
            relabelled.variant_ids()["full"]


class TestLazyMaterialisation:
    def test_planning_traces_nothing(self, monkeypatch, no_overlap):
        def forbidden(self, app):
            raise AssertionError("tracing ran during planning")

        plan = plan_experiment(SPEC)
        monkeypatch.setattr(OverlapStudyEnvironment, "trace", forbidden)
        assert len(plan.tasks) == 4  # planning itself touched no trace

    def test_cell_keys_need_no_overlap_transformation(self, no_overlap):
        plan = plan_experiment(SPEC)
        assert len(plan.cell_keys()) == 4

    def test_preview_needs_no_overlap_transformation(self, tmp_path,
                                                     no_overlap):
        preview = preview_experiment(SPEC, store=FileResultStore(tmp_path))
        assert preview.misses == 4 and preview.hits == 0

    def test_warm_run_performs_zero_transformations(self, tmp_path,
                                                    monkeypatch):
        store = FileResultStore(tmp_path)
        cold = run_experiment(SPEC, store=store)

        def forbidden(self, trace, **kwargs):
            raise AssertionError("overlap transformation ran on a warm run")

        monkeypatch.setattr(OverlapStudyEnvironment, "overlap", forbidden)
        warm = run_experiment(SPEC, store=store)
        assert warm.to_rows() == cold.to_rows()

    def test_warm_run_traces_nothing(self, tmp_path, monkeypatch):
        store = FileResultStore(tmp_path)
        cold = run_experiment(SPEC, store=store)
        forbid_tracing(monkeypatch)
        warm = run_experiment(SPEC, store=store)
        assert warm.cache_stats()["hits"] == len(warm.to_rows())
        assert stable(warm) == stable(cold)

    def test_cell_keys_trace_nothing(self, monkeypatch):
        plan = plan_experiment(SPEC)
        forbid_tracing(monkeypatch)
        assert len(plan.cell_keys()) == 4

    def test_preview_without_precheck_traces_nothing(self, tmp_path,
                                                     monkeypatch):
        forbid_tracing(monkeypatch)
        preview = preview_experiment(SPEC, store=FileResultStore(tmp_path),
                                     precheck=False)
        assert preview.misses == 4

    def test_variant_traces_are_transformed_once(self):
        plan = plan_experiment(SPEC)
        assert plan.variant_trace("sancho-loop", "ideal") is \
            plan.variant_trace("sancho-loop", "ideal")
        assert plan.original_trace("sancho-loop") is \
            plan.variant_trace("sancho-loop", "original")


class TestDerivationKeys:
    """Spec-built originals are keyed by (app name, options), injected ones
    by content."""

    SMALL = {"num_ranks": 4, "iterations": 2}

    def plan_for(self, name, **options):
        return plan_experiment(ExperimentSpec(
            apps=(name,), app_options=dict(self.SMALL, **options),
            bandwidths=(100.0,), patterns=("ideal",)))

    def test_every_registered_app_is_identified_soundly(self):
        ids, contents = {}, set()
        for name in sorted(APPLICATIONS):
            first, second = self.plan_for(name), self.plan_for(name)
            assert first.trace_ids == second.trace_ids
            ids[name] = first.trace_ids[name]
            trace = first.original_trace(name)
            digest = content_digest(trace)
            assert digest == content_digest(second.original_trace(name))
            # The plan adopts the id as the trace's identity at once.
            assert trace.digest() == ids[name]
            contents.add(digest)
        assert len(set(ids.values())) == len(ids)
        assert contents.isdisjoint(ids.values())

    @pytest.mark.parametrize("change", [
        {"num_ranks": 6}, {"iterations": 3}, {"message_bytes": 1000},
        {"instructions_per_iteration": 1.0e5}, {"neighbors_per_rank": 1},
        {"mips": 500.0}, {"imbalance": 0.1},
    ])
    def test_any_option_change_moves_the_id(self, change):
        assert self.plan_for("sancho-loop", **change).trace_ids != \
            self.plan_for("sancho-loop").trace_ids

    def test_seed_moves_the_id(self):
        seeded = plan_experiment(ExperimentSpec(
            apps=("random-exchange",), app_options=self.SMALL, seeds=(1, 2),
            bandwidths=(100.0,)))
        ids = seeded.trace_ids
        assert ids["random-exchange@seed=1"] != ids["random-exchange@seed=2"]
        # The seeds axis is the seed option, one value at a time.
        assert ids["random-exchange@seed=1"] == \
            self.plan_for("random-exchange", seed=1).trace_ids[
                "random-exchange"]

    def test_the_platform_grid_does_not_move_the_id(self):
        other = plan_experiment(ExperimentSpec(
            apps=SPEC.apps, app_options=SPEC.app_options_dict(),
            bandwidths=(7.0,), topologies=("torus",),
            platform={"replay_backend": "adaptive"}))
        assert other.trace_ids == plan_experiment(SPEC).trace_ids

    def test_variant_identities_derive_from_the_original(self):
        plan = plan_experiment(SPEC)
        original = plan.original_trace("sancho-loop").digest()
        ideal = plan.variant_trace("sancho-loop", "ideal").digest()
        again = plan_experiment(SPEC).variant_trace("sancho-loop", "ideal")
        assert ideal == again.digest()
        assert ideal not in (original, content_digest(again))

    @pytest.mark.parametrize("inject", ["apps", "environment"])
    def test_injected_plans_keep_content_keys(self, inject):
        app = SanchoLoop(**SPEC.app_options_dict())
        injected = ({"apps": [app]} if inject == "apps"
                    else {"environment": build_environment(SPEC)})
        plan = plan_experiment(SPEC, **injected)
        assert plan.trace_ids == {}
        content = OverlapStudyEnvironment().trace(app).digest()
        ids = plan.variant_ids()
        expected = [CellKey.compute(content, task.platform, ids[task.variant])
                    for task in plan.tasks]
        assert plan.cell_keys() == expected
        derived = {key.digest for key in plan_experiment(SPEC).cell_keys()}
        assert derived.isdisjoint(key.digest for key in expected)


class TestIdentityMemos:
    """Adopted identities let a repeated cold run reuse per-trace work."""

    ADAPTIVE_SPEC = ExperimentSpec(
        apps=("sancho-loop",),
        app_options={"num_ranks": 4, "iterations": 2},
        bandwidths=(50.0, 500.0),
        eager_thresholds=(16384, 262144),
        chunking={"policy": "fixed-count", "count": 4},
        platform={"replay_backend": "adaptive"})

    @pytest.mark.parametrize("with_store", [False, True])
    def test_second_cold_run_reuses_window_facts(self, tmp_path, monkeypatch,
                                                 with_store):
        monkeypatch.setattr(windows, "_FACTS_MEMO", {})

        def cold_store(name):
            return FileResultStore(tmp_path / name) if with_store else None

        first = run_experiment(self.ADAPTIVE_SPEC, store=cold_store("first"))
        calls = []
        compute = windows._compute_facts

        def counting(trace, *args):
            calls.append(args)
            return compute(trace, *args)

        monkeypatch.setattr(windows, "_compute_facts", counting)
        second = run_experiment(self.ADAPTIVE_SPEC, store=cold_store("second"))
        assert calls == []
        assert stable(second) == stable(first)


class TestPreview:
    def test_statuses_track_the_store(self, tmp_path):
        store = FileResultStore(tmp_path)
        assert preview_experiment(SPEC).statuses == ["uncached"] * 4

        cold = preview_experiment(SPEC, store=store)
        assert cold.statuses == ["miss"] * 4 and cold.misses == 4

        run_experiment(SPEC, store=store)
        warm = preview_experiment(SPEC, store=store)
        assert warm.statuses == ["hit"] * 4 and warm.hits == 4


class TestCohortGrouping:
    """group_cohorts batches adaptive grid slices; everything else is inert."""

    ADAPTIVE_SPEC = ExperimentSpec(
        apps=("sancho-loop",),
        app_options={"num_ranks": 4, "iterations": 2},
        bandwidths=(50.0, 500.0, 5000.0),
        chunking={"policy": "fixed-count", "count": 4},
        platform={"replay_backend": "adaptive", "num_buses": 0,
                  "input_links": 0, "output_links": 0})

    def test_adaptive_grid_becomes_one_cohort_per_variant(self):
        from repro.core.executor import CohortTask
        from repro.experiments.plan import group_cohorts

        plan = plan_experiment(self.ADAPTIVE_SPEC)
        traces = plan.traces_for(plan.tasks)
        units = group_cohorts(plan.tasks, traces)
        cohorts = [unit for unit in units if isinstance(unit, CohortTask)]
        assert len(cohorts) == len(plan.variant_labels)
        assert all(cohort.width == 3 for cohort in cohorts)
        grouped = {task.index for cohort in cohorts for task in cohort.tasks}
        assert grouped == {task.index for task in plan.tasks}

    def test_default_event_backend_stays_per_cell(self):
        from repro.experiments.plan import group_cohorts

        plan = plan_experiment(SPEC)
        traces = plan.traces_for(plan.tasks)
        assert group_cohorts(plan.tasks, traces) == list(plan.tasks)

    def test_lone_proven_cell_stays_per_cell(self):
        # One proven member gives the vectorized walk nothing to amortize.
        from repro.experiments.plan import group_cohorts

        spec = dataclasses.replace(self.ADAPTIVE_SPEC, bandwidths=(500.0,))
        plan = plan_experiment(spec)
        traces = plan.traces_for(plan.tasks)
        assert all(windows.classify(traces[task.trace_key],
                                    task.platform).proven_exact
                   for task in plan.tasks)
        units = group_cohorts(plan.tasks, traces)
        assert units == list(plan.tasks)

    def test_grid_run_matches_per_cell_run(self, monkeypatch):
        def stable(result):
            return [{key: value for key, value in row.items()
                     if key != "task_seconds"}
                    for row in result.to_rows()]

        grid = run_experiment(self.ADAPTIVE_SPEC)
        monkeypatch.setattr(runner, "group_cohorts",
                            lambda tasks, traces: list(tasks))
        cell = run_experiment(self.ADAPTIVE_SPEC)
        assert stable(grid) == stable(cell)
