"""Regression tests for the replay-core hardening fixes.

* :meth:`CollectiveCoordinator.enter` must fail loudly when more entries
  arrive for a collective than the trace has ranks (mismatched collective
  counts), instead of silently over-counting and hanging;
* :meth:`SimulationResult.max_compute_time` must tolerate an empty rank
  list instead of raising a bare ``ValueError``;
* every interpreter -- the DES, the lane walk (per cell and as a cohort)
  and the paced mode -- reports a deadlock with the same text, naming
  each stuck rank, its record position and the record there.
"""

import pytest

from repro.des import Environment
from repro.dimemas import replay
from repro.dimemas.platform import Platform
from repro.dimemas.replay import CollectiveCoordinator, ReplayEngine, lane_walk
from repro.dimemas.results import SimulationResult
from repro.dimemas.windows import WindowPlan
from repro.errors import SimulationError
from repro.paraver.timeline import Timeline
from repro.tracing.records import CollectiveRecord, CpuBurst, RecvRecord
from repro.tracing.trace import RankTrace, Trace


@pytest.fixture
def coordinator():
    return CollectiveCoordinator(Environment(), Platform(), num_ranks=2)


class TestCollectiveOverSubscription:
    def test_exact_count_completes(self, coordinator):
        record = CollectiveRecord(operation="barrier")
        instance = coordinator.enter(0, record, 0)
        coordinator.enter(1, record, 0)
        assert instance.count == 2
        assert instance.all_arrived.triggered

    def test_extra_entry_raises_instead_of_hanging(self, coordinator):
        record = CollectiveRecord(operation="barrier")
        coordinator.enter(0, record, 0)
        coordinator.enter(1, record, 0)
        with pytest.raises(SimulationError, match="entries for 2 ranks"):
            coordinator.enter(0, record, 0)

    def test_mismatched_operation_still_raises(self, coordinator):
        coordinator.enter(0, CollectiveRecord(operation="barrier"), 0)
        with pytest.raises(SimulationError, match="entered"):
            coordinator.enter(1, CollectiveRecord(operation="allreduce"), 0)


class TestMaxComputeTime:
    def test_empty_rank_list_defaults_to_zero(self):
        result = SimulationResult(
            platform=Platform(), total_time=0.0, ranks=[],
            timeline=Timeline(num_ranks=1))
        assert result.max_compute_time() == 0.0


def _deadlocking_trace():
    """Both ranks receive first: no send is ever posted."""
    records = [[CpuBurst(instructions=1.0e6), RecvRecord(src=1, size=100)],
               [RecvRecord(src=0, size=100)]]
    return Trace(ranks=[RankTrace(rank=rank, records=rank_records)
                        for rank, rank_records in enumerate(records)],
                 mips=1000.0, metadata={"name": "deadlock"})


def _claim(monkeypatch, proven_windows):
    """Make the classifier vouch for the trace (it normally proves the
    deadlock and sends the cell to the DES)."""
    plan = WindowPlan(viable=True, fast_forward=True, reason=None,
                      network_uncontended=True, num_windows=1,
                      proven_windows=proven_windows, internode_messages=0,
                      intranode_messages=0)
    monkeypatch.setattr(replay, "classify", lambda trace, platform: plan)


class TestDeadlockReport:
    PLATFORM = Platform(num_buses=0, input_links=0, output_links=0,
                        replay_backend="adaptive")
    TRACE = _deadlocking_trace()
    EXPECTED = (f"replay deadlocked: rank 0 stuck at record 1 "
                f"({TRACE[0].records[1]!r}); rank 1 stuck at record 0 "
                f"({TRACE[1].records[0]!r}); unmatched postings: "
                f"{{'sends': 0, 'recvs': 2}}")

    def _message(self, platform):
        with pytest.raises(SimulationError) as caught:
            ReplayEngine(self.TRACE, platform).run()
        return str(caught.value)

    def test_des(self):
        assert self._message(
            self.PLATFORM.with_replay_backend("event")) == self.EXPECTED

    def test_lane_walk(self, monkeypatch):
        _claim(monkeypatch, proven_windows=1)
        assert self._message(self.PLATFORM) == self.EXPECTED

    def test_lane_walk_cohort(self):
        with pytest.raises(SimulationError) as caught:
            lane_walk(self.TRACE, [self.PLATFORM, self.PLATFORM])
        assert str(caught.value) == self.EXPECTED

    def test_paced_mode(self, monkeypatch):
        _claim(monkeypatch, proven_windows=0)
        assert self._message(self.PLATFORM) == self.EXPECTED
