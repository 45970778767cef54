"""Edge cases of the drain-loop skip-ahead and the bootstrap scheduling
primitive the collapsing network fabric is built on."""

import pytest

from repro.des import Environment
from repro.des.exceptions import EmptySchedule


class TestSimultaneousEventsDuringSkip:
    def test_push_order_preserved_at_the_same_instant(self):
        # Same-instant timeouts taken by the skip-ahead path are processed
        # in push (eid) order, exactly as without skip-ahead.
        env = Environment()
        order = []
        for label in ("first", "second", "third"):
            env.schedule_timeout(1.0).callbacks.append(
                lambda event, label=label: order.append(label))
        env.run()
        assert order == ["first", "second", "third"]

    def test_urgent_event_pushed_during_skip_overtakes_normal(self):
        # A callback running inside the skip-ahead path can push an URGENT
        # event at the current instant; it must still overtake NORMAL
        # events already queued for that instant.
        env = Environment()
        order = []

        def push_urgent(event):
            order.append("timeout")
            bootstrap = env.schedule_bootstrap(
                lambda ev: order.append("urgent"))
            assert bootstrap.triggered

        env.schedule_timeout(1.0).callbacks.append(push_urgent)
        env.schedule_timeout(1.0).callbacks.append(
            lambda event: order.append("normal"))
        env.run()
        assert order == ["timeout", "urgent", "normal"]


class TestUntilDuringSkip:
    def test_until_event_succeeded_by_a_timeout_callback_stops_the_run(self):
        env = Environment()
        stop = env.event(name="stop")
        late = []
        env.schedule_timeout(1.0).callbacks.append(
            lambda event: stop.succeed("done"))
        env.schedule_timeout(2.0).callbacks.append(
            lambda event: late.append(env.now))
        assert env.run(until=stop) == "done"
        # The run stopped at the until-event; the later timeout is intact.
        assert late == []
        assert env.now == 1.0
        env.run()
        assert late == [2.0]

    def test_until_time_between_timeouts(self):
        env = Environment()
        fired = []
        env.schedule_timeout(1.0).callbacks.append(
            lambda event: fired.append(1.0))
        env.schedule_timeout(3.0).callbacks.append(
            lambda event: fired.append(3.0))
        env.run(until=2.0)
        assert fired == [1.0]
        assert env.now == 2.0


class TestEmptyQueueAfterSkip:
    def test_drain_ends_cleanly_when_last_event_is_a_timeout(self):
        env = Environment()
        fired = []
        env.schedule_timeout(1.0).callbacks.append(
            lambda event: fired.append(env.now))
        assert env.run() is None
        assert fired == [1.0]
        with pytest.raises(EmptySchedule):
            env.step()

    def test_until_event_never_triggered_raises(self):
        env = Environment()
        stop = env.event(name="never")
        env.schedule_timeout(1.0)
        with pytest.raises(EmptySchedule, match="until"):
            env.run(until=stop)


class TestScheduleBootstrap:
    def test_callback_sees_the_value_and_runs_at_now(self):
        env = Environment()
        env.schedule_timeout(1.0)
        env.run()
        seen = []
        env.schedule_bootstrap(
            lambda event: seen.append((env.now, event._value)), value=("a", 1))
        env.run()
        assert seen == [(1.0, ("a", 1))]

    def test_pops_before_normal_events_queued_earlier(self):
        # The bootstrap slot must match an Initialize of a process started
        # now: urgent, so it overtakes same-instant NORMAL events even if
        # they were pushed first.
        env = Environment()
        order = []
        env.schedule_timeout(0.0).callbacks.append(
            lambda event: order.append("normal"))
        env.schedule_bootstrap(lambda event: order.append("bootstrap"))
        env.run()
        assert order == ["bootstrap", "normal"]
