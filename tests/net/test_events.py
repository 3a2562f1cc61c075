"""Tests for the discrete event scheduler."""

import functools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.events import EventScheduler


class TestEventScheduler:
    def test_runs_in_time_order(self):
        sched = EventScheduler()
        order = []
        sched.at(3.0, lambda: order.append("c"))
        sched.at(1.0, lambda: order.append("a"))
        sched.at(2.0, lambda: order.append("b"))
        sched.run()
        assert order == ["a", "b", "c"]

    def test_equal_times_fire_in_schedule_order(self):
        sched = EventScheduler()
        order = []
        for i in range(5):
            sched.at(1.0, lambda i=i: order.append(i))
        sched.run()
        assert order == [0, 1, 2, 3, 4]

    def test_now_advances(self):
        sched = EventScheduler()
        times = []
        sched.at(2.5, lambda: times.append(sched.now))
        sched.run()
        assert times == [2.5]
        assert sched.now == 2.5

    def test_after_relative(self):
        sched = EventScheduler()
        hits = []
        sched.at(1.0, lambda: sched.after(0.5, lambda: hits.append(sched.now)))
        sched.run()
        assert hits == [1.5]

    def test_cannot_schedule_in_past(self):
        sched = EventScheduler()
        sched.at(5.0, lambda: None)
        sched.run()
        with pytest.raises(ValueError):
            sched.at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventScheduler().after(-1, lambda: None)

    def test_run_until_stops(self):
        sched = EventScheduler()
        hits = []
        sched.at(1.0, lambda: hits.append(1))
        sched.at(10.0, lambda: hits.append(10))
        sched.run(until=5.0)
        assert hits == [1]
        assert sched.now == 5.0
        sched.run()
        assert hits == [1, 10]

    def test_cancel(self):
        sched = EventScheduler()
        hits = []
        event = sched.at(1.0, lambda: hits.append(1))
        sched.cancel(event)
        sched.run()
        assert hits == []

    def test_pending_count(self):
        sched = EventScheduler()
        e1 = sched.at(1.0, lambda: None)
        sched.at(2.0, lambda: None)
        assert sched.pending == 2
        sched.cancel(e1)
        assert sched.pending == 1

    def test_step(self):
        sched = EventScheduler()
        hits = []
        sched.at(1.0, lambda: hits.append(1))
        assert sched.step() is True
        assert hits == [1]
        assert sched.step() is False

    def test_event_budget(self):
        sched = EventScheduler()

        def reschedule():
            sched.after(0.001, reschedule)

        sched.at(0.0, reschedule)
        with pytest.raises(RuntimeError):
            sched.run(max_events=100)

    def test_processed_counter(self):
        sched = EventScheduler()
        for i in range(7):
            sched.at(float(i), lambda: None)
        sched.run()
        assert sched.processed == 7

    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=50))
    def test_monotonic_time_property(self, times):
        sched = EventScheduler()
        seen = []
        for t in times:
            sched.at(t, lambda: seen.append(sched.now))
        sched.run()
        assert seen == sorted(seen)
        assert len(seen) == len(times)


class TestCancelAndBudgetRegressions:
    def test_cancel_after_fired_is_a_noop(self):
        sched = EventScheduler()
        event = sched.at(1.0, lambda: None)
        sched.run()
        sched.cancel(event)
        assert sched.pending == 0
        later = sched.at(2.0, lambda: None)
        assert sched.pending == 1
        assert sched.run() == 1
        sched.cancel(later)
        assert sched.pending == 0

    def test_repeated_cancel_counts_once(self):
        sched = EventScheduler()
        hits = []
        event = sched.at(1.0, lambda: hits.append(1))
        sched.at(2.0, lambda: hits.append(2))
        sched.cancel(event)
        sched.cancel(event)
        assert sched.pending == 1
        assert sched.run() == 1
        assert hits == [2]
        assert sched.pending == 0

    def test_callback_cancelling_its_own_event(self):
        sched = EventScheduler()
        handle = []
        handle.append(sched.at(1.0, lambda: sched.cancel(handle[0])))
        sched.at(2.0, lambda: None)
        assert sched.run() == 2
        assert sched.pending == 0

    @given(
        st.lists(st.integers(0, 5), max_size=12),
        st.lists(st.tuples(st.integers(0, 11), st.booleans()), max_size=24),
    )
    def test_pending_never_negative(self, times, script):
        """Any interleaving of cancels (of queued, fired and cancelled
        events) and steps keeps ``pending`` equal to the live count."""
        sched = EventScheduler()
        fired = []
        events = [
            sched.at(float(t), lambda i=i: fired.append(i))
            for i, t in enumerate(times)
        ]
        live = set(range(len(events)))
        for index, do_step in script:
            if do_step:
                sched.step()
                live -= set(fired)
            elif index < len(events):
                sched.cancel(events[index])
                live.discard(index)
            assert sched.pending == len(live) >= 0
        sched.run()
        assert sched.pending == 0 and not sched._cancelled

    def test_budget_equal_to_the_queue_is_enough(self):
        sched = EventScheduler()
        for i in range(5):
            sched.at(float(i), lambda: None)
        assert sched.run(max_events=5) == 5

    def test_budget_spent_with_an_event_due_raises(self):
        sched = EventScheduler()
        for i in range(6):
            sched.at(float(i), lambda: None)
        with pytest.raises(RuntimeError) as exc:
            sched.run(max_events=5)
        assert str(exc.value) == "event budget of 5 exhausted at t=4.0"
        assert sched.processed == 5 and sched.pending == 1

    def test_budget_spent_with_nothing_due_before_until(self):
        sched = EventScheduler()
        for t in (1.0, 2.0, 9.0):
            sched.at(t, lambda: None)
        assert sched.run(until=5.0, max_events=2) == 2
        assert sched.now == 5.0

    def test_budget_ignores_a_cancelled_head(self):
        sched = EventScheduler()
        sched.at(1.0, lambda: None)
        sched.cancel(sched.at(2.0, lambda: None))
        assert sched.run(max_events=1) == 1

    def test_nan_timestamp_rejected(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            sched.at(math.nan, lambda: None)
        with pytest.raises(ValueError):
            sched.after(math.nan, lambda: None)
        assert sched.pending == 0

    def test_past_and_negative_messages(self):
        sched = EventScheduler()
        sched.at(5.0, lambda: None)
        sched.run()
        with pytest.raises(ValueError) as exc:
            sched.at(1.0, lambda: None)
        assert str(exc.value) == (
            "cannot schedule at 1.0 before current time 5.0"
        )
        with pytest.raises(ValueError) as exc:
            sched.after(-1, lambda: None)
        assert str(exc.value) == "negative delay -1"


class _Recorder:
    """Bound methods of one instance: callables with no ordering."""

    def __init__(self, log, tag):
        self.log, self.tag = log, tag

    def fire(self):
        self.log.append(self.tag)


def _callable_for(kind, log, tag):
    if kind == 0:
        return lambda: log.append(tag)
    if kind == 1:
        return _Recorder(log, tag).fire
    return functools.partial(log.append, tag)


class TestOrderingContract:
    #: few distinct times, so most schedules are full of ties
    schedules = st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 7.25]),
            st.integers(0, 2),  # lambda / bound method / partial
            st.integers(0, 3),  # events the callback schedules at `now`
        ),
        max_size=40,
    )

    @given(schedules)
    def test_fires_sorted_by_time_then_schedule_order(self, schedule):
        sched = EventScheduler()
        log = []
        expected = []  # (time, schedule order, tag)
        order = iter(range(10**6))

        def spawning(tag, children, inner):
            def fire():
                inner()
                for child in range(children):
                    child_tag = (tag, child)
                    expected.append((sched.now, next(order), child_tag))
                    sched.after(
                        0.0, _callable_for(child % 3, log, child_tag)
                    )
            return fire

        for tag, (time, kind, children) in enumerate(schedule):
            expected.append((time, next(order), tag))
            fn = _callable_for(kind, log, tag)
            # equal times and un-orderable callables: the heap must
            # never fall through to comparing ``fn``
            handle = sched.at(time, spawning(tag, children, fn))
            assert handle.time == time and callable(handle.fn)
            assert handle.seq == expected[-1][1]
        count = sched.run()
        assert log == [tag for _, _, tag in sorted(expected)]
        assert count == len(expected) == sched.processed
        assert sched.now == max([t for t, _, _ in expected], default=0.0)
        assert sched.pending == 0

    @given(schedules, st.sampled_from([0.25, 1.0, 3.0, 10.0]))
    def test_run_until_return_value_now_and_processed(self, schedule, until):
        sched = EventScheduler()
        log = []
        for tag, (time, kind, _) in enumerate(schedule):
            sched.at(time, _callable_for(kind, log, tag))
        due = sorted(
            (time, tag) for tag, (time, _, _) in enumerate(schedule)
            if time <= until
        )
        assert sched.run(until=until) == len(due)
        assert log == [tag for _, tag in due]
        assert sched.processed == len(due)
        assert sched.now == until
        assert sched.pending == len(schedule) - len(due)
        assert sched.run() == len(schedule) - len(due)

    def test_handle_exposes_time_seq_fn(self):
        sched = EventScheduler()

        def fn():
            return None

        first = sched.at(1.5, fn)
        second = sched.after(1.5, fn)
        assert (first.time, first.seq, first.fn) == (1.5, 0, fn)
        assert (second.time, second.seq, second.fn) == (1.5, 1, fn)

    def test_cancelled_head_skipped_by_run_and_step(self):
        for drain in ("run", "step"):
            sched = EventScheduler()
            hits = []
            head = sched.at(1.0, lambda: hits.append("head"))
            sched.at(1.0, lambda: hits.append("tie"))
            sched.at(2.0, lambda: hits.append("late"))
            sched.cancel(head)
            if drain == "run":
                assert sched.run() == 2
            else:
                assert sched.step() is True and hits == ["tie"]
                assert sched.step() is True
                assert sched.step() is False
            assert hits == ["tie", "late"]
            assert sched.processed == 2 and sched.now == 2.0
