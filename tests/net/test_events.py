"""Tests for the discrete event scheduler."""

import ast
import functools
import math
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.net.events import Event, EventScheduler


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


class TestEventsCarryTheirArguments:
    """``at/after(when, fn, *args)`` is the closure ``lambda: fn(*args)``
    without the closure: same events, same order, same counters."""

    #: (time, how many equal-time children the callback schedules)
    schedules = st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 7.25]),
            st.integers(0, 3),
        ),
        max_size=40,
    )

    @staticmethod
    def _drive(schedule, with_args, cancel=(), until=None, max_events=None):
        """Issue ``schedule`` one way or the other; return everything
        observable: firing order, handles, counters, the budget error."""
        sched = EventScheduler()
        log, handles = [], []

        def fire(tag, children):
            log.append((sched.now, tag))
            for child in range(children):
                if with_args:
                    sched.after(0.0, fire, (tag, child), 0)
                else:
                    sched.after(0.0, lambda c=child: fire((tag, c), 0))

        for tag, (time, children) in enumerate(schedule):
            if with_args:
                handles.append(sched.at(time, fire, tag, children))
            else:
                handles.append(
                    sched.at(time, lambda t=tag, n=children: fire(t, n))
                )
        for index in cancel:
            if index < len(handles):
                sched.cancel(handles[index])
        pending_before = sched.pending
        kwargs = {} if max_events is None else {"max_events": max_events}
        try:
            returned = sched.run(until=until, **kwargs)
        except RuntimeError as exc:
            returned = str(exc)
        return (
            log, [(h.time, h.seq) for h in handles], pending_before,
            returned, sched.processed, sched.pending, sched.now,
        )

    @given(
        schedules,
        st.lists(st.integers(0, 39), max_size=8),
        st.sampled_from([None, 0.25, 1.0, 3.0]),
        st.sampled_from([None, 0, 1, 5, 1000]),
    )
    def test_closures_and_arguments_are_the_same_run(
        self, schedule, cancel, until, max_events
    ):
        as_closures = self._drive(schedule, False, cancel, until, max_events)
        as_arguments = self._drive(schedule, True, cancel, until, max_events)
        assert as_arguments == as_closures

    def test_arguments_reach_the_callback_in_order(self):
        sched = EventScheduler()
        got = []
        sched.at(1.0, lambda *a: got.append(a), 1, "two", None)
        sched.after(2.0, got.append, "one argument")
        sched.at(3.0, lambda: got.append("none"))
        assert sched.step() and sched.run() == 2
        assert got == [(1, "two", None), "one argument", "none"]

    def test_handle_carries_fn_and_args(self):
        sched = EventScheduler()
        handle = sched.after(1.5, print, "a", 2)
        assert type(handle) is Event
        assert handle == (1.5, 0, print, ("a", 2))
        assert (handle.fn, handle.args) == (print, ("a", 2))
        assert sched.at(2.0, print).args == ()

    def test_three_field_event_still_constructs(self):
        event = Event(1.0, 4, print)
        assert event.args == () and event == (1.0, 4, print, ())
        assert Event(time=1.0, seq=4, fn=print, args=(1,)).args == (1,)

    def test_cancel_by_a_reconstructed_handle(self):
        sched = EventScheduler()
        hits = []
        handle = sched.at(1.0, hits.append, "x")
        sched.cancel(Event(*handle))
        assert sched.pending == 0 and sched.run() == 0 and hits == []


#: the per-packet and per-message schedulers: a closure per event there
#: is the allocation this rule removed; the fault injector's floods
#: schedule one event per forged packet or message
CLOSURE_FREE = (
    "net/link.py", "net/network.py", "control/ldp_sessions.py",
    "faults/injector.py",
)


def _closures_handed_to_the_scheduler(source: str):
    """(line, what) for every ``<...>scheduler.at/after(...)`` call that
    is given a ``lambda`` or a function defined inside the caller."""
    found = []
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nested = {
            node.name
            for node in ast.walk(outer)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not outer
        }
        for call in ast.walk(outer):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in ("at", "after")
                and ast.unparse(call.func.value).endswith("scheduler")
            ):
                continue
            for arg in list(call.args) + [k.value for k in call.keywords]:
                if isinstance(arg, ast.Lambda):
                    found.append((call.lineno, "lambda"))
                elif isinstance(arg, ast.Name) and arg.id in nested:
                    found.append((call.lineno, f"nested def {arg.id}"))
    return sorted(set(found))


class TestNoClosurePerEvent:
    @pytest.mark.parametrize("relative", CLOSURE_FREE)
    def test_hot_schedulers_hand_over_fn_and_arguments(self, relative):
        path = os.path.join(os.path.dirname(repro.__file__), relative)
        with open(path) as fh:
            source = fh.read()
        assert "scheduler.after(" in source  # the lint has something to see
        assert _closures_handed_to_the_scheduler(source) == []

    def test_the_lint_sees_both_shapes(self):
        source = (
            "class C:\n"
            "    def send(self, p):\n"
            "        def done():\n"
            "            self.arrive(p)\n"
            "        self.scheduler.after(1.0, lambda: self.arrive(p))\n"
            "        self.scheduler.at(2.0, done)\n"
            "        self.scheduler.after(3.0, self.arrive, p)\n"
        )
        assert _closures_handed_to_the_scheduler(source) == [
            (5, "lambda"), (6, "nested def done"),
        ]
