"""Property-based tests of the QoS elements' invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import DropTailQueue
from repro.qos.scheduler import PriorityScheduler, WFQScheduler

sizes = st.integers(min_value=1, max_value=2000)
cos_values = st.integers(min_value=0, max_value=7)


class TestSchedulerProperties:
    @given(st.lists(st.tuples(st.integers(), cos_values), max_size=60))
    def test_priority_is_work_conserving(self, items):
        s = PriorityScheduler(capacity_per_class=100)
        for item, cos in items:
            s.enqueue(item, cos)
        drained = 0
        while s.dequeue() is not None:
            drained += 1
        assert drained == len(items)
        assert not any(s._queues)

    @given(st.lists(st.tuples(st.integers(), cos_values), max_size=60))
    def test_priority_never_dequeues_lower_before_higher(self, items):
        s = PriorityScheduler(capacity_per_class=100)
        tagged = [((i, item), cos) for i, (item, cos) in enumerate(items)]
        by_item = {key: cos for key, cos in tagged}
        for key, cos in tagged:
            s.enqueue(key, cos)
        prev_cos = 8
        while True:
            key = s.dequeue()
            if key is None:
                break
            cos = by_item[key]
            assert cos <= prev_cos
            prev_cos = cos

    @settings(max_examples=30)
    @given(
        st.lists(st.tuples(sizes, cos_values), min_size=1, max_size=40),
        st.dictionaries(cos_values, st.floats(min_value=0.1, max_value=8),
                        max_size=8),
    )
    def test_wfq_is_work_conserving(self, items, weights):
        s = WFQScheduler(weights=weights, capacity_per_class=100)
        for i, (size, cos) in enumerate(items):
            s.enqueue((i, size), cos)
        drained = 0
        while s.dequeue() is not None:
            drained += 1
        assert drained == len(items)

    @given(st.lists(st.tuples(sizes, cos_values), max_size=40))
    def test_wfq_fifo_within_class(self, items):
        s = WFQScheduler(capacity_per_class=100)
        for i, (size, cos) in enumerate(items):
            s.enqueue(((i, cos), size), cos)
        seen_per_class = {}
        while True:
            out = s.dequeue()
            if out is None:
                break
            (i, cos), _size = out
            last = seen_per_class.get(cos, -1)
            assert i > last
            seen_per_class[cos] = i


class TestDropTailProperties:
    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(st.booleans(), max_size=80),
    )
    def test_accepts_in_order_and_counts_every_drop(self, capacity, ops):
        # each op is an offer (True) or a drain (False)
        q = DropTailQueue(capacity=capacity)
        offered, accepted, drained = 0, [], []
        for offer in ops:
            if offer:
                if q.enqueue(offered):
                    accepted.append(offered)
                offered += 1
            elif (item := q.dequeue()) is not None:
                drained.append(item)
            assert len(q) <= capacity
        while (item := q.dequeue()) is not None:
            drained.append(item)
        assert drained == accepted
        assert len(accepted) + q.dropped == offered
