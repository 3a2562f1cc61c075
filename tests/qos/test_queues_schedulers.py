"""Tests for the CoS schedulers."""

import pytest

from repro.qos.scheduler import PriorityScheduler, WFQScheduler


class TestPriorityScheduler:
    def test_higher_cos_first(self):
        s = PriorityScheduler()
        s.enqueue("low", cos=1)
        s.enqueue("high", cos=6)
        s.enqueue("mid", cos=3)
        assert s.dequeue() == "high"
        assert s.dequeue() == "mid"
        assert s.dequeue() == "low"

    def test_fifo_within_class(self):
        s = PriorityScheduler()
        s.enqueue("a", cos=2)
        s.enqueue("b", cos=2)
        assert s.dequeue() == "a"

    def test_starvation_is_possible(self):
        """Strict priority's known property: high load starves low."""
        s = PriorityScheduler(capacity_per_class=4)
        for i in range(3):
            s.enqueue(f"hi{i}", cos=7)
        s.enqueue("lo", cos=0)
        out = [s.dequeue() for _ in range(3)]
        assert "lo" not in out

    def test_per_class_capacity(self):
        s = PriorityScheduler(capacity_per_class=1)
        assert s.enqueue("a", cos=3)
        assert not s.enqueue("b", cos=3)
        assert s.enqueue("c", cos=4)  # other class unaffected
        assert s.dropped_by_cos == {3: 1}

    def test_cos_clamped(self):
        s = PriorityScheduler()
        s.enqueue("x", cos=99)
        assert s.depth(7) == 1

    def test_empty(self):
        assert PriorityScheduler().dequeue() is None

    def test_len(self):
        s = PriorityScheduler()
        s.enqueue("a", cos=1)
        s.enqueue("b", cos=5)
        assert len(s) == 2


class TestWFQScheduler:
    def test_weighted_shares(self):
        """Class 5 with 3x weight drains ~3x the bytes of class 1."""
        s = WFQScheduler(weights={5: 3.0, 1: 1.0}, capacity_per_class=200,
                         quantum_unit=1000)
        for i in range(100):
            s.enqueue((f"hi{i}", 1000), cos=5)
            s.enqueue((f"lo{i}", 1000), cos=1)
        first40 = [s.dequeue() for _ in range(40)]
        hi = sum(1 for item, _ in first40 if item.startswith("hi"))
        lo = len(first40) - hi
        assert hi == pytest.approx(30, abs=5)
        assert lo > 0  # no starvation

    def test_equal_weights_alternate(self):
        s = WFQScheduler(quantum_unit=1500)
        for i in range(4):
            s.enqueue((f"a{i}", 1500), cos=1)
            s.enqueue((f"b{i}", 1500), cos=2)
        out = [s.dequeue()[0][0] for _ in range(8)]
        assert out.count("a") == 4
        assert out.count("b") == 4

    def test_small_weight_still_served(self):
        s = WFQScheduler(weights={0: 0.1, 7: 1.0}, quantum_unit=1500)
        s.enqueue(("lo", 1500), cos=0)
        for i in range(5):
            s.enqueue((f"hi{i}", 1500), cos=7)
        out = [s.dequeue() for _ in range(6)]
        assert ("lo", 1500) in out

    def test_per_class_capacity(self):
        s = WFQScheduler(capacity_per_class=1)
        assert s.enqueue(("a", 100), cos=1)
        assert not s.enqueue(("b", 100), cos=1)
        assert s.dropped == 1

    def test_bare_items_accepted(self):
        s = WFQScheduler()
        s.enqueue("bare", cos=0)
        assert s.dequeue() == "bare"

    def test_empty(self):
        assert WFQScheduler().dequeue() is None

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            WFQScheduler(weights={9: 1.0})
        with pytest.raises(ValueError):
            WFQScheduler(weights={1: 0})
