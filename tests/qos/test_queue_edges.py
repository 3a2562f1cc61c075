"""Edge-case tests for the link's discard queue: capacity 1 and bursts."""

import pytest

from repro.net.link import DropTailQueue


@pytest.mark.parametrize("cls", [DropTailQueue])
class TestCapacityOne:
    def test_holds_exactly_one(self, cls):
        q = cls(capacity=1)
        assert q.enqueue("a")
        assert not q.enqueue("b")
        assert q.dequeue() == "a"
        assert q.dequeue() is None

    def test_drains_and_refills(self, cls):
        q = cls(capacity=1)
        for i in range(5):
            assert q.enqueue(i)
            assert q.dequeue() == i
        assert q.dropped == 0

    def test_burst_drops_all_but_one(self, cls):
        q = cls(capacity=1)
        accepted = sum(1 for i in range(100) if q.enqueue(i))
        assert accepted == 1
        assert q.dropped == 99
        assert len(q) == 1


class TestDropTail:
    def test_fifo(self):
        q = DropTailQueue(capacity=4)
        for item in "abc":
            assert q.enqueue(item, cos=ord(item) % 8)
        assert [q.dequeue() for _ in range(4)] == ["a", "b", "c", None]

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_capacity_validation(self, capacity):
        with pytest.raises(ValueError, match="queue capacity must be >= 1"):
            DropTailQueue(capacity=capacity)
