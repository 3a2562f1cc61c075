"""Tests for links, channels and the drop-tail queue."""

import pytest

from repro.net.events import EventScheduler
from repro.net.link import DropTailQueue, Interface, Link, SimplexChannel


class TestDropTailQueue:
    def test_fifo_order(self):
        q = DropTailQueue(capacity=4)
        for i in range(3):
            assert q.enqueue(i)
        assert [q.dequeue() for _ in range(3)] == [0, 1, 2]

    def test_overflow_drops(self):
        q = DropTailQueue(capacity=2)
        assert q.enqueue(1) and q.enqueue(2)
        assert not q.enqueue(3)
        assert q.dropped == 1

    def test_empty_dequeue(self):
        assert DropTailQueue().dequeue() is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity=0)


class TestSimplexChannel:
    def _channel(self, bandwidth=8000.0, delay=0.1):
        sched = EventScheduler()
        ch = SimplexChannel(
            sched,
            Interface("a", "if0"),
            Interface("b", "if0"),
            bandwidth_bps=bandwidth,
            delay_s=delay,
        )
        arrivals = []
        ch.on_deliver = lambda iface, pkt: arrivals.append(
            (sched.now, iface, pkt)
        )
        return sched, ch, arrivals

    def test_delivery_time(self):
        # 100 bytes at 8000 bps = 0.1 s tx + 0.1 s prop = 0.2 s
        sched, ch, arrivals = self._channel()
        ch.send("pkt", 100)
        sched.run()
        assert len(arrivals) == 1
        t, iface, pkt = arrivals[0]
        assert pkt == "pkt"
        assert iface.node == "b"
        assert t == pytest.approx(0.2)

    def test_serialization_queueing(self):
        """Two back-to-back packets: the second waits for the first's
        transmission (but propagation overlaps)."""
        sched, ch, arrivals = self._channel()
        ch.send("p1", 100)
        ch.send("p2", 100)
        sched.run()
        assert [a[0] for a in arrivals] == [
            pytest.approx(0.2),
            pytest.approx(0.3),
        ]

    def test_queue_overflow_counted(self):
        sched = EventScheduler()
        ch = SimplexChannel(
            sched,
            Interface("a", "if0"),
            Interface("b", "if0"),
            bandwidth_bps=8.0,  # 1 byte/s: everything queues
            delay_s=0.0,
            queue=DropTailQueue(capacity=1),
        )
        sent = [ch.send(f"p{i}", 10) for i in range(5)]
        # first starts transmitting immediately, second queues, rest drop
        assert sent == [True, True, False, False, False]
        assert ch.dropped == 3

    def test_stats(self):
        sched, ch, _ = self._channel()
        ch.send("p1", 100)
        sched.run()
        assert ch.tx_packets == 1
        assert ch.tx_bytes == 100

    def test_validation(self):
        sched = EventScheduler()
        a, b = Interface("a", "if0"), Interface("b", "if0")
        with pytest.raises(ValueError):
            SimplexChannel(sched, a, b, bandwidth_bps=0, delay_s=0)
        with pytest.raises(ValueError):
            SimplexChannel(sched, a, b, bandwidth_bps=1, delay_s=-1)


class TestLink:
    def test_direction_selection(self):
        sched = EventScheduler()
        link = Link(
            sched, Interface("a", "if0"), Interface("b", "if0")
        )
        assert link.channel_from("a") is link.forward
        assert link.channel_from("b") is link.reverse
        with pytest.raises(KeyError):
            link.channel_from("c")

    def test_directions_have_independent_queues(self):
        sched = EventScheduler()
        link = Link(sched, Interface("a", "if0"), Interface("b", "if0"))
        assert link.forward.queue is not link.reverse.queue

    def test_full_duplex_no_interference(self):
        sched = EventScheduler()
        link = Link(
            sched,
            Interface("a", "if0"),
            Interface("b", "if0"),
            bandwidth_bps=8000.0,
            delay_s=0.1,
        )
        arrivals = []
        link.forward.on_deliver = lambda i, p: arrivals.append((sched.now, p))
        link.reverse.on_deliver = lambda i, p: arrivals.append((sched.now, p))
        link.forward.send("fwd", 100)
        link.reverse.send("rev", 100)
        sched.run()
        # both arrive at 0.2: directions do not share the transmitter
        assert sorted(p for _, p in arrivals) == ["fwd", "rev"]
        assert all(t == pytest.approx(0.2) for t, _ in arrivals)


class TestFailureAccounting:
    """fail() loses what the channel held; drops are arrival refusals."""

    def _slow_link(self):
        sched = EventScheduler()
        # 8 kbps: a 100-byte packet occupies the transmitter for 0.1s,
        # so back-to-back sends pile up in the output queue
        link = Link(
            sched,
            Interface("a", "if0"),
            Interface("b", "if0"),
            bandwidth_bps=8000.0,
            delay_s=0.01,
        )
        return sched, link

    def test_fail_flushes_queue_as_lost_not_dropped(self):
        sched, link = self._slow_link()
        for i in range(3):
            assert link.forward.send(f"p{i}", 100)
        # p0 is transmitting; p1 and p2 sit in the queue
        link.fail()
        assert link.forward.lost == 2
        assert link.forward.dropped == 0
        assert len(link.forward.queue) == 0

    def test_send_while_down_is_a_drop_not_a_loss(self):
        sched, link = self._slow_link()
        link.fail()
        assert not link.forward.send("p", 100)
        assert link.forward.dropped == 1
        assert link.forward.lost == 0

    def test_heal_resets_nothing_but_reopens_the_channel(self):
        sched, link = self._slow_link()
        for i in range(3):
            link.forward.send(f"p{i}", 100)
        link.fail()
        link.heal()
        arrivals = []
        link.forward.on_deliver = lambda i, p: arrivals.append(p)
        assert link.forward.send("fresh", 100)
        sched.run()
        assert arrivals == ["fresh"]  # pre-failure packets stay gone
        assert link.forward.lost == 2
        assert link.forward.dropped == 0
