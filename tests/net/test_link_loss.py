"""Tests for the link loss model (failure injection)."""

import pytest

from repro.net.events import EventScheduler
from repro.net.link import DropTailQueue, Interface, Link


def _lossy_channel(loss_rate):
    sched = EventScheduler()
    link = Link(
        sched,
        Interface("a", "if0"),
        Interface("b", "if0"),
        bandwidth_bps=1e9,
        delay_s=1e-6,
        # loss, not queueing, under test
        queue_factory=lambda: DropTailQueue(capacity=10_000),
    )
    link.set_loss(loss_rate)
    ch = link.forward
    arrivals = []
    ch.on_deliver = lambda iface, pkt: arrivals.append(pkt)
    return sched, ch, arrivals


class TestLossModel:
    def test_no_loss_by_default(self):
        sched, ch, arrivals = _lossy_channel(0.0)
        for i in range(100):
            ch.send(i, 100)
        sched.run()
        assert len(arrivals) == 100
        assert ch.lost == 0

    def test_loss_fraction_approximates_rate(self):
        sched, ch, arrivals = _lossy_channel(0.2)
        for i in range(2000):
            ch.send(i, 100)
        sched.run()
        assert ch.lost == pytest.approx(400, rel=0.15)
        assert len(arrivals) + ch.lost == 2000

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            sched, ch, arrivals = _lossy_channel(0.3)
            for i in range(200):
                ch.send(i, 100)
            sched.run()
            results.append(list(arrivals))
        assert results[0] == results[1]

    def test_lost_packets_still_occupy_the_wire(self):
        """Loss happens after transmission: the sender still spent the
        serialization time (as on a real lossy wire)."""
        sched, ch, arrivals = _lossy_channel(0.5)
        for i in range(50):
            ch.send(i, 100)
        sched.run()
        assert ch.tx_packets == 50  # all transmitted
        assert ch.lost + len(arrivals) == 50

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            _lossy_channel(1.0)
        with pytest.raises(ValueError):
            _lossy_channel(-0.1)

    def test_link_directions_lose_independently(self):
        sched = EventScheduler()
        link = Link(
            sched,
            Interface("a", "if0"),
            Interface("b", "if0"),
            bandwidth_bps=1e9,
            delay_s=1e-6,
        )
        link.set_loss(0.5)
        fwd, rev = [], []
        link.forward.on_deliver = lambda i, p: fwd.append(p)
        link.reverse.on_deliver = lambda i, p: rev.append(p)
        for i in range(100):
            link.forward.send(i, 100)
            link.reverse.send(i, 100)
        sched.run()
        # different seeds per direction: loss patterns differ
        assert fwd != rev
