"""Tests for control-plane overload protection (repro.control.overload)."""

import pytest

from repro.control.ldp_sessions import LDPMessage, MessageLDPProcess, MsgType
from repro.control.overload import (
    CLASS_NAMES,
    HIGH_WATERMARK,
    LOW_WATERMARK,
    QUEUE_CAPACITY,
    IngressShedder,
    MessageClass,
    OverloadConfig,
    PriorityControlQueue,
    ShedEntry,
    classify_message,
)
from repro.mpls.router import LSRNode, RouterRole
from repro.net.events import EventScheduler
from repro.net.topology import ring
from repro.obs import Telemetry, get_telemetry


class TestClassification:
    def test_liveness_kinds(self):
        for kind in (MsgType.HELLO, MsgType.INIT, MsgType.KEEPALIVE):
            assert classify_message(kind) is MessageClass.LIVENESS

    def test_teardown_outranks_setup(self):
        assert classify_message(MsgType.LABEL_WITHDRAW) is (
            MessageClass.TEARDOWN
        )
        assert classify_message(MsgType.LABEL_MAPPING) is MessageClass.SETUP
        assert MessageClass.TEARDOWN < MessageClass.SETUP

    def test_unknown_kind_is_sheddable_bulk(self):
        assert classify_message("mystery-tlv") is MessageClass.SETUP
        assert classify_message(None) is MessageClass.SETUP

    def test_every_class_has_a_name(self):
        assert set(CLASS_NAMES) == set(MessageClass)


class TestOverloadConfig:
    def test_defaults_valid(self):
        assert OverloadConfig().enabled
        assert 0 <= LOW_WATERMARK < HIGH_WATERMARK <= QUEUE_CAPACITY

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="^overload: unknown key"):
            OverloadConfig.from_dict({"enabled": True, "typo": 1})

    @pytest.mark.parametrize(
        "raw",
        [
            # each was a knob refused for a bad value; now a constant
            {"queue_capacity": 0},
            {"high_watermark": 40},
            {"low_watermark": 24, "high_watermark": 24},
            {"service_time_s": 0.0},
            {"hold_time": 0.0},
            {"retry_jitter": 1.0},
            {"shed_low": 0.5, "shed_high": 0.5},
            {"shed_hysteresis": 0},
            {"max_shed_fraction": 1.5},
            {"shed_period": 0.0},
        ],
    )
    def test_a_removed_knob_is_refused(self, raw):
        names = ", ".join(sorted(raw))
        with pytest.raises(ValueError) as refused:
            OverloadConfig.from_dict(raw)
        assert str(refused.value) == (
            f"overload: unknown key(s) {names} (accepted: enabled)"
        )

    def test_from_dict_casts_and_keeps_horizon(self):
        cfg = OverloadConfig.from_dict({"enabled": False}, horizon=2.0)
        assert cfg.enabled is False
        assert cfg.horizon == 2.0


class TestPriorityControlQueue:
    def _q(self, capacity=8, high=6, low=2, prioritized=True):
        return PriorityControlQueue(
            capacity, high, low, prioritized=prioritized
        )

    def test_fifo_within_a_class(self):
        q = self._q()
        for i in range(3):
            q.offer(f"m{i}", MessageClass.SETUP)
        assert [q.pop()[0] for _ in range(3)] == ["m0", "m1", "m2"]

    def test_liveness_jumps_the_queue(self):
        q = self._q()
        q.offer("bulk", MessageClass.SETUP)
        q.offer("ka", MessageClass.LIVENESS)
        assert q.pop() == ("ka", MessageClass.LIVENESS)
        assert q.pop() == ("bulk", MessageClass.SETUP)

    def test_watermark_sheds_setup_only(self):
        q = self._q(capacity=8, high=4, low=1)
        for i in range(4):
            assert q.offer(i, MessageClass.SETUP)[0]
        # at the high watermark: setup arrivals shed, liveness accepted
        accepted, dropped = q.offer("x", MessageClass.SETUP)
        assert not accepted
        assert dropped == [("x", MessageClass.SETUP, "watermark-shed")]
        assert q.shed_by_class[MessageClass.SETUP] == 1
        accepted, _ = q.offer("ka", MessageClass.LIVENESS)
        assert accepted

    def test_shedding_hysteresis_clears_at_low_watermark(self):
        q = self._q(capacity=8, high=4, low=1)
        for i in range(4):
            q.offer(i, MessageClass.SETUP)
        q.offer("shed-me", MessageClass.SETUP)
        assert q.shedding
        q.pop()  # depth 3: still above low -- keeps shedding
        assert not q.offer("still", MessageClass.SETUP)[0]
        while len(q) > 1:
            q.pop()
        accepted, _ = q.offer("ok", MessageClass.SETUP)
        assert accepted
        assert not q.shedding

    def test_full_queue_evicts_newest_worse_class(self):
        q = self._q(capacity=2, high=2, low=0)
        q.offer("old-bulk", MessageClass.SETUP)
        q.offer("new-bulk", MessageClass.SETUP)
        accepted, dropped = q.offer("ka", MessageClass.LIVENESS)
        assert accepted
        assert dropped == [("new-bulk", MessageClass.SETUP, "evicted")]
        assert q.pop()[0] == "ka"
        assert q.pop()[0] == "old-bulk"

    def test_full_queue_tail_drops_equal_class(self):
        q = self._q(capacity=1, high=1, low=0)
        q.offer("a", MessageClass.LIVENESS)
        accepted, dropped = q.offer("b", MessageClass.LIVENESS)
        assert not accepted
        assert dropped == [("b", MessageClass.LIVENESS, "queue-full")]
        assert q.dropped_by_class[MessageClass.LIVENESS] == 1

    def test_capacity_one_liveness_evicts_bulk(self):
        q = self._q(capacity=1, high=1, low=0)
        q.offer("bulk", MessageClass.SETUP)
        accepted, dropped = q.offer("ka", MessageClass.LIVENESS)
        assert accepted
        assert dropped == [("bulk", MessageClass.SETUP, "evicted")]
        assert len(q) == 1
        assert q.pop()[0] == "ka"

    def test_unprioritized_is_plain_tail_drop(self):
        q = self._q(capacity=2, high=2, low=0, prioritized=False)
        q.offer("bulk1", MessageClass.SETUP)
        q.offer("bulk2", MessageClass.SETUP)
        accepted, dropped = q.offer("ka", MessageClass.LIVENESS)
        assert not accepted  # no eviction, no priority: keepalive dies
        assert dropped == [("ka", MessageClass.LIVENESS, "queue-full")]
        assert q.pop()[0] == "bulk1"  # strict FIFO

    def test_burst_conserves_messages(self):
        q = self._q(capacity=4, high=3, low=1)
        offered = 64
        accepted = sum(
            1 for i in range(offered) if q.offer(i, MessageClass.SETUP)[0]
        )
        drained = 0
        while q.pop() is not None:
            drained += 1
        lost = sum(q.dropped_by_class.values()) + sum(
            q.shed_by_class.values()
        )
        assert accepted == drained == q.serviced
        assert accepted + lost == offered
        assert q.max_depth <= q.capacity

    def test_validation(self):
        with pytest.raises(ValueError):
            PriorityControlQueue(0, 1, 0)
        with pytest.raises(ValueError):
            PriorityControlQueue(4, 5, 0)
        with pytest.raises(ValueError):
            PriorityControlQueue(4, 2, 2)


class TestIngressShedder:
    def _shedder(self, pressure):
        cfg = OverloadConfig(horizon=None)
        scheduler = EventScheduler()
        entries = [
            ShedEntry(prefix="10.0.0.0/16", cos=0, ingress="n0"),
            ShedEntry(prefix="10.1.0.0/16", cos=5, ingress="n0"),
        ]
        return IngressShedder(entries, pressure, cfg, scheduler)

    def test_sheds_lowest_cos_first_and_respects_floor(self):
        shedder = self._shedder(lambda: 1.0)
        shedder.observe()
        shedder.observe()
        shedder.observe()
        # max_shed_fraction 0.5 of 2 FECs = 1: only the cos-0 FEC shed
        assert [e.shed for e in shedder.entries] == [True, False]
        assert len(shedder.shed_events) == 1
        assert shedder.shed_events[0][2] == 0

    def test_restore_needs_consecutive_calm_ticks(self):
        readings = iter([1.0, 0.1, 0.4, 0.1, 0.1, 0.1])
        shedder = self._shedder(lambda: next(readings))  # hysteresis 3
        shedder.observe()  # shed
        shedder.observe()  # calm 1
        shedder.observe()  # mid-band: calm counter resets
        shedder.observe()  # calm 1
        shedder.observe()  # calm 2
        assert shedder.shed_count == 1
        shedder.observe()  # calm 3 -> restore
        assert shedder.shed_count == 0
        assert shedder.recovery_time_s == 0.0  # manual driving: now == 0

    def test_guard_drops_only_shed_matching_ingress(self):
        from repro.net.packet import IPv4Packet

        shedder = self._shedder(lambda: 1.0)
        shedder.observe()
        packet = IPv4Packet(src="9.9.9.9", dst="10.0.1.2")
        assert shedder.guard("n0", packet)  # shed FEC at its ingress
        assert not shedder.guard("n1", packet)  # wrong ingress
        other = IPv4Packet(src="9.9.9.9", dst="10.1.0.2")
        assert not shedder.guard("n0", other)  # cos-5 FEC not shed
        assert shedder.packets_shed == 1

    def test_arm_requires_horizon(self):
        shedder = self._shedder(lambda: 0.0)
        with pytest.raises(ValueError):
            shedder.arm()


def _storm_env(enabled, n=4):
    """A ring with message-LDP behind bounded control queues."""
    topo = ring(n, delay_s=1e-3)
    nodes = {
        name: LSRNode(name, RouterRole.LSR) for name in topo.nodes
    }
    scheduler = EventScheduler()
    cfg = OverloadConfig(enabled=enabled, horizon=2.0)
    ldp = MessageLDPProcess(topo, nodes, scheduler, overload=cfg)
    return topo, scheduler, ldp


def _flood(ldp, scheduler, target, start, window, mappings=2000):
    import random

    rng = random.Random(42)
    neighbors = sorted(ldp.topology.neighbors(target))
    for i in range(mappings):
        msg = LDPMessage(
            MsgType.LABEL_MAPPING,
            rng.choice(neighbors),
            target,
            fec_id=f"__flood-{i}",
            label=800_000 + i,
        )
        scheduler.at(
            start + rng.uniform(0.0, window), lambda m=msg: ldp.send(m)
        )


class TestStormSurvival:
    def test_unprotected_fifo_starves_keepalives(self):
        topo, scheduler, ldp = _storm_env(enabled=False)
        ldp.start()
        scheduler.run(until=0.15)
        assert ldp.all_sessions_up()
        _flood(ldp, scheduler, "n0", start=0.2, window=0.5)
        scheduler.run(until=1.0)
        # the flood tail-drops n0's keepalives: its sessions hold-expire
        assert ldp.holds_expired >= 2
        assert any("n0" in (a, b) for (_, a, b) in ldp.sessions_lost)

    def test_protected_queues_keep_sessions_up(self):
        topo, scheduler, ldp = _storm_env(enabled=True)
        ldp.start()
        scheduler.run(until=0.15)
        assert ldp.all_sessions_up()
        _flood(ldp, scheduler, "n0", start=0.2, window=0.5)
        scheduler.run(until=1.0)
        assert ldp.holds_expired == 0
        assert ldp.sessions_lost == []
        assert ldp.all_sessions_up()
        # protection worked by shedding bulk, not by magic
        shed = sum(
            q.shed_by_class[MessageClass.SETUP]
            for q in ldp.queues.values()
        )
        assert shed > 0

    def test_sessions_recover_after_the_storm(self):
        topo, scheduler, ldp = _storm_env(enabled=False)
        ldp.start()
        scheduler.run(until=0.15)
        _flood(ldp, scheduler, "n0", start=0.2, window=0.3)
        scheduler.run(until=2.0)
        assert ldp.sessions_lost  # the storm did damage
        assert ldp.all_sessions_up()  # ...and reconnect repaired it
        assert len(ldp.sessions_recovered) == len(ldp.sessions_lost)


class TestReconnect:
    def _drop_and_time(self):
        topo = ring(4, delay_s=1e-3)
        nodes = {
            name: LSRNode(name, RouterRole.LSR) for name in topo.nodes
        }
        scheduler = EventScheduler()
        ldp = MessageLDPProcess(topo, nodes, scheduler)
        ldp.start()
        scheduler.run(until=0.2)
        for a, b in (("n0", "n1"), ("n1", "n2"), ("n2", "n3")):
            ldp.drop_session(a, b)
        scheduler.run(until=2.0)
        return [t for (t, _, _, _) in ldp.sessions_recovered]

    def test_reconnect_schedule_is_deterministic(self):
        assert self._drop_and_time() == self._drop_and_time()

    def test_same_instant_drops_reconnect_together(self):
        times = self._drop_and_time()
        assert len(set(times)) == 1  # no jitter: the thundering herd


class TestHoldTimerExpiry:
    def test_silent_peer_hold_expires(self):
        topo, scheduler, ldp = _storm_env(enabled=True)
        ldp.start()
        scheduler.run(until=0.1)
        assert ldp.all_sessions_up()
        # silence n1's CPU entirely: arrivals rejected before queuing
        ldp.queues["n1"].offer = lambda item, cls: (False, [])
        scheduler.run(until=0.6)
        # everyone adjacent to n1 stops hearing keepalives and expires
        assert ldp.holds_expired >= 1
        expired_pairs = {
            tuple(sorted((a, b))) for (_, a, b) in ldp.sessions_lost
        }
        assert all("n1" in pair for pair in expired_pairs)


class TestMetricsRegistration:
    def test_families_exist_even_when_disabled(self):
        tel = Telemetry(enabled=False)
        names = set(tel.registry._families)
        assert "repro_control_queue_depth" in names
        assert "repro_control_queue_drops_total" in names
        assert "repro_fecs_shed" in names

    def test_default_telemetry_has_the_families(self):
        tel = get_telemetry()
        assert tel.control_queue_depth.kind == "gauge"
        assert tel.control_queue_drops.kind == "counter"
        assert tel.control_queue_drops.labelnames == (
            "node",
            "msg_class",
            "cause",
        )
