"""Tests for the traffic generators."""

import math

import pytest

from repro.net.aggregate import AggregateCBRSource
from repro.net.events import EventScheduler
from repro.net.packet import IPv4Packet
from repro.net.traffic import (
    CBRSource,
    DSCP_AF41,
    DSCP_EF,
    GOP,
    MTU_PAYLOAD,
    VideoSource,
    VoIPSource,
)
from tests.strategies import fresh_ids


def _run_source(cls, duration=1.0, **kwargs):
    sched = EventScheduler()
    packets = []
    source = cls(
        sched,
        packets.append,
        src="192.168.0.1",
        dst="10.0.0.1",
        stop=duration,
        **kwargs,
    )
    source.begin()
    sched.run(until=duration + 1)
    return source, packets


class TestCBR:
    def test_packet_count(self):
        # 1 Mbit/s with 500+20-byte packets -> one packet every 4.16 ms
        source, packets = _run_source(
            CBRSource, duration=1.0, rate_bps=1e6, packet_size=500
        )
        expected = 1e6 / ((500 + 20) * 8)
        assert len(packets) == pytest.approx(expected, rel=0.02)

    def test_constant_spacing(self):
        _, packets = _run_source(
            CBRSource, duration=0.1, rate_bps=1e6, packet_size=500
        )
        gaps = [
            b.created_at - a.created_at for a, b in zip(packets, packets[1:])
        ]
        assert all(g == pytest.approx(gaps[0]) for g in gaps)

    def test_sequence_numbers(self):
        _, packets = _run_source(
            CBRSource, duration=0.05, rate_bps=1e6, packet_size=500
        )
        assert [p.seq for p in packets] == list(range(len(packets)))

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            _run_source(CBRSource, rate_bps=0)

    def test_double_start_rejected(self):
        sched = EventScheduler()
        src = CBRSource(sched, lambda p: None, src="1.1.1.1", dst="2.2.2.2")
        src.begin()
        with pytest.raises(RuntimeError):
            src.begin()


class TestVoIP:
    def test_g711_shape(self):
        """50 packets per second of 160-byte payloads, EF-marked."""
        source, packets = _run_source(VoIPSource, duration=1.0)
        assert len(packets) == pytest.approx(50, abs=1)
        assert all(len(p.payload) == 160 for p in packets)
        assert all(p.dscp == DSCP_EF for p in packets)

    def test_bitrate_approximates_64k_plus_headers(self):
        source, _ = _run_source(VoIPSource, duration=1.0)
        # 50 pps * 180 bytes = 72 kbit/s with the 20-byte IP header
        assert source.sent_bytes * 8 == pytest.approx(72_000, rel=0.05)


class TestVideo:
    def test_i_and_p_frames(self):
        source, packets = _run_source(
            VideoSource, duration=1.0, fps=10,
            i_frame_size=5000, p_frame_size=1000,
        )
        assert all(p.dscp == DSCP_AF41 for p in packets)
        # group packets by emission time = frames
        frames = {}
        for p in packets:
            frames.setdefault(p.created_at, 0)
            frames[p.created_at] += len(p.payload)
        sizes = [frames[t] for t in sorted(frames)]
        assert sizes[0] == 5000  # I-frame
        assert sizes[1] == 1000  # P-frame

    def test_an_i_frame_opens_every_group_of_pictures(self):
        source, packets = _run_source(
            VideoSource, duration=(2 * GOP + 1) / 10, fps=10,
            i_frame_size=5000, p_frame_size=1000,
        )
        frames = {}
        for p in packets:
            frames[p.created_at] = frames.get(p.created_at, 0) + len(p.payload)
        sizes = [frames[t] for t in sorted(frames)]
        assert len(sizes) == 2 * GOP + 1
        assert [i for i, size in enumerate(sizes) if size == 5000] == [
            0, GOP, 2 * GOP]
        assert max(len(p.payload) for p in packets) == MTU_PAYLOAD

    def test_large_frames_fragmented(self):
        _, packets = _run_source(
            VideoSource, duration=0.05, fps=25, i_frame_size=3000,
        )
        first_frame = [p for p in packets if p.created_at == packets[0].created_at]
        assert [len(p.payload) for p in first_frame] == [1400, 1400, 200]


class TestFlowIds:
    def test_unique_flow_ids(self):
        sched = EventScheduler()
        a = CBRSource(sched, lambda p: None, src="1.1.1.1", dst="2.2.2.2")
        b = CBRSource(sched, lambda p: None, src="1.1.1.1", dst="2.2.2.2")
        assert a.flow_id != b.flow_id


class TestHostileRates:
    """A source that re-arms itself at a zero, negative or NaN interval
    spins or breaks the event loop: refused at construction."""

    @pytest.mark.parametrize(
        "rate", [0, -1.0, math.inf, -math.inf, math.nan]
    )
    def test_rates_that_are_not_finite_and_positive(self, rate):
        with pytest.raises(ValueError):
            _run_source(CBRSource, rate_bps=rate)

    @pytest.mark.parametrize("packet_size", [-20, -30, -1000])
    def test_intervals_that_are_not_positive(self, packet_size):
        with pytest.raises(ValueError) as exc:
            _run_source(CBRSource, packet_size=packet_size)
        assert "no positive interval" in str(exc.value)

    @pytest.mark.parametrize(
        "bad",
        [
            {"fps": 0}, {"fps": -25.0}, {"fps": math.inf}, {"fps": math.nan},
        ],
    )
    def test_video_parameters(self, bad):
        with pytest.raises(ValueError) as exc:
            _run_source(VideoSource, **bad)
        assert str(exc.value).startswith("video needs a finite fps > 0")

    def test_the_accepted_edge_still_runs(self):
        source, packets = _run_source(
            CBRSource, duration=0.01, rate_bps=1e6, packet_size=0
        )
        assert packets and source.interval == 20 * 8 / 1e6
        _, frames = _run_source(
            VideoSource, duration=0.1, fps=25.0, i_frame_size=1,
            p_frame_size=1,
        )
        assert [p.length for p in frames[:3]] == [21, 21, 21]


def _aggregate_packets():
    """The train templates of an aggregate source: every one is a real
    packet of the flow."""
    sched = EventScheduler()
    packets = []
    source = AggregateCBRSource(
        sched,
        lambda aggregate: packets.append(aggregate.template),
        src="192.168.0.1",
        dst="10.0.0.1",
        rate_bps=1e6,
        batch=10,
        stop=0.2,
    )
    source.begin()
    sched.run(until=1.0)
    return source, packets


class TestSharedPayload:
    """A source holds one payload per size; its packets share it."""

    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (CBRSource, {"rate_bps": 1e6, "packet_size": 200}),
            (VoIPSource, {}),
        ],
    )
    def test_packets_of_one_source_share_one_payload(self, cls, kwargs):
        _, packets = _run_source(cls, duration=0.5, **kwargs)
        assert len(packets) > 2
        assert len({id(p.payload) for p in packets}) == 1
        first, second = packets[:2]
        assert first.payload is second.payload
        assert first.payload == bytes(len(first.payload))

    def test_video_shares_one_payload_per_size(self):
        _, packets = _run_source(
            VideoSource, duration=0.5, fps=10,
            i_frame_size=3000, p_frame_size=1500,
        )
        by_size = {}
        for p in packets:
            by_size.setdefault(len(p.payload), set()).add(id(p.payload))
        # 3000 -> 1400 + 1400 + 200, 1500 -> 1400 + 100
        assert sorted(by_size) == [100, 200, 1400]
        assert all(len(ids) == 1 for ids in by_size.values())
        # different sizes are different objects
        assert len(set().union(*by_size.values())) == 3

    def test_aggregate_templates_share_one_payload(self):
        _, packets = _aggregate_packets()
        assert len(packets) > 1
        assert len({id(p.payload) for p in packets}) == 1
        assert packets[0].payload == bytes(500)

    def test_sources_do_not_share_with_each_other(self):
        _, a = _run_source(CBRSource, duration=0.1, packet_size=200)
        _, b = _run_source(CBRSource, duration=0.1, packet_size=200)
        assert a[0].payload == b[0].payload
        assert a[0].payload is not b[0].payload

    def test_with_ttl_keeps_the_payload_object(self):
        _, packets = _run_source(CBRSource, duration=0.1, packet_size=200)
        copy = packets[0].with_ttl(7)
        assert copy.ttl == 7
        assert copy.payload is packets[0].payload
        assert copy.decremented().payload is packets[0].payload


class TestSourceBuiltPackets:
    """Packets a source builds slot by slot are the packets the
    constructor builds, with its checks and its uid order."""

    def test_first_packet_after_a_reset_has_uid_one(self):
        fresh_ids()
        _, packets = _run_source(CBRSource, duration=0.1)
        assert [p.uid for p in packets[:3]] == [1, 2, 3]

    def test_first_aggregate_packet_after_a_reset_has_uid_one(self):
        fresh_ids()
        _, packets = _aggregate_packets()
        # one template per window
        assert sorted(p.uid for p in packets)[:3] == [1, 2, 3]
        assert min(packets, key=lambda p: p.uid).seq == 0

    def test_equal_to_the_constructor_built_packet(self):
        source, packets = _run_source(
            CBRSource, duration=0.1, packet_size=200, dscp=DSCP_EF
        )
        p = packets[1]
        assert p == IPv4Packet(
            src="192.168.0.1", dst="10.0.0.1", dscp=DSCP_EF,
            payload=bytes(200), flow_id=source.flow_id, seq=1,
            created_at=p.created_at, uid=p.uid,
        )

    def test_dscp_out_of_range_is_refused_with_the_constructor_message(self):
        with pytest.raises(ValueError, match=r"^DSCP 64 out of range$"):
            _run_source(CBRSource, duration=0.1, dscp=64)

