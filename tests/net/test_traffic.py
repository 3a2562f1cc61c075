"""Tests for the traffic generators."""

import math

import pytest

from repro.net.events import EventScheduler
from repro.net.traffic import (
    CBRSource,
    DSCP_AF41,
    DSCP_EF,
    OnOffSource,
    PoissonSource,
    VideoSource,
    VoIPSource,
)


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
            VideoSource, duration=1.0, fps=10, gop=5,
            i_frame_size=5000, p_frame_size=1000, mtu_payload=1400,
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

    def test_large_frames_fragmented(self):
        _, packets = _run_source(
            VideoSource, duration=0.05, fps=25, i_frame_size=3000,
            mtu_payload=1400,
        )
        first_frame = [p for p in packets if p.created_at == packets[0].created_at]
        assert [len(p.payload) for p in first_frame] == [1400, 1400, 200]


class TestPoisson:
    def test_mean_rate(self):
        source, packets = _run_source(
            PoissonSource, duration=10.0, rate_pps=100, seed=42
        )
        assert len(packets) == pytest.approx(1000, rel=0.15)

    def test_deterministic_given_seed(self):
        _, a = _run_source(PoissonSource, duration=1.0, rate_pps=50, seed=7)
        _, b = _run_source(PoissonSource, duration=1.0, rate_pps=50, seed=7)
        assert [p.created_at for p in a] == [p.created_at for p in b]

    def test_different_seeds_differ(self):
        _, a = _run_source(PoissonSource, duration=1.0, rate_pps=50, seed=1)
        _, b = _run_source(PoissonSource, duration=1.0, rate_pps=50, seed=2)
        assert [p.created_at for p in a] != [p.created_at for p in b]

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            _run_source(PoissonSource, rate_pps=-1)


class TestOnOff:
    def test_bursts_exist(self):
        source, packets = _run_source(
            OnOffSource,
            duration=5.0,
            peak_bps=1e6,
            mean_on_s=0.05,
            mean_off_s=0.2,
            seed=3,
        )
        assert source.sent > 0
        gaps = [
            b.created_at - a.created_at for a, b in zip(packets, packets[1:])
        ]
        # bursty: both back-to-back gaps and long silences appear
        burst_gap = (1000 + 20) * 8 / 1e6
        assert any(g == pytest.approx(burst_gap) for g in gaps)
        assert any(g > 5 * burst_gap for g in gaps)

    def test_mean_rate_below_peak(self):
        source, _ = _run_source(
            OnOffSource, duration=5.0, peak_bps=1e6, seed=3
        )
        assert source.sent_bytes * 8 / 5.0 < 1e6


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
        for cls, key in (
            (CBRSource, "rate_bps"),
            (PoissonSource, "rate_pps"),
            (OnOffSource, "peak_bps"),
        ):
            with pytest.raises(ValueError):
                _run_source(cls, **{key: rate})

    @pytest.mark.parametrize("packet_size", [-20, -30, -1000])
    def test_intervals_that_are_not_positive(self, packet_size):
        for cls in (CBRSource, OnOffSource):
            with pytest.raises(ValueError) as exc:
                _run_source(cls, packet_size=packet_size)
            assert "no positive interval" in str(exc.value)

    @pytest.mark.parametrize(
        "bad",
        [
            {"fps": 0}, {"fps": -25.0}, {"fps": math.inf}, {"fps": math.nan},
            {"gop": 0}, {"gop": -3}, {"mtu_payload": 0}, {"mtu_payload": -1},
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
            VideoSource, duration=0.1, fps=25.0, gop=1, mtu_payload=1,
            i_frame_size=3, p_frame_size=3,
        )
        assert [p.length for p in frames[:3]] == [21, 21, 21]
