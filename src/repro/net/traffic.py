"""Traffic generators.

The paper's introduction motivates MPLS with "resource intensive
Internet applications like voice over Internet Protocol (VoIP) and
real-time streaming video".  These sources reproduce those workloads
synthetically (we have no production traces):

* :class:`CBRSource` -- constant bit rate, the idealized circuit.
* :class:`VoIPSource` -- G.711-shaped voice: 160-byte payloads every
  20 ms (50 pps, 64 kbit/s plus headers), EF-marked.
* :class:`VideoSource` -- frame-structured video: large I-frames and
  smaller P-frames at a configurable frame rate.
* :class:`PoissonSource` -- classic memoryless packet arrivals for
  background/best-effort load.
* :class:`OnOffSource` -- bursty data with exponential on/off holding
  times, the standard model for self-similar-ish elastic traffic.

All sources are deterministic given their ``seed`` -- the benchmarks
depend on run-to-run reproducibility.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional

from repro.net.addressing import IPv4Address
from repro.net.events import EventScheduler
from repro.net.packet import IPv4Packet

#: DSCP codepoints (RFC 2474 / 3246): Expedited Forwarding for voice,
#: AF41 for video, best effort for data.
DSCP_EF = 46
DSCP_AF41 = 34
DSCP_BE = 0

_flow_counter = iter(range(1, 1 << 31))


def _interval(bits: float, rate: float) -> float:
    """Seconds between packets of ``bits`` at ``rate``.  Refused unless
    the rate is finite and the interval is > 0: a source that re-arms
    itself at a zero interval spins the event loop at one instant."""
    if not (0 < rate < math.inf and bits > 0):
        raise ValueError(f"no positive interval: {bits} bits at rate {rate}")
    return bits / rate


class TrafficSource:
    """Base class: emits IPv4 packets into a sink callback.

    ``sink(packet)`` is whatever the caller wires up -- typically the
    ingress LER's receive path.  Subclasses implement
    :meth:`_schedule_next` to model their arrival process.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        sink: Callable[[IPv4Packet], None],
        src: str,
        dst: str,
        dscp: int = DSCP_BE,
        start: float = 0.0,
        stop: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        self.scheduler = scheduler
        self.sink = sink
        self.src = IPv4Address(src)
        self.dst = IPv4Address(dst)
        self.dscp = dscp
        self.start = start
        self.stop = stop
        self.rng = random.Random(seed)
        self.flow_id = next(_flow_counter)
        self.sent = 0
        self.sent_bytes = 0
        self._running = False

    def begin(self) -> None:
        """Arm the source; the first packet fires at ``start``."""
        if self._running:
            raise RuntimeError("source already started")
        self._running = True
        self.scheduler.at(self.start, self._emit)

    def _payload_size(self) -> int:
        raise NotImplementedError

    def _next_interval(self) -> float:
        raise NotImplementedError

    def _emit(self) -> None:
        if self.stop is not None and self.scheduler.now >= self.stop:
            self._running = False
            return
        size = self._payload_size()
        packet = IPv4Packet(
            src=self.src,
            dst=self.dst,
            dscp=self.dscp,
            payload=bytes(size),
            flow_id=self.flow_id,
            seq=self.sent,
            created_at=self.scheduler.now,
        )
        self.sent += 1
        self.sent_bytes += packet.length
        self.sink(packet)
        self.scheduler.after(self._next_interval(), self._emit)


class CBRSource(TrafficSource):
    """Constant bit rate: fixed-size packets at a fixed interval."""

    def __init__(
        self,
        scheduler: EventScheduler,
        sink: Callable[[IPv4Packet], None],
        src: str,
        dst: str,
        rate_bps: float = 1e6,
        packet_size: int = 500,
        **kwargs,
    ) -> None:
        super().__init__(scheduler, sink, src, dst, **kwargs)
        self.packet_size = packet_size
        self.interval = _interval((packet_size + 20) * 8, rate_bps)

    def _payload_size(self) -> int:
        return self.packet_size

    def _next_interval(self) -> float:
        return self.interval


class VoIPSource(TrafficSource):
    """G.711 voice: 160-byte frames every 20 ms, EF-marked by default."""

    def __init__(
        self,
        scheduler: EventScheduler,
        sink: Callable[[IPv4Packet], None],
        src: str,
        dst: str,
        dscp: int = DSCP_EF,
        frame_interval: float = 0.020,
        frame_size: int = 160,
        **kwargs,
    ) -> None:
        super().__init__(scheduler, sink, src, dst, dscp=dscp, **kwargs)
        self.frame_interval = frame_interval
        self.frame_size = frame_size

    def _payload_size(self) -> int:
        return self.frame_size

    def _next_interval(self) -> float:
        return self.frame_interval


class VideoSource(TrafficSource):
    """Frame-structured video: an I-frame every ``gop`` frames, P-frames
    otherwise, emitted at ``fps`` frames per second.  Large frames are
    fragmented into MTU-sized packets back-to-back."""

    def __init__(
        self,
        scheduler: EventScheduler,
        sink: Callable[[IPv4Packet], None],
        src: str,
        dst: str,
        dscp: int = DSCP_AF41,
        fps: float = 25.0,
        i_frame_size: int = 12_000,
        p_frame_size: int = 3_000,
        gop: int = 12,
        mtu_payload: int = 1400,
        **kwargs,
    ) -> None:
        super().__init__(scheduler, sink, src, dst, dscp=dscp, **kwargs)
        if not 0 < fps < math.inf or gop < 1 or mtu_payload < 1:
            raise ValueError(
                "video needs a finite fps > 0, gop >= 1 and mtu_payload "
                f">= 1, got fps={fps} gop={gop} mtu_payload={mtu_payload}"
            )
        self.fps = fps
        self.i_frame_size = i_frame_size
        self.p_frame_size = p_frame_size
        self.gop = gop
        self.mtu_payload = mtu_payload
        self._frame_index = 0

    def _emit(self) -> None:
        if self.stop is not None and self.scheduler.now >= self.stop:
            self._running = False
            return
        is_i = self._frame_index % self.gop == 0
        remaining = self.i_frame_size if is_i else self.p_frame_size
        self._frame_index += 1
        while remaining > 0:
            size = min(remaining, self.mtu_payload)
            packet = IPv4Packet(
                src=self.src,
                dst=self.dst,
                dscp=self.dscp,
                payload=bytes(size),
                flow_id=self.flow_id,
                seq=self.sent,
                created_at=self.scheduler.now,
            )
            self.sent += 1
            self.sent_bytes += packet.length
            self.sink(packet)
            remaining -= size
        self.scheduler.after(1.0 / self.fps, self._emit)

    def _payload_size(self) -> int:  # pragma: no cover - unused override
        return self.p_frame_size

    def _next_interval(self) -> float:  # pragma: no cover - unused override
        return 1.0 / self.fps


class PoissonSource(TrafficSource):
    """Memoryless arrivals at ``rate_pps`` with a fixed packet size."""

    def __init__(
        self,
        scheduler: EventScheduler,
        sink: Callable[[IPv4Packet], None],
        src: str,
        dst: str,
        rate_pps: float = 100.0,
        packet_size: int = 500,
        **kwargs,
    ) -> None:
        super().__init__(scheduler, sink, src, dst, **kwargs)
        if not 0 < rate_pps < math.inf:
            raise ValueError(f"rate must be positive and finite: {rate_pps}")
        self.rate_pps = rate_pps
        self.packet_size = packet_size

    def _payload_size(self) -> int:
        return self.packet_size

    def _next_interval(self) -> float:
        return self.rng.expovariate(self.rate_pps)


class OnOffSource(TrafficSource):
    """Exponential on/off bursts; CBR at ``peak_bps`` while on."""

    def __init__(
        self,
        scheduler: EventScheduler,
        sink: Callable[[IPv4Packet], None],
        src: str,
        dst: str,
        peak_bps: float = 10e6,
        mean_on_s: float = 0.1,
        mean_off_s: float = 0.4,
        packet_size: int = 1000,
        **kwargs,
    ) -> None:
        super().__init__(scheduler, sink, src, dst, **kwargs)
        self.peak_bps = peak_bps
        self.mean_on_s = mean_on_s
        self.mean_off_s = mean_off_s
        self.packet_size = packet_size
        self.interval = _interval((packet_size + 20) * 8, peak_bps)
        self._burst_end = 0.0

    def _payload_size(self) -> int:
        return self.packet_size

    def _next_interval(self) -> float:
        now = self.scheduler.now
        if now < self._burst_end:
            return self.interval
        off = self.rng.expovariate(1.0 / self.mean_off_s)
        on = self.rng.expovariate(1.0 / self.mean_on_s)
        self._burst_end = now + off + on
        return off
