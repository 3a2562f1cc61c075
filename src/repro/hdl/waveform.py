"""Per-cycle signal tracing with ASCII and VCD rendering.

The paper's results (Figures 14-16) are simulator waveform screenshots.
:class:`WaveformRecorder` captures selected signals after every clock
edge; :func:`render_ascii` turns a capture into the textual waveform the
benchmarks print, and :func:`dump_vcd` emits an IEEE-1364 value change
dump loadable in GTKWave for anyone who wants the genuine waveform view.
"""

from __future__ import annotations

import io
from typing import Dict, Iterable, List, Optional, Sequence

from repro.hdl.signal import Signal
from repro.hdl.simulator import Simulator


class WaveformRecorder:
    """Records the value of selected signals after every clock edge.

    Parameters
    ----------
    sim:
        The simulator to attach to (via its tick hook).
    signals:
        Signals to trace.  If ``None``, every signal in the simulator at
        attach time is traced.
    """

    def __init__(
        self,
        sim: Simulator,
        signals: Optional[Iterable[Signal]] = None,
    ) -> None:
        self.sim = sim
        if signals is None:
            signals = list(sim._signals.values())
        self.signals: List[Signal] = list(signals)
        self.cycles: List[int] = []
        self.trace: Dict[str, List[int]] = {s.name: [] for s in self.signals}
        sim.on_tick(self._capture)

    def _capture(self, cycle: int) -> None:
        self.cycles.append(cycle)
        for sig in self.signals:
            self.trace[sig.name].append(sig.value)

    def clear(self) -> None:
        self.cycles.clear()
        for values in self.trace.values():
            values.clear()


def render_ascii(
    recorder: WaveformRecorder,
    names: Optional[Sequence[str]] = None,
    start: int = 0,
    max_width: int = 100,
) -> str:
    """Render a recorder's capture as an ASCII waveform table, cycles
    ``start`` up to the last captured cycle (a reset restarts the count).

    Single-bit signals render as ``_``/``#`` level bars; multi-bit
    signals render their value at each change and ``.`` while stable.
    """
    if names is None:
        names = [s.name for s in recorder.signals]
    if not recorder.cycles:
        return "(no cycles captured)"
    end = recorder.cycles[-1]
    window = [
        i for i, c in enumerate(recorder.cycles) if start <= c <= end
    ][: max_width]
    label_width = max(len(n) for n in names) + 1
    out = io.StringIO()
    header = " " * label_width + "cycle " + " ".join(
        f"{recorder.cycles[i] % 100:>3d}" for i in window
    )
    out.write(header + "\n")
    sig_by_name = {s.name: s for s in recorder.signals}
    for name in names:
        values = recorder.trace[name]
        sig = sig_by_name[name]
        row: List[str] = []
        prev: Optional[int] = None
        for i in window:
            v = values[i]
            if sig.width == 1:
                row.append("###" if v else "___")
            else:
                row.append(f"{v:>3d}" if v != prev else "  .")
            prev = v
        out.write(f"{name:<{label_width}}      " + " ".join(row) + "\n")
    return out.getvalue()


def _identifier(number: int) -> str:
    """The VCD identifier code of the ``number``-th signal: base 94 over
    the printable ASCII ``!``..``~`` IEEE 1364 allows, as many
    characters as it takes."""
    code = ""
    while True:
        number, digit = divmod(number, 94)
        code = chr(33 + digit) + code
        if not number:
            return code


def dump_vcd(recorder: WaveformRecorder, path: str) -> None:
    """Write the capture as a Value Change Dump file.

    The timescale of 20 ns per cycle is the paper's 50 MHz clock on the
    Altera Stratix device.
    """
    ids = {
        sig.name: _identifier(number)
        for number, sig in enumerate(recorder.signals)
    }
    with open(path, "w", encoding="ascii") as fh:
        fh.write("$date reproduction run $end\n")
        fh.write("$version repro.hdl.waveform $end\n")
        fh.write("$timescale 20 ns $end\n")
        fh.write("$scope module top $end\n")
        for sig in recorder.signals:
            ident = ids[sig.name]
            safe = sig.name.replace(" ", "_")
            fh.write(f"$var wire {sig.width} {ident} {safe} $end\n")
        fh.write("$upscope $end\n$enddefinitions $end\n")
        prev: Dict[str, Optional[int]] = {s.name: None for s in recorder.signals}
        for i, cycle in enumerate(recorder.cycles):
            wrote_time = False
            for sig in recorder.signals:
                v = recorder.trace[sig.name][i]
                if v != prev[sig.name]:
                    if not wrote_time:
                        fh.write(f"#{cycle}\n")
                        wrote_time = True
                    if sig.width == 1:
                        fh.write(f"{v}{ids[sig.name]}\n")
                    else:
                        fh.write(f"b{v:b} {ids[sig.name]}\n")
                    prev[sig.name] = v
