"""Tests for the waveform recorder, ASCII rendering, and VCD dump."""

import os


from repro.hdl.simulator import Component, Simulator
from repro.hdl.waveform import WaveformRecorder, dump_vcd, render_ascii


class _Counter(Component):
    def __init__(self, sim):
        super().__init__(sim, "ctr")
        self.value = self.reg("value", 8)
        self.tick_bit = self.reg("tick", 1)

    def settle(self):
        self.value.stage((self.value.value + 1) % 256)
        self.tick_bit.stage(1 - self.tick_bit.value)


def _setup():
    sim = Simulator()
    ctr = _Counter(sim)
    recorder = WaveformRecorder(sim)
    return sim, ctr, recorder


class TestRecorder:
    def test_captures_every_cycle(self):
        sim, ctr, recorder = _setup()
        sim.step(5)
        assert recorder.cycles == [1, 2, 3, 4, 5]
        assert recorder.trace["ctr.value"] == [1, 2, 3, 4, 5]

    def test_selected_signals_only(self):
        sim = Simulator()
        ctr = _Counter(sim)
        recorder = WaveformRecorder(sim, [sim.signal("ctr.value")])
        sim.step(2)
        assert list(recorder.trace) == ["ctr.value"]

    def test_clear(self):
        sim, ctr, recorder = _setup()
        sim.step(3)
        recorder.clear()
        assert recorder.cycles == []
        sim.step(1)
        assert recorder.cycles == [4]

    def test_trace_holds_one_value_per_cycle(self):
        sim, ctr, recorder = _setup()
        sim.step(4)
        assert recorder.cycles == [1, 2, 3, 4]
        assert recorder.trace["ctr.tick"] == [1, 0, 1, 0]
        assert recorder.trace["ctr.value"][2] == 3


class TestAsciiRendering:
    def test_renders_levels_and_values(self):
        sim, ctr, recorder = _setup()
        sim.step(4)
        text = render_ascii(recorder)
        assert "ctr.value" in text
        assert "###" in text  # tick high
        assert "___" in text  # tick low

    def test_empty_capture(self):
        sim, ctr, recorder = _setup()
        assert "no cycles" in render_ascii(recorder)

    def test_window(self):
        sim, ctr, recorder = _setup()
        sim.step(20)
        text = render_ascii(recorder, start=18)
        assert " 18" in text and " 20" in text
        assert "  5 " not in text


class TestVCD:
    def test_dump_loads_as_valid_vcd(self, tmp_path):
        sim, ctr, recorder = _setup()
        sim.step(5)
        path = os.path.join(tmp_path, "wave.vcd")
        dump_vcd(recorder, path)
        with open(path) as fh:
            content = fh.read()
        assert "$timescale 20 ns $end" in content
        assert "$var wire 8" in content
        assert "$enddefinitions" in content
        assert "#1" in content and "#5" in content
        # binary values for the multibit counter
        assert "b101 " in content

    def test_only_changes_emitted(self, tmp_path):
        sim = Simulator()

        class Constant(Component):
            def __init__(self, sim):
                super().__init__(sim, "konst")
                self.q = self.reg("q", 4, default=7)

            def settle(self):
                self.q.stage(7)

        Constant(sim)
        recorder = WaveformRecorder(sim)
        sim.step(10)
        path = os.path.join(tmp_path, "const.vcd")
        dump_vcd(recorder, path)
        with open(path) as fh:
            body = fh.read().split("$enddefinitions $end")[1]
        # one initial value change, then silence
        assert body.count("b111 ") == 1

    def test_identifiers_stay_printable_past_the_94th_signal(self, tmp_path):
        # the full modifier records 186 signals; one printable character
        # covers 94
        sim = Simulator()

        class Bank(Component):
            def __init__(self, sim):
                super().__init__(sim, "bank")
                self.regs = [self.reg(f"r{i}", 1 + i % 7) for i in range(210)]

            def settle(self):
                for i, reg in enumerate(self.regs):
                    if (self.sim.cycle + i) % 3:
                        reg.stage((reg.value + i) % (1 << reg.width))

        Bank(sim)
        recorder = WaveformRecorder(sim)
        sim.step(12)
        path = os.path.join(tmp_path, "wide.vcd")
        dump_vcd(recorder, path)
        with open(path, encoding="ascii") as fh:
            header, body = fh.read().split("$enddefinitions $end\n")
        names = {}
        for line in header.splitlines():
            if line.startswith("$var"):
                _, _, width, ident, name, _ = line.split()
                assert ident not in names
                assert all(33 <= ord(ch) <= 126 for ch in ident)
                assert int(width) == sim.signal(name).width
                names[ident] = name
        assert len(names) == 210
        # replay the value changes: one snapshot per timestamp (every
        # cycle changes something here, so every cycle has one)
        snapshots = []
        for line in body.splitlines():
            if line.startswith("#"):
                snapshots.append(dict(snapshots[-1]) if snapshots else {})
            elif line.startswith("b"):
                bits, ident = line[1:].split(" ")
                snapshots[-1][names[ident]] = int(bits, 2)
            else:
                snapshots[-1][names[line[1:]]] = int(line[0])
        assert len(snapshots) == len(recorder.cycles) == 12
        assert recorder.trace == {
            name: [snapshot[name] for snapshot in snapshots]
            for name in names.values()
        }
