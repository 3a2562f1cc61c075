"""Cycle-accurate synchronous RTL simulation kernel.

This subpackage is the substrate on which the paper's hardware (the MPLS
label stack modifier) is modelled.  It provides the minimal but complete
set of abstractions needed to express register-transfer-level designs in
Python and simulate them with exact clock-cycle fidelity:

* :mod:`repro.hdl.signal` -- width-checked wires and registers,
* :mod:`repro.hdl.simulator` -- a two-phase (combinational settle /
  clock tick) simulator with combinational-loop detection,
* :mod:`repro.hdl.fsm` -- a declarative Moore/Mealy state machine
  framework,
* :mod:`repro.hdl.memory` -- synchronous single-port RAM with registered
  reads (one cycle of read latency, like FPGA block RAM),
* :mod:`repro.hdl.counter`, :mod:`repro.hdl.register`,
  :mod:`repro.hdl.comparator` -- the datapath primitives used by the
  paper's Figure 12,
* :mod:`repro.hdl.waveform` -- per-cycle signal tracing with ASCII and
  VCD rendering, used to regenerate the paper's Figures 14-16.

The simulation model is deliberately simple: all sequential elements
belong to one clock domain, every cycle first settles combinational
processes to a fixed point and then commits all staged sequential
updates atomically.  This mirrors how a synthesis-friendly synchronous
design behaves and makes the cycle counts reported by
:mod:`repro.analysis.cycles` directly comparable to the paper's Table 6.
"""

from repro.hdl.signal import Signal, Wire, Reg, SignalError, WidthError
from repro.hdl.simulator import Simulator, Component, CombinationalLoopError
from repro.hdl.fsm import FSM
from repro.hdl.memory import SyncMemory
from repro.hdl.counter import Counter
from repro.hdl.register import Register
from repro.hdl.comparator import EqualityComparator
from repro.hdl.waveform import WaveformRecorder, render_ascii, dump_vcd

__all__ = [
    "Signal",
    "Wire",
    "Reg",
    "SignalError",
    "WidthError",
    "Simulator",
    "Component",
    "CombinationalLoopError",
    "FSM",
    "SyncMemory",
    "Counter",
    "Register",
    "EqualityComparator",
    "WaveformRecorder",
    "render_ascii",
    "dump_vcd",
]
