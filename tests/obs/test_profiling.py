"""Cycle-profiler tests: attribution, conservation, and the Table 6
integration (per-FSM-state totals equal the simulator's total cycles)."""

import pytest

from repro.analysis.cycles import measure_table6
from repro.hw.driver import ModifierDriver
from repro.mpls.label import LabelEntry, LabelOp
from repro.obs import CycleProfiler, ListSink, telemetry_session
from repro.obs.profiling import IDLE, ConservationError


def _profiled_driver(ib_depth=64, telemetry=None):
    drv = ModifierDriver(ib_depth=ib_depth)
    profiler = CycleProfiler(drv.sim, telemetry=telemetry)
    drv.attach_profiler(profiler)
    return drv, profiler


class TestAttribution:
    def test_operation_scoping_names_the_cycles(self):
        drv, profiler = _profiled_driver()
        drv.reset()
        drv.user_push(LabelEntry(label=100, ttl=9, s=1))
        drv.write_pair(2, 16, 500, LabelOp.SWAP)
        assert profiler.operation_cycles["RESET"] == 3
        assert profiler.operation_cycles["USER_PUSH"] == 3
        assert profiler.operation_cycles["WRITE_PAIR"] == 3
        assert IDLE not in profiler.operation_cycles

    def test_unscoped_cycles_land_in_idle(self):
        drv, profiler = _profiled_driver()
        drv.sim.step(5)
        assert profiler.operation_cycles == {IDLE: 5}

    def test_profiler_total_equals_driver_total(self):
        drv, profiler = _profiled_driver()
        drv.reset()
        for i in range(8):
            drv.write_pair(2, 16 + i, 500 + i, LabelOp.SWAP)
        drv.search(2, 0xFFFFF)
        assert profiler.cycles == drv.total_cycles

    def test_detach_stops_counting(self):
        drv, profiler = _profiled_driver()
        drv.reset()
        seen = profiler.cycles
        drv.sim.remove_tick_hook(profiler._on_tick)
        drv.profiler = None
        drv.user_push(LabelEntry(label=1, ttl=9, s=1))
        assert profiler.cycles == seen

    def test_fsm_transitions_emitted_when_telemetry_enabled(self):
        with telemetry_session() as tel:
            sink = tel.events.add_sink(ListSink())
            drv, _ = _profiled_driver(telemetry=tel)
            drv.reset()
            drv.user_push(LabelEntry(label=100, ttl=9, s=1))
            transitions = [e for e in sink.events if e.kind == "fsm-transition"]
            assert transitions, "expected FSM transition events"
            fsms = {t.fsm for t in transitions}
            assert any("main" in name for name in fsms)


class TestConservation:
    def test_per_fsm_state_totals_equal_observed_cycles(self):
        drv, profiler = _profiled_driver()
        drv.reset()
        for i in range(4):
            drv.write_pair(2, 16 + i, 500 + i, LabelOp.SWAP)
        drv.search(2, 0xFFFFF)
        drv.update()
        for per_state in profiler.fsm_state_cycles.values():
            assert sum(per_state.values()) == profiler.cycles
        assert sum(profiler.operation_cycles.values()) == profiler.cycles
        profiler.check_conservation()  # must not raise

    def test_violation_detected(self):
        drv, profiler = _profiled_driver()
        drv.reset()
        # corrupt one per-state tally: conservation must catch it
        fsm_name = next(iter(profiler.fsm_state_cycles))
        per_state = profiler.fsm_state_cycles[fsm_name]
        state = next(iter(per_state))
        per_state[state] += 1
        with pytest.raises(ConservationError):
            profiler.check_conservation()


class TestTable6Integration:
    """The profiler generalizes the static table in
    ``benchmarks/results/table6_cycles.txt``: measured per-operation
    cycles agree with the paper's formulas, and every simulated cycle
    is attributed."""

    def test_table6_measured_under_profiler(self):
        drv, profiler = _profiled_driver(ib_depth=128)
        rows = measure_table6(driver=drv)
        assert all(r.matches for r in rows), [
            (r.operation, r.expected, r.measured) for r in rows
        ]
        profiler.check_conservation()
        # conservation against the simulator: the driver counted every
        # cycle it stepped, and so did the profiler
        assert profiler.cycles == drv.total_cycles
        # the per-operation totals also reconcile with the transaction
        # log: RESET cycles come 3 at a time
        assert profiler.operation_cycles["RESET"] % 3 == 0

    def test_worst_case_composite_conserves(self):
        """The Section 4 scenario (reset + 3 pushes + fill + swap =
        6167 cycles) under the profiler."""
        drv, profiler = _profiled_driver(ib_depth=1024)
        drv.reset()
        for i, label in enumerate((100, 200, 300)):
            drv.user_push(LabelEntry(label=label, ttl=9, s=1 if i == 0 else 0))
        for i in range(1023):
            drv.write_pair(3, 1000 + i, 500, LabelOp.SWAP)
        drv.write_pair(3, 300, 999, LabelOp.SWAP)
        drv.update()
        assert profiler.cycles == drv.total_cycles == 6167
        profiler.check_conservation()
        for per_state in profiler.fsm_state_cycles.values():
            assert sum(per_state.values()) == 6167
        # the composite is dominated by the information-base fill
        assert profiler.operation_cycles["WRITE_PAIR"] == 3072
        assert profiler.operation_cycles["RESET"] == 3
        assert profiler.operation_cycles["USER_PUSH"] == 9
        assert profiler.operation_cycles["UPDATE"] == 3083

    def test_memory_port_activity_recorded(self):
        drv, profiler = _profiled_driver()
        drv.reset()
        for i in range(4):
            drv.write_pair(2, 16 + i, 500 + i, LabelOp.SWAP)
        drv.search(2, 0xFFFFF)
        writes = sum(profiler.memory_write_cycles.values())
        reads = sum(profiler.memory_read_cycles.values())
        assert writes >= 4    # at least one write strobe per pair
        assert reads >= 4     # the search walked the level
