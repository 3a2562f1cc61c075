"""RTL vs functional-model equivalence on randomized operation
sequences.

The functional model (:mod:`repro.hw.model`) is used as the hardware
cost model inside network-scale simulations; these property tests are
what justify that substitution: for any operation sequence the two
implementations must agree on results, side effects *and* cycle
counts.

The same comparison is what checks the RTL's four control FSMs (one
``on_<STATE>`` handler per state): a scripted tour visits every state
of every machine, and a seeded mutant handler that returns the wrong
next state is told apart from the model.  A handler that drops one of
its default drives is shown to change nothing at the clock edge: the
simulator puts every wire a run stops driving back to its default.
"""

import ast
import inspect
import os
import tempfile
import textwrap
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hwnode import HardwareLSRNode
from repro.hdl.waveform import WaveformRecorder, dump_vcd
from repro.hw import ModifierDriver, driver
from repro.hw.label_stack_fsm import LabelStackInterfaceFSM
from repro.hw.model import FunctionalModifier, ModifierBackend
from repro.hw.search_fsm import SearchFSM
from repro.hw.stack import STACK_CAPACITY
from repro.mpls.label import LabelEntry, LabelOp
from tests.strategies import examples
from tests.strategies.hw import apply_op, op_step

class TestEquivalence:
    @settings(
        max_examples=examples(40),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.lists(op_step, max_size=12))
    def test_random_sequences_agree(self, steps):
        rtl = ModifierDriver(ib_depth=16)
        rtl.reset()
        model = FunctionalModifier(ib_depth=16)
        model.reset()
        for step in steps:
            got_rtl = apply_op(rtl, step)
            got_model = apply_op(model, step)
            assert got_rtl == got_model, f"diverged on {step}"
        assert tuple(rtl.stack()) == tuple(model.stack())
        assert rtl.ib_counts() == model.ib_counts()

    def test_model_matches_table6_constants(self):
        model = FunctionalModifier()
        assert model.reset() == 3
        assert model.user_push(LabelEntry(label=600)) == 3
        assert model.user_pop()[1] == 3
        assert model.write_pair(1, 600, 500, LabelOp.SWAP) == 3

    def test_model_search_formula(self):
        from repro.hw.model import search_cycles

        assert search_cycles(0, None) == 5
        assert search_cycles(10, None) == 35
        assert search_cycles(1024, None) == 3077
        assert search_cycles(10, 4) == 20
        assert search_cycles(10, 9) == 35  # worst-case hit == miss cost

    def test_model_worst_case_scenario(self):
        """The paper's 6167-cycle composite on the functional model."""
        model = FunctionalModifier()
        total = model.reset()
        for label in (100, 200, 300):
            total += model.user_push(LabelEntry(label=label, ttl=9, s=label == 100))
        for i in range(1023):
            total += model.write_pair(3, 1000 + i, 500, LabelOp.SWAP)
        total += model.write_pair(3, 300, 999, LabelOp.SWAP)
        result = model.update()
        total += result.cycles
        assert result.performed == LabelOp.SWAP
        assert total == 6167

    def test_model_overflow_flags(self):
        model = FunctionalModifier(ib_depth=1)
        model.write_pair(1, 1, 2, LabelOp.SWAP)
        model.write_pair(1, 3, 4, LabelOp.SWAP)
        assert model._levels[0].overflow
        for label in range(100, 100 + STACK_CAPACITY):
            model.user_push(LabelEntry(label=label))
        assert not model.stack_error
        model.user_push(LabelEntry(label=200))
        assert model.stack_error


#: what only the base defines: the bank protocol, the scrub and the pass
SHARED = {
    "bank_begin", "bank_write_pair", "bank_commit", "bank_rollback", "scrub", "load_stack", "drain_stack", "forward",
}


class TestOneContract:
    """The model and the RTL driver are one ``ModifierBackend`` with two
    hooks: the bank protocol, the scrub and the packet pass are written
    once, in the base, and the hardware node -- the Figure 6 router, on
    either backend -- forwards through it."""

    def test_both_backends_are_the_one_backend(self):
        assert issubclass(FunctionalModifier, ModifierBackend)
        assert issubclass(ModifierDriver, ModifierBackend)
        assert SHARED <= set(vars(ModifierBackend))

    def test_neither_backend_redefines_a_shared_member(self):
        assert not SHARED & set(vars(FunctionalModifier))
        assert not SHARED & set(vars(ModifierDriver))

    def test_the_driver_keeps_no_copy_of_the_bank_costs(self):
        assert not {"BANK_WRITE_CYCLES", "BANK_SWAP_CYCLES"} & set(vars(driver))
        assert not hasattr(ModifierDriver, "_burn")

    def test_the_node_has_no_pass_of_its_own(self):
        own = {"_load_stack", "_drain_stack", "_log_update_phases"}
        assert not own & set(dir(HardwareLSRNode))

    def test_the_figure6_device_forwards_through_the_pass(self):
        """A frame takes the node's one hop ladder, whose forwarding
        step makes the pass: ``process_frame`` makes none of its own."""
        source = textwrap.dedent(
            inspect.getsource(HardwareLSRNode.process_frame)
        )
        called = {
            node.func.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }
        assert "receive" in called
        assert not {
            "forward", "user_push", "user_pop", "update", "_hw_transit",
            "_hw_ingress", "_forward",
        } & called


# -- the control FSMs, through the contract -------------------------------------
#: small enough that a level fills and a search scans all of it
DEPTH = 4


def E(label: int, ttl: int = 64, s: int = 0) -> LabelEntry:
    return LabelEntry(label=label, ttl=ttl, s=s)


PUSH, SWAP, POP, NOOP = LabelOp.PUSH, LabelOp.SWAP, LabelOp.POP, LabelOp.NOOP
#: a scripted tour: every state of every machine
TOUR = [
    ("reset", None),
    # empty levels: every search exhausts at once
    ("search", (1, 16)), ("update", (16, 64)), ("modify", (2, 16, 17, SWAP)),
    ("remove", (3, 16)), ("read", (1, 0)), ("pop", None),
    # level 1 filled to its depth, and one write past it
    ("write", (1, 16, 17, PUSH)), ("write", (1, 17, 18, SWAP)),
    ("write", (1, 18, 19, POP)), ("write", (1, 19, 20, NOOP)),
    ("write", (1, 20, 21, PUSH)),
    # hit at the first entry, at the last, at none
    ("search", (1, 16)), ("search", (1, 19)), ("search", (1, 23)),
    # LER ingress push, swap, pop down to an empty stack
    ("update", (16, 64)), ("update", (0, 64)), ("update", (0, 64)),
    # VERIFY_INFO discards: no stored operation, TTL expiry (1 and 0),
    # a swap for an empty stack, an LSR that sees an empty stack
    ("push", E(19, s=1)), ("update", (0, 64)),
    ("push", E(17, ttl=1, s=1)), ("update", (0, 64)),
    ("push", E(17, ttl=0, s=1)), ("update", (0, 64)),
    ("update", (17, 64)), ("update", (16, 0)),
    ("rtrtype", True), ("update", (16, 64)), ("rtrtype", False),
    # nested levels: a push under two entries, then one past three levels
    ("write", (2, 21, 22, PUSH)), ("write", (2, 22, 0, POP)),
    ("write", (3, 22, 23, PUSH)), ("write", (3, 24, 25, SWAP)),
    ("push", E(20, s=1)), ("push", E(21)), ("update", (0, 64)),
    ("update", (0, 64)),
    ("push", E(20, s=1)), ("push", E(21)), ("push", E(24)), ("update", (0, 64)),
    ("pop", None), ("update", (0, 64)), ("update", (0, 64)),
    # a pop that exposes an entry whose TTL is rewritten
    ("pop", None), ("push", E(20, s=1)), ("push", E(22, ttl=9)), ("update", (0, 64)),
    # management: modify and remove at a hit and at a miss, direct reads
    ("modify", (1, 19, 30, SWAP)), ("modify", (1, 23, 30, SWAP)),
    ("remove", (1, 16)), ("remove", (1, 19)), ("remove", (1, 23)),
    ("read", (1, 0)), ("read", (1, 1)), ("read", (1, 3)), ("read", (2, 12)),
    ("search", (2, 22)), ("search", (3, 24)),
    # reset in the middle, then the machines start from nothing again
    ("reset", None), ("search", (1, 17)), ("write", (1, 17, 18, SWAP)),
    ("push", E(17, s=1)), ("update", (0, 64)),
    # the stack pushed past its capacity
    *[("push", E(16 + i)) for i in range(9)],
]

backend_steps = st.lists(
    st.one_of(
        op_step,
        st.tuples(st.just("reset"), st.none()),
        st.tuples(st.just("rtrtype"), st.booleans()),
    ),
    max_size=30,
)


class WrongNextState(LabelStackInterfaceFSM):
    """Seeded mutant: a nested push that forgets the new entry."""

    def on_PUSH_OLD(self) -> str:
        super().on_PUSH_OLD()
        return "DONE"


class DropsADefaultDrive(SearchFSM):
    """WAIT without its ``finishing.drive(0)``."""

    def on_WAIT(self) -> str:
        return "COMPARE"


class Bench:
    """The RTL driver on its machines, some replaced by ``machines``:
    what each step returned and everything the clock edge states."""

    def __init__(self, **machines) -> None:
        kit = dict(
            SearchFSM=SearchFSM, LabelStackInterfaceFSM=LabelStackInterfaceFSM
        )
        with mock.patch.multiple("repro.hw.modifier", **dict(kit, **machines)):
            self.driver = ModifierDriver(ib_depth=DEPTH)
        modifier = self.driver.modifier
        self.machines = (
            modifier.main, modifier.lbl_iface, modifier.ib_iface, modifier.search
        )
        self.recorder = WaveformRecorder(self.driver.sim)
        #: per edge: every machine's state
        self.states = []
        self.driver.sim.on_tick(self._on_tick)

    def _on_tick(self, _cycle: int) -> None:
        self.states.append(tuple(machine.state_name for machine in self.machines))

    def run(self, steps):
        """What each step returned or raised (a mutant's hang)."""
        results = []
        for step in steps:
            try:
                results.append(apply_op(self.driver, step))
            except (RuntimeError, TimeoutError) as exc:
                results.append((type(exc), str(exc)))
        return results

    def vcd(self) -> bytes:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.vcd")
            dump_vcd(self.recorder, path)
            with open(path, "rb") as handle:
                return handle.read()


def agrees_with_the_model(steps, **machines) -> bool:
    model = FunctionalModifier(ib_depth=DEPTH)
    want = [apply_op(model, step) for step in steps]
    return Bench(**machines).run(steps) == want


class TestControlFSMs:
    def test_the_tour_agrees_and_visits_every_state(self):
        bench = Bench()
        model = FunctionalModifier(ib_depth=DEPTH)
        results = bench.run(TOUR)
        assert results == [apply_op(model, step) for step in TOUR]
        visited = {
            (machine.name, state)
            for states in bench.states
            for machine, state in zip(bench.machines, states)
        }
        assert visited == {
            (machine.name, state)
            for machine in bench.machines
            for state in machine._names
        }
        performed = {result[1] for result in results if result[0] == "update"}
        assert performed == {PUSH, SWAP, POP, None}

    @settings(
        max_examples=examples(60),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(backend_steps)
    def test_random_sequences_with_resets_agree(self, steps):
        assert agrees_with_the_model(steps)

    def test_a_wrong_next_state_is_caught_on_the_tour(self):
        assert not agrees_with_the_model(
            TOUR, LabelStackInterfaceFSM=WrongNextState
        )

    @pytest.mark.parametrize("steps", [TOUR, TOUR[::-1]], ids=["tour", "reversed"])
    def test_a_dropped_default_drive_is_unobservable(self, steps):
        """The simulator puts a wire back to its default when the run
        that drove it stops driving it, so a handler's explicit default
        drive changes nothing the edge states: every signal after every
        edge, the VCD bytes and every step's result and cycle count are
        those of the unmutated machines."""
        got, want = Bench(SearchFSM=DropsADefaultDrive), Bench()
        assert got.run(steps) == want.run(steps)
        assert got.states == want.states
        assert got.recorder.trace == want.recorder.trace
        assert got.vcd() == want.vcd()
