"""RTL vs functional-model equivalence on randomized operation
sequences.

The functional model (:mod:`repro.hw.model`) is used as the hardware
cost model inside network-scale simulations; these property tests are
what justify that substitution: for any operation sequence the two
implementations must agree on results, side effects *and* cycle
counts.
"""

import ast
import inspect
import textwrap

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hwnode import HardwareLSRNode
from repro.hw import ModifierDriver, driver
from repro.hw.model import FunctionalModifier, ModifierBackend
from repro.hw.stack import STACK_CAPACITY
from repro.mpls.label import LabelEntry, LabelOp
from tests.strategies.hw import apply_op, op_step

class TestEquivalence:
    @settings(
        max_examples=40,
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
