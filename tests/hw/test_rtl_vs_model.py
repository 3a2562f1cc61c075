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

from repro.core.architecture import EmbeddedMPLS
from repro.core.hwnode import HardwareLSRNode
from repro.hw import ModifierDriver, driver
from repro.hw.model import FunctionalModifier, ModifierBackend
from repro.mpls.label import LabelEntry, LabelOp

# Small domains so collisions (hits) actually happen.
small_labels = st.integers(min_value=16, max_value=24)
ops = st.sampled_from(list(LabelOp))
levels = st.integers(min_value=1, max_value=3)
ttls = st.integers(min_value=0, max_value=5)
entries = st.builds(
    LabelEntry,
    label=small_labels,
    cos=st.integers(min_value=0, max_value=7),
    s=st.integers(min_value=0, max_value=1),
    ttl=ttls,
)


op_step = st.one_of(
    st.tuples(st.just("push"), entries),
    st.tuples(st.just("pop"), st.none()),
    st.tuples(st.just("write"), st.tuples(levels, small_labels, small_labels, ops)),
    st.tuples(st.just("search"), st.tuples(levels, small_labels)),
    st.tuples(st.just("update"), st.tuples(small_labels, ttls)),
    st.tuples(
        st.just("modify"), st.tuples(levels, small_labels, small_labels, ops)
    ),
    st.tuples(st.just("remove"), st.tuples(levels, small_labels)),
    st.tuples(
        st.just("read"),
        st.tuples(levels, st.integers(min_value=0, max_value=12)),
    ),
    st.tuples(
        st.just("forward"),
        st.tuples(st.lists(entries, max_size=3), small_labels, ttls),
    ),
)


def _apply(impl, step):
    kind, arg = step
    if kind == "push":
        return ("push", impl.user_push(arg), tuple(impl.stack()))
    if kind == "pop":
        popped, cycles = impl.user_pop()
        return ("pop", popped, cycles, tuple(impl.stack()))
    if kind == "write":
        level, index, label, op = arg
        return ("write", impl.write_pair(level, index, label, op), impl.ib_counts())
    if kind == "search":
        level, key = arg
        r = impl.search(level, key)
        return ("search", r.found, r.label, r.op, r.discarded, r.cycles)
    if kind == "modify":
        level, index, label, op = arg
        r = impl.modify_pair(level, index, label, op)
        return ("modify", r.found, r.cycles, impl.ib_counts())
    if kind == "remove":
        level, index = arg
        r = impl.remove_pair(level, index)
        return ("remove", r.found, r.cycles, impl.ib_counts())
    if kind == "read":
        level, address = arg
        r = impl.read_entry(level, address)
        return ("read", r.valid, r.index, r.label, r.op, r.cycles)
    if kind == "forward":
        stack, packet_id, ttl = arg
        log = []
        r, cycles = impl.forward(stack, packet_id=packet_id, ttl=ttl, log=log)
        # the RTL's UpdateResult reports no search/modify split of the
        # UPDATE: compare the top-level phases
        phases = [phase for phase in log if phase[1] is None]
        return (
            "forward", r.performed, r.discarded, r.cycles, r.stack, cycles,
            phases, impl.total_cycles, tuple(impl.stack()),
        )
    level_key, ttl = arg
    r = impl.update(packet_id=level_key, ttl=ttl)
    return ("update", r.performed, r.discarded, r.cycles, r.stack)


class TestEquivalence:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.lists(op_step, max_size=12))
    def test_random_sequences_agree(self, steps):
        rtl = ModifierDriver(ib_depth=16, stack_capacity=8)
        rtl.reset()
        model = FunctionalModifier(ib_depth=16, stack_capacity=8)
        model.reset()
        for step in steps:
            got_rtl = _apply(rtl, step)
            got_model = _apply(model, step)
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
        model = FunctionalModifier(ib_depth=1, stack_capacity=1)
        model.write_pair(1, 1, 2, LabelOp.SWAP)
        model.write_pair(1, 3, 4, LabelOp.SWAP)
        assert model._levels[0].overflow
        model.user_push(LabelEntry(label=100))
        model.user_push(LabelEntry(label=200))
        assert model.stack_error


#: what only the base defines: the bank protocol, the scrub and the pass
SHARED = {
    "bank_begin", "bank_write_pair", "bank_commit", "bank_drain",
    "bank_rollback", "scrub", "load_stack", "drain_stack", "forward",
}


class TestOneContract:
    """The model and the RTL driver are one ``ModifierBackend`` with two
    hooks: the bank protocol, the scrub and the packet pass are written
    once, in the base, and the node and the Figure 6 device forward
    through it."""

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
        source = textwrap.dedent(inspect.getsource(EmbeddedMPLS.process_frame))
        called = {
            node.func.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }
        assert "forward" in called
        assert not {"user_push", "user_pop", "update"} & called
