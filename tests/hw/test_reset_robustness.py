"""Failure injection: reset in the middle of any transaction.

A real deployment resets the hardware at awkward moments (watchdogs,
reconfiguration).  Whatever cycle a transaction is interrupted at, the
modifier must come back to a clean idle state and service subsequent
operations correctly.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hw import ModifierDriver, UserOp
from repro.hw.stack import STACK_CAPACITY
from repro.mpls.label import LabelEntry, LabelOp


def _begin_transaction(drv, op: UserOp) -> None:
    """Issue a command without waiting for completion."""
    dp = drv.modifier.dp
    drv._pins.set(dp.operation, int(op))
    if op == UserOp.UPDATE:
        drv._pins.set(dp.packet_id, 1234)
        drv._pins.set(dp.ttl_in, 9)
    elif op in (UserOp.WRITE_PAIR, UserOp.SEARCH):
        drv._pins.set(dp.level_in, 2)
        drv._pins.set(dp.label_lookup, 18)
        drv._pins.set(dp.data_in, (18 << 20) | 700)
        drv._pins.set(dp.op_in, int(LabelOp.SWAP))
    else:
        drv._pins.set(dp.data_in, LabelEntry(label=600, ttl=9).encode())
    drv.sim.step()
    drv._pins.set(dp.operation, 0)


class TestMidTransactionReset:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        op=st.sampled_from(
            [
                UserOp.USER_PUSH,
                UserOp.USER_POP,
                UserOp.WRITE_PAIR,
                UserOp.SEARCH,
                UserOp.UPDATE,
            ]
        ),
        interrupt_after=st.integers(min_value=0, max_value=12),
    )
    def test_reset_at_any_cycle_recovers(self, op, interrupt_after):
        drv = ModifierDriver(ib_depth=16)
        drv.reset()
        # some prior state so searches/updates have work to interrupt
        for i in range(3):
            drv.write_pair(2, 16 + i, 500 + i, LabelOp.SWAP)
        drv.user_push(LabelEntry(label=17, ttl=9, s=1))

        _begin_transaction(drv, op)
        drv.sim.step(interrupt_after)  # somewhere mid-flight (or past)
        drv.reset()

        # clean slate
        assert not drv.modifier.busy
        assert drv.modifier.dp.stack.size.value == 0
        assert drv.ib_counts() == (0, 0, 0)

        # and fully operational, with Table 6 costs intact
        assert drv.user_push(LabelEntry(label=700, ttl=5)) == 3
        assert drv.write_pair(2, 20, 900, LabelOp.SWAP) == 3
        result = drv.search(2, 20)
        assert result.found and result.label == 900
        assert result.cycles == 8

    def test_reset_clears_sticky_flags(self):
        drv = ModifierDriver(ib_depth=1)
        drv.reset()
        drv.write_pair(1, 1, 100, LabelOp.SWAP)
        drv.write_pair(1, 2, 200, LabelOp.SWAP)  # overflow
        for label in range(16, 17 + STACK_CAPACITY):
            drv.user_push(LabelEntry(label=label))  # the last: stack error
        assert drv.modifier.dp.info_base.level(1).overflow.value
        assert drv.modifier.dp.stack.error.value == 1
        drv.reset()
        assert not any(
            level.overflow.value for level in drv.modifier.dp.info_base.levels
        )
        assert drv.modifier.dp.stack.error.value == 0
