"""Tests for the shared seeded reconnect-backoff policy.

``repro.control.retry`` is the one implementation of exponential
backoff with per-key jitter; message-level LDP session recovery and
the PCE controller channel both delegate to it.  These tests pin the
schedule contract (bit-for-bit stability per seed) and prove the LDP
delegation produces the exact same schedule as a standalone policy
object built with the same parameters.
"""

import random
import zlib

import pytest

from repro.control.ldp_sessions import MessageLDPProcess
from repro.control.retry import ReconnectBackoff, jitter_rng
from repro.mpls.router import LSRNode, RouterRole
from repro.net.events import EventScheduler
from repro.net.topology import paper_figure1


class TestValidation:
    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
    def test_jitter_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match=r"retry_jitter must be in"):
            ReconnectBackoff(jitter=bad)

    def test_jitter_bounds_accepted(self):
        ReconnectBackoff(jitter=0.0)
        ReconnectBackoff(jitter=0.999)


class TestSchedule:
    def test_no_jitter_is_pure_exponential(self):
        b = ReconnectBackoff(initial=0.05, maximum=2.0, jitter=0.0)
        key = ("lsr-1", "lsr-2")
        assert b.first_delay(key) == 0.05
        # attempt n waits min(initial * 2**n, maximum), untouched
        assert [b.next_delay(key, n) for n in range(1, 8)] == [
            0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0
        ]

    def test_exhaustion_is_strict(self):
        b = ReconnectBackoff(max_retries=3)
        assert not b.exhausted(3)
        assert b.exhausted(4)

    def test_jitter_stays_within_band(self):
        b = ReconnectBackoff(initial=0.05, jitter=0.25, seed=42)
        key = ("a", "b")
        for n in range(1, 6):
            delay = b.next_delay(key, n)
            base = min(0.05 * 2.0 ** n, 2.0)
            assert base * 0.75 <= delay <= base * 1.25

    def test_jitter_matches_documented_formula(self):
        # the draw is delay * (1 + j*(2u-1)) from a Random seeded with
        # (seed << 16) ^ crc32("a|b"), one draw per scheduled delay
        seed, key, j = 9, ("ler-a", "lsr-1"), 0.2
        b = ReconnectBackoff(initial=0.05, jitter=j, seed=seed)
        rng = random.Random(
            (seed << 16) ^ zlib.crc32(b"ler-a|lsr-1")
        )
        got = [b.first_delay(key)] + [
            b.next_delay(key, n) for n in range(1, 5)
        ]
        want = [
            base * (1.0 + j * (2.0 * rng.random() - 1.0))
            for base in (0.05, 0.1, 0.2, 0.4, 0.8)
        ]
        assert got == want

    def test_jitter_rng_helper_agrees(self):
        assert (
            jitter_rng(7, ("a", "b")).random()
            == random.Random((7 << 16) ^ zlib.crc32(b"a|b")).random()
        )

    def test_same_seed_same_schedule(self):
        """Two policy objects with identical (seed, params) replay the
        exact same jittered schedule -- the regression the chaos
        reports' byte-stability rides on."""
        def schedule():
            b = ReconnectBackoff(initial=0.02, jitter=0.1, seed=5)
            out = []
            for key in [("controller", "lsr-1"), ("controller", "ler-a")]:
                out.append(b.first_delay(key))
                out.extend(b.next_delay(key, n) for n in range(1, 6))
            return out

        assert schedule() == schedule()

    def test_distinct_keys_decorrelate(self):
        b = ReconnectBackoff(initial=0.05, jitter=0.3, seed=1)
        assert b.first_delay(("a", "b")) != b.first_delay(("a", "c"))

    def test_forget_restarts_the_draw_sequence(self):
        b = ReconnectBackoff(initial=0.05, jitter=0.3, seed=1)
        key = ("a", "b")
        first = b.first_delay(key)
        assert b.first_delay(key) != first  # second draw differs
        b.forget(key)
        assert b.first_delay(key) == first  # fresh RNG, same sequence


class TestLDPDelegation:
    """Message-level LDP reuses the shared policy, without jitter."""

    def _ldp(self):
        topo = paper_figure1(delay_s=1e-3)
        nodes = {
            name: LSRNode(
                name,
                RouterRole.LER
                if name in ("ler-a", "ler-b")
                else RouterRole.LSR,
            )
            for name in topo.nodes
        }
        return MessageLDPProcess(topo, nodes, EventScheduler())

    def test_ldp_backoff_is_the_shared_policy(self):
        ldp = self._ldp()
        assert isinstance(ldp.backoff, ReconnectBackoff)

    def test_ldp_schedule_identical_to_standalone_policy(self):
        """The LDP session schedule is bit-for-bit the schedule a bare
        jitter-free ReconnectBackoff yields: pure exponential."""
        ldp = self._ldp()
        bare = ReconnectBackoff(initial=50e-3, maximum=2.0, max_retries=20)
        key = ("lsr-1", "lsr-2")
        got = [ldp.backoff.first_delay(key)] + [
            ldp.backoff.next_delay(key, n) for n in range(1, 6)
        ]
        want = [bare.first_delay(key)] + [
            bare.next_delay(key, n) for n in range(1, 6)
        ]
        assert got == want == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]
