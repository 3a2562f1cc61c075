"""What the suites generate and drive, in one place.

Each module holds the data a differential suite draws -- a design, an
event stream, an op script -- with the builder that turns it into
something to run, and the small drivers more than one test file shares:

* :mod:`tests.strategies.rtl` -- random settle-kernel designs over the
  hdl primitives (processes, chains, a counter/memory/register/FSM
  machine);
* :mod:`tests.strategies.hw` -- label-stack-modifier op steps, the RTL
  scenario mixes and their pinned digests, the CAM's pins;
* :mod:`tests.strategies.spans` -- event streams for the span recorder;
* :mod:`tests.strategies.flows` -- packets, the op scripts a
  forwarding node runs, and the uncached node both flow-cache suites
  compare against.

Any other reference a suite compares against is not here: each lives in
the one suite that owns its surface.  No test module imports another;
what two of them share lives here.  This module holds the draw helpers:
:func:`picks`, and :func:`lehmer` / :func:`arranged` for an ordering,
:func:`fresh_ids`, the one reset of the process-global id counters, and
:func:`examples` / :func:`hunting`, how many examples a search draws
under the profile the run loaded.
"""

import itertools
from functools import lru_cache
from math import prod
from typing import Iterable, List, Optional, Sequence, Tuple

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.errors import InvalidArgument

import repro.net.packet as packet_mod
import repro.net.traffic as traffic_mod


def hunting() -> bool:
    """Whether the run loaded the ``hunt`` profile
    (``--hypothesis-profile=hunt``, registered in ``tests/conftest.py``):
    the long searches a CI job runs outside tier-1."""
    try:
        return settings.default is settings.get_profile("hunt")
    except InvalidArgument:  # imported outside the suite: no profile
        return False


def examples(n: int) -> int:
    """A search's ``max_examples``: ``n`` in tier-1, ten times as many
    under the ``hunt`` profile."""
    return 10 * n if hunting() else n


def fresh_ids() -> None:
    """Packet uids and flow ids are process-global; start both where a
    fresh ``python -m repro`` process starts them, so a pinned run sees
    the uids and flow ids the pin was taken with."""
    packet_mod._packet_ids = itertools.count(1)
    traffic_mod._flow_counter = iter(range(1, 1 << 31))


@lru_cache(maxsize=None)
def picks(*sizes: int) -> st.SearchStrategy[Tuple[int, ...]]:
    """Several independent small choices in one draw: a tuple whose
    *i*-th item is uniform in ``range(sizes[i])``.

    A draw is most of what a generated example costs, and a suite
    draws hundreds of examples of dozens of choices, so all of them
    come from one draw of bytes -- hypothesis draws bytes
    uniformly, where a wide integer range leans to small values -- with
    two bytes to spare, so no item is measurably biased.  Shrinking
    moves every item toward 0: put each choice's simplest option there.
    The strategy is built once per ``sizes``; a new one is validated on
    its first draw, which costs more than the draw."""
    size = (prod(sizes).bit_length() + 7) // 8 + 2

    def unpack(raw: bytes) -> Tuple[int, ...]:
        value, items = int.from_bytes(raw, "little"), []
        for each in sizes:
            value, item = divmod(value, each)
            items.append(item)
        return tuple(items)

    return st.binary(min_size=size, max_size=size).map(unpack)


def lehmer(n: int, k: Optional[int] = None) -> Tuple[int, ...]:
    """The sizes of a Lehmer code picking ``k`` (all, by default) of
    ``n`` items in order: spread into :func:`picks`, one draw of an
    ordering; :func:`arranged` applies it."""
    return tuple(range(n, n - (n if k is None else k), -1))


def arranged(items: Iterable, code: Sequence[int]) -> list:
    """The items a Lehmer code names, in its order: ``code[i]`` indexes
    what ``code[:i]`` left.  All zeros is the order given."""
    rest = list(items)
    return [rest.pop(i) for i in code]


def chunks(items: Sequence, size: int) -> List[tuple]:
    """``items`` as consecutive tuples of ``size``."""
    return list(zip(*[iter(items)] * size))
