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
* :mod:`tests.strategies.flows` -- packets and the op scripts a
  forwarding node runs.

The references the suites compare against are not here: each lives in
the one suite that owns its surface.  No test module imports another;
what two of them share lives here.  This module holds the draw helpers:
:func:`picks`, and :func:`lehmer` / :func:`arranged` for an ordering.
"""

from functools import lru_cache
from math import prod
from typing import Iterable, List, Optional, Sequence, Tuple

from hypothesis import strategies as st


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
