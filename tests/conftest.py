"""Suite-wide guards.

An object that reports telemetry resolves the process-wide default
:class:`~repro.obs.telemetry.Telemetry` once, when it is built, and
keeps it.  A test that leaves that default enabled, or with a sink, a
span recorder, a flow accountant or a topology observer attached, hands
its state to every object a later test builds outside a
``telemetry_session`` -- so such a test fails here, naming what it left.

Tier-1 runs the ``tier1`` Hypothesis profile, loaded here: its draws
are derandomized and no example database is read or written, so a
commit's tier-1 verdict is a function of the commit -- the same
examples on every run and every machine.  The ``hunt`` profile
(``--hypothesis-profile=hunt``) is the CI job's long search: ten times
the examples, each run drawing afresh; a counterexample it finds lands
as an ``@example`` beside its mend.  A suite scales its explicit counts
through :func:`tests.strategies.examples`.
"""

import pytest
from hypothesis import settings

from repro.obs import get_telemetry

settings.register_profile("hunt", max_examples=1000, derandomize=False)
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def _default_telemetry_left_clean():
    yield
    tel = get_telemetry()
    left = [
        what
        for what, dirty in (
            ("enabled", tel.enabled),
            (f"{len(tel.events._sinks)} sink(s)", tel.events._sinks),
            ("a span recorder", tel.spans is not None),
            ("a flow accountant", tel.flows is not None),
            ("a topology observer", tel.topo is not None),
        )
        if dirty
    ]
    if left:
        pytest.fail("the default telemetry was left with " + ", ".join(left))
