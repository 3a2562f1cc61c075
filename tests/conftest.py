"""Suite-wide guards.

An object that reports telemetry resolves the process-wide default
:class:`~repro.obs.telemetry.Telemetry` once, when it is built, and
keeps it.  A test that leaves that default enabled, or with a sink, a
span recorder, a flow accountant or a topology observer attached, hands
its state to every object a later test builds outside a
``telemetry_session`` -- so such a test fails here, naming what it left.
"""

import pytest

from repro.obs import get_telemetry


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
