"""Deterministic fault injection (the chaos subsystem).

Declarative :class:`~repro.faults.scenario.Scenario` documents schedule
faults across every layer of the reproduction -- link failures and
flaps, packet loss and label corruption, node crash/restart, LDP
session resets, and information-base bit flips -- and a
:class:`~repro.faults.injector.FaultInjector` executes them against a
running :class:`~repro.net.network.MPLSNetwork`, coordinating FRR
switchover, LDP reconvergence/reconnection, graceful (warm) restarts
with RFC 3478-style hold timers, and hardware scrubbing after a
configurable detection delay.  A
:class:`~repro.faults.auditor.ConsistencyAuditor` can ride along,
periodically cross-checking hardware info bases against the
control-plane tables and repairing drift.
:func:`~repro.faults.chaos.run_scenario` wraps the whole lifecycle
into one byte-deterministic report.
"""

from repro.faults.auditor import AuditRecord, ConsistencyAuditor
from repro.faults.chaos import (
    ChaosReport,
    ChaosRun,
    build_run,
    run_scenario,
)
from repro.faults.injector import FaultInjector, FaultRecord, RestartRecord
from repro.faults.planes import SwitchoverRecord
from repro.faults.scenario import (
    FaultKind,
    FaultSpec,
    RandomFaultSpec,
    Scenario,
    ScenarioError,
    TrafficSpec,
)

__all__ = [
    "AuditRecord",
    "ChaosReport",
    "ChaosRun",
    "ConsistencyAuditor",
    "FaultInjector",
    "FaultKind",
    "FaultRecord",
    "RandomFaultSpec",
    "RestartRecord",
    "Scenario",
    "ScenarioError",
    "SwitchoverRecord",
    "TrafficSpec",
    "FaultSpec",
    "build_run",
    "run_scenario",
]
