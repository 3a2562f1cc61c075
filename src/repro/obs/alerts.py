"""A declarative alerting rule engine over metrics and matrices.

Rules are threshold+hysteresis: an alert *raises* when its signal
reaches ``threshold`` and *clears* only once the signal falls to
``clear`` (< threshold), so a value oscillating around the threshold
produces one alert, not a raise/clear flap per evaluation.  Every
transition is emitted into the structured event log as
:class:`~repro.obs.events.AlertRaised` / ``AlertCleared`` and mirrored
in the ``repro_alerts_active`` gauge and
``repro_alert_transitions_total`` counter.

The engine is evaluated on the :class:`~repro.obs.flows.MatrixCollector`
tick, so everything it sees derives from simulated time -- alert
histories are byte-stable for a seeded scenario.

Built-in signals (the ``signal`` key of a rule dict):

``link-utilization``
    Per-link busy fraction from the current traffic-matrix snapshot;
    subjects are ``"src->dst"``.
``queue-shed-rate``
    Control messages shed per second (delta of
    ``repro_control_queue_drops_total`` over the evaluation interval),
    per node.
``slo-breach-rate``
    SLO breaches per second (delta of ``repro_slo_breaches_total``),
    per FEC.
``flow-count``
    Active flow records per node (the flow-explosion detector).
``metric:<family>``
    Generic fallback: the current value of every child of a counter or
    gauge family; subjects are the joined label values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.events import AlertCleared, AlertRaised, round9
from repro.obs.telemetry import Telemetry, get_telemetry

_BUILTIN_SIGNALS = (
    "link-utilization",
    "queue-shed-rate",
    "slo-breach-rate",
    "flow-count",
)

#: Metric families backing the delta-rate signals.
_RATE_FAMILIES = {
    "queue-shed-rate": "repro_control_queue_drops_total",
    "slo-breach-rate": "repro_slo_breaches_total",
}


@dataclass(frozen=True)
class AlertRule:
    """One declarative threshold+hysteresis rule."""

    name: str
    signal: str
    threshold: float
    #: Clear bound; defaults (None) to 80% of the threshold.
    clear: Optional[float] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.clear is None:
            object.__setattr__(self, "clear", self.threshold * 0.8)
        if self.clear >= self.threshold:
            raise ValueError(
                f"rule {self.name!r}: clear bound {self.clear} must be "
                f"below the raise threshold {self.threshold} (hysteresis)"
            )
        if self.signal not in _BUILTIN_SIGNALS and not self.signal.startswith(
            "metric:"
        ):
            raise ValueError(
                f"rule {self.name!r}: unknown signal {self.signal!r} "
                f"(expected one of {list(_BUILTIN_SIGNALS)} or 'metric:<family>')"
            )

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "AlertRule":
        return cls(**raw)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "signal": self.signal,
            "threshold": round9(self.threshold),
            "clear": round9(self.clear),
            "description": self.description,
        }


@dataclass
class ActiveAlert:
    """Book-keeping for one firing (rule, subject) instance."""

    rule: AlertRule
    subject: str
    raised_at: float
    peak: float = 0.0


class AlertEngine:
    """Evaluates rules each collector tick; owns alert state/history.

    Parameters
    ----------
    rules:
        :class:`AlertRule` objects or raw rule dicts.
    telemetry:
        The telemetry instance whose registry/events the engine reads
        and writes (default: the process-wide one).
    """

    def __init__(
        self,
        rules: Iterable[Any],
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.rules: List[AlertRule] = [
            rule if isinstance(rule, AlertRule) else AlertRule.from_dict(rule)
            for rule in rules
        ]
        names = [r.name for r in self.rules]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate alert rule names: {sorted(names)}")
        self._active: Dict[Tuple[str, str], ActiveAlert] = {}
        #: Raise/clear transitions in emission order (stable dicts).
        self.history: List[Dict[str, Any]] = []
        #: Previous counter totals for the delta-rate signals.
        self._rate_prev: Dict[str, Dict[str, float]] = {
            signal: {} for signal in _RATE_FAMILIES
        }
        self._last_eval: Optional[float] = None
        self.evaluations = 0

    # -- signal sampling -----------------------------------------------------
    def _sample(
        self, rule: AlertRule, interval: float, matrix
    ) -> Dict[str, float]:
        """Current value per subject for one rule's signal.  Subjects
        seen before but absent now sample as 0.0 so firing alerts can
        clear when their source goes quiet."""
        if rule.signal == "link-utilization":
            if matrix is None:
                return {}
            return {
                f"{src}->{dst}": util
                for (src, dst), util in matrix.utilization.items()
            }
        if rule.signal in _RATE_FAMILIES:
            return self._rates(rule.signal, interval)
        if rule.signal == "flow-count":
            flows = self.telemetry.flows
            if flows is None:
                return {}
            counts: Dict[str, float] = {}
            for record in flows.active_records():
                counts[record.node] = counts.get(record.node, 0.0) + 1.0
            return counts
        family_name = rule.signal[len("metric:"):]
        family = self.telemetry.registry.get(family_name)
        if family is None or family.kind == "histogram":
            return {}
        return {
            "/".join(values) or "total": child.value
            for values, child in family.samples()
        }

    def _rates(self, signal: str, interval: float) -> Dict[str, float]:
        """Per-subject rate (1/s) from a counter family's delta since
        the last evaluation.  Subjects are the first label value (the
        node or FEC); extra labels are summed over."""
        family = self.telemetry.registry.get(_RATE_FAMILIES[signal])
        totals: Dict[str, float] = {}
        if family is not None:
            for values, child in family.samples():
                subject = values[0] if values else "total"
                totals[subject] = totals.get(subject, 0.0) + child.value
        previous = self._rate_prev[signal]
        rates = {
            subject: (total - previous.get(subject, 0.0)) / interval
            if interval > 0
            else 0.0
            for subject, total in totals.items()
        }
        self._rate_prev[signal] = totals
        return rates

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, now: float, matrix=None) -> None:
        """One evaluation pass: sample every rule's signal, then apply
        the raise/clear hysteresis per subject."""
        interval = (
            now - self._last_eval if self._last_eval is not None else now
        )
        self._last_eval = now
        self.evaluations += 1
        for rule in self.rules:
            samples = self._sample(rule, interval, matrix)
            # firing subjects missing from this sample read as 0 --
            # a gone-quiet source must be able to clear its alert
            for key, active in list(self._active.items()):
                if key[0] == rule.name and active.subject not in samples:
                    samples.setdefault(active.subject, 0.0)
            for subject, value in sorted(samples.items()):
                self._apply(rule, subject, value, now)

    def _apply(
        self, rule: AlertRule, subject: str, value: float, now: float
    ) -> None:
        key = (rule.name, subject)
        active = self._active.get(key)
        tel = self.telemetry
        if active is None:
            if value >= rule.threshold:
                self._active[key] = ActiveAlert(
                    rule=rule, subject=subject, raised_at=now, peak=value
                )
                self.history.append(
                    {
                        "transition": "raised",
                        "rule": rule.name,
                        "subject": subject,
                        "time": round9(now),
                        "value": round9(value),
                    }
                )
                tel.alert_transitions.labels(rule.name, "raised").inc()
                tel.alerts_active.labels(rule.name).set(
                    self.active_count(rule.name)
                )
                tel.events.emit(
                    AlertRaised(
                        rule=rule.name,
                        subject=subject,
                        value=round9(value),
                        threshold=rule.threshold,
                    )
                )
            return
        if value > active.peak:
            active.peak = value
        if value <= rule.clear:
            del self._active[key]
            duration = now - active.raised_at
            self.history.append(
                {
                    "transition": "cleared",
                    "rule": rule.name,
                    "subject": subject,
                    "time": round9(now),
                    "value": round9(value),
                    "duration": round9(duration),
                    "peak": round9(active.peak),
                }
            )
            tel.alert_transitions.labels(rule.name, "cleared").inc()
            tel.alerts_active.labels(rule.name).set(
                self.active_count(rule.name)
            )
            tel.events.emit(
                AlertCleared(
                    rule=rule.name,
                    subject=subject,
                    value=round9(value),
                    clear=rule.clear,
                    duration=round9(duration),
                )
            )

    # -- queries -------------------------------------------------------------
    def active_count(self, rule_name: Optional[str] = None) -> int:
        if rule_name is None:
            return len(self._active)
        return sum(1 for key in self._active if key[0] == rule_name)

    def active_alerts(self) -> List[Dict[str, Any]]:
        return [
            {
                "rule": active.rule.name,
                "subject": active.subject,
                "raised_at": round9(active.raised_at),
                "peak": round9(active.peak),
            }
            for active in sorted(
                self._active.values(),
                key=lambda a: (a.rule.name, a.subject),
            )
        ]

    def summary(self) -> Dict[str, Any]:
        """The gated chaos-report section: rules, the full transition
        history, and anything still firing."""
        return {
            "rules": [rule.as_dict() for rule in self.rules],
            "history": list(self.history),
            "active_at_end": self.active_alerts(),
            "evaluations": self.evaluations,
        }


def render_alert_history(engine: AlertEngine) -> str:
    """Human-readable alert lifecycle for ``repro flows``."""
    lines = ["alert history", "-------------"]
    if not engine.rules:
        lines.append("  (no rules configured)")
        return "\n".join(lines)
    for rule in engine.rules:
        lines.append(
            f"  rule {rule.name}: {rule.signal} >= {rule.threshold:g} "
            f"(clear <= {rule.clear:g})"
        )
    if not engine.history:
        lines.append("  no transitions")
    for entry in engine.history:
        if entry["transition"] == "raised":
            lines.append(
                f"  t={entry['time']:<12g} RAISED  {entry['rule']} "
                f"[{entry['subject']}] value={entry['value']:g}"
            )
        else:
            lines.append(
                f"  t={entry['time']:<12g} cleared {entry['rule']} "
                f"[{entry['subject']}] value={entry['value']:g} "
                f"after {entry['duration']:g}s (peak {entry['peak']:g})"
            )
    firing = engine.active_alerts()
    if firing:
        lines.append("  still firing at end:")
        for alert in firing:
            lines.append(
                f"    {alert['rule']} [{alert['subject']}] "
                f"since t={alert['raised_at']:g} (peak {alert['peak']:g})"
            )
    return "\n".join(lines)
