"""Exporter tests: the golden Prometheus exposition and JSON snapshots."""

import json
from pathlib import Path

from repro.obs.export import snapshot, to_json, to_prometheus
from repro.obs.metrics import MetricsRegistry

GOLDEN = Path(__file__).parent / "golden_prometheus.txt"


def _demo_registry() -> MetricsRegistry:
    """A small, fully deterministic registry exercising every metric
    kind, multi-label children, escaping, and histogram buckets."""
    reg = MetricsRegistry()
    packets = reg.counter(
        "demo_packets_total", "Packets processed", ("node", "action")
    )
    packets.labels("ler-a", "forward-mpls").inc(3)
    packets.labels("ler-b", "forward-ip").inc()
    drops = reg.counter("demo_drops_total", "Drops by reason", ("reason",))
    drops.labels('label "16" missing\nat lsr-1').inc(2)
    depth = reg.gauge("demo_queue_depth", "Queue occupancy", ("link",))
    depth.labels("a->b").set(2.5)
    latency = reg.histogram(
        "demo_latency_seconds",
        "End-to-end latency",
        buckets=(0.1, 1.0),
    )
    for v in (0.05, 0.5, 5.0):
        latency.observe(v)
    return reg


class TestPrometheus:
    def test_matches_golden_file(self):
        assert to_prometheus(_demo_registry()) == GOLDEN.read_text()

    def test_deterministic(self):
        assert to_prometheus(_demo_registry()) == to_prometheus(
            _demo_registry()
        )

    def test_empty_registry_renders_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""

    def test_unused_family_omitted(self):
        reg = MetricsRegistry()
        reg.counter("unused_total", "never incremented", ("n",))
        assert to_prometheus(reg) == ""

    def test_integer_values_have_no_decimal_point(self):
        reg = MetricsRegistry()
        reg.counter("n_total", "n").labels().inc(7)
        assert "n_total 7\n" in to_prometheus(reg)


class TestPrometheusEdgeCases:
    """Escaping and histogram-shape corners of the exposition format."""

    def test_label_value_with_quotes(self):
        reg = MetricsRegistry()
        reg.counter("q_total", "q", ("who",)).labels('say "hi"').inc()
        assert 'who="say \\"hi\\""' in to_prometheus(reg)

    def test_label_value_with_backslashes(self):
        reg = MetricsRegistry()
        reg.counter("b_total", "b", ("path",)).labels("C:\\tmp\\x").inc()
        assert 'path="C:\\\\tmp\\\\x"' in to_prometheus(reg)

    def test_label_value_with_newlines(self):
        reg = MetricsRegistry()
        reg.counter("n_total", "n", ("msg",)).labels("two\nlines").inc()
        text = to_prometheus(reg)
        assert 'msg="two\\nlines"' in text
        # the literal newline must never leak into the sample line
        sample = [ln for ln in text.splitlines() if ln.startswith("n_total{")]
        assert len(sample) == 1

    def test_backslash_escaped_before_quote(self):
        # the order of replacements matters: escaping the quote first
        # would double-escape the backslash it introduces
        reg = MetricsRegistry()
        reg.counter("o_total", "o", ("v",)).labels('\\"').inc()
        assert 'v="\\\\\\""' in to_prometheus(reg)

    def test_empty_registry_snapshot_and_json(self):
        reg = MetricsRegistry()
        assert snapshot(reg) == {}
        assert json.loads(to_json(reg)) == {}

    def test_unobserved_histogram_omitted(self):
        reg = MetricsRegistry()
        reg.histogram("h_seconds", "h", buckets=(0.1, 1.0))
        # the family exists but has no samples: nothing renders
        assert to_prometheus(reg) == ""

    def test_histogram_bucket_ordering_and_cumulation(self):
        reg = MetricsRegistry()
        hist = reg.histogram(
            "lat_seconds", "lat", buckets=(0.01, 0.1, 1.0, 10.0)
        )
        for v in (0.005, 0.05, 0.5, 5.0, 50.0):
            hist.observe(v)
        text = to_prometheus(reg)
        bucket_lines = [
            ln for ln in text.splitlines()
            if ln.startswith("lat_seconds_bucket")
        ]
        bounds = [
            ln.split('le="')[1].split('"')[0] for ln in bucket_lines
        ]
        counts = [int(ln.rsplit(" ", 1)[1]) for ln in bucket_lines]
        # finite bounds ascend and +Inf comes last
        assert bounds == ["0.01", "0.1", "1", "10", "+Inf"]
        # cumulative counts are monotonically non-decreasing and the
        # +Inf bucket equals the observation count
        assert counts == sorted(counts)
        assert counts[-1] == 5
        assert "lat_seconds_count 5" in text

    def test_histogram_boundary_value_lands_in_its_bucket(self):
        # le is inclusive: an observation exactly on a bound counts there
        reg = MetricsRegistry()
        hist = reg.histogram("edge_seconds", "edge", buckets=(1.0, 2.0))
        hist.observe(1.0)
        text = to_prometheus(reg)
        assert 'edge_seconds_bucket{le="1"} 1' in text


class TestJSON:
    def test_snapshot_shape(self):
        snap = snapshot(_demo_registry())
        assert snap["demo_packets_total"]["type"] == "counter"
        samples = snap["demo_packets_total"]["samples"]
        assert {
            "labels": {"node": "ler-a", "action": "forward-mpls"},
            "value": 3.0,
        } in samples
        hist = snap["demo_latency_seconds"]["samples"][0]["value"]
        assert hist["buckets"] == [0.1, 1.0]
        assert hist["counts"] == [1, 1, 1]
        assert hist["count"] == 3

    def test_to_json_round_trips(self):
        parsed = json.loads(to_json(_demo_registry()))
        assert parsed == json.loads(to_json(_demo_registry()))
        assert parsed["demo_queue_depth"]["samples"][0]["value"] == 2.5
