"""Tests for the metrics registry: families, labels, histograms."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults.scenario import FaultKind
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)


class TestPrimitives:
    def test_counter_increments(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge()
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12


class TestHistogram:
    def test_bucketing(self):
        h = Histogram(buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 1.0, 3.0, 7.0, 100.0):
            h.observe(v)
        # per-bucket: <=1: {0.5, 1.0}, <=5: {3.0}, <=10: {7.0}, +Inf: {100}
        assert h.bucket_counts == [2, 1, 1, 1]
        assert h.cumulative_counts() == [2, 3, 4, 5]
        assert h.count == 5
        assert h.sum == pytest.approx(111.5)

    def test_cumulative_ends_at_count(self):
        h = Histogram(buckets=(1.0,))
        h.observe(0.1)
        h.observe(99.0)
        assert h.cumulative_counts()[-1] == h.count == 2

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(5.0, 1.0))

    def test_inf_bound_rejected(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, float("inf")))

    def test_needs_a_bound(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())


class TestFamiliesAndLabels:
    def test_children_per_label_tuple(self):
        reg = MetricsRegistry()
        fam = reg.counter("x_total", "x", ("node", "op"))
        fam.labels("a", "push").inc()
        fam.labels("a", "push").inc()
        fam.labels("b", "pop").inc()
        assert reg.value("x_total", node="a", op="push") == 2
        assert reg.value("x_total", node="b", op="pop") == 1
        assert len(fam) == 2

    def test_keyword_labels_match_positional(self):
        reg = MetricsRegistry()
        fam = reg.counter("x_total", "x", ("node", "op"))
        fam.labels("a", "push").inc()
        fam.labels(op="push", node="a").inc()
        assert reg.value("x_total", node="a", op="push") == 2

    def test_label_values_coerced_to_str(self):
        reg = MetricsRegistry()
        fam = reg.gauge("depth", "d", ("n",))
        fam.labels(1024).set(3)
        assert reg.value("depth", n="1024") == 3

    def test_wrong_label_count_rejected(self):
        fam = MetricsRegistry().counter("x_total", "x", ("a", "b"))
        with pytest.raises(ValueError):
            fam.labels("only-one")

    def test_unknown_keyword_rejected(self):
        fam = MetricsRegistry().counter("x_total", "x", ("a",))
        with pytest.raises(ValueError):
            fam.labels(a="1", nope="2")

    def test_unlabelled_family_acts_as_child(self):
        reg = MetricsRegistry()
        fam = reg.counter("events_total", "e")
        fam.inc(4)
        assert reg.value("events_total") == 4

    def test_labelled_family_refuses_solo_use(self):
        fam = MetricsRegistry().counter("x_total", "x", ("a",))
        with pytest.raises(ValueError):
            fam.inc()


class _Loud(str):
    """A str subclass whose ``str()`` is not itself."""

    def __str__(self) -> str:
        return self.upper()


#: label values whose ``str()`` collide with, or hash like, one another
_LABEL_VALUES = st.one_of(
    st.sampled_from(
        ["link-down", "FaultKind.LINK_DOWN", "1", "True", "None", "1.0",
         "loud", "LOUD", ""]
    ),
    st.sampled_from([1, True, False, 1.0, None]),
    st.sampled_from([FaultKind.LINK_DOWN, FaultKind.IB_BITFLIP]),
    st.sampled_from([_Loud("loud"), _Loud("link-down")]),
)


class TestLabelsAgainstBruteForce:
    """``labels()`` probes ``_children`` with the caller's tuple when
    every value is exactly a ``str``; the child it returns must always be
    the one the coerced key ``tuple(str(v) ...)`` selects."""

    @given(
        st.lists(
            st.tuples(_LABEL_VALUES, st.sampled_from(["x", 1])), max_size=30
        )
    )
    def test_child_is_the_one_the_coerced_key_selects(self, calls):
        fam = MetricFamily("x_total", "x", "counter", ("a", "b"))
        children = {}
        for values in calls + calls:  # first use, then repeat use
            key = tuple(str(v) for v in values)
            child = fam.labels(*values)
            assert child is fam._children[key]
            assert children.setdefault(key, child) is child
            assert fam.labels(b=values[1], a=values[0]) is child
        assert len(fam) == len(children)

    def test_str_mixin_enum_does_not_alias_its_value(self):
        fam = MetricFamily("x_total", "x", "counter", ("kind",))
        plain = fam.labels("link-down")
        assert fam.labels(FaultKind.LINK_DOWN) is not plain
        assert fam.labels(str(FaultKind.LINK_DOWN)) is fam.labels(
            FaultKind.LINK_DOWN
        )
        assert fam.labels("link-down") is plain

    def test_errors_keep_their_messages(self):
        fam = MetricFamily("x_total", "x", "counter", ("a", "b"))
        fam.labels("1", "2")
        for args, kw, message in [
            (("1",), {}, "x_total: expected 2 label values ['a', 'b'], got 1"),
            (("1", "2", "3"), {},
             "x_total: expected 2 label values ['a', 'b'], got 3"),
            ((), {}, "x_total: expected 2 label values ['a', 'b'], got 0"),
            ((), {"a": "1"},
             "x_total: missing label 'b' (schema ['a', 'b'])"),
            ((), {"a": "1", "b": "2", "c": "3"},
             "x_total: unknown labels ['c']"),
            (("1",), {"b": "2"},
             "pass labels positionally or by name, not both"),
        ]:
            with pytest.raises(ValueError) as excinfo:
                fam.labels(*args, **kw)
            assert str(excinfo.value) == message
        assert len(fam) == 1  # no failed call left a child behind


class TestRegistry:
    def test_value_with_a_missing_label_names_the_schema(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "x", ("node", "action")).labels("a", "swap").inc()
        with pytest.raises(ValueError) as excinfo:
            reg.value("x_total", node="a")
        assert str(excinfo.value) == (
            "x_total: missing label 'action' (schema ['node', 'action'])"
        )
        assert reg.value("x_total", node="a", action="swap") == 1

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "x", ("n",))
        b = reg.counter("x_total", "x", ("n",))
        assert a is b

    def test_schema_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "x", ("n",))
        with pytest.raises(ValueError):
            reg.gauge("x_total", "x", ("n",))
        with pytest.raises(ValueError):
            reg.counter("x_total", "x", ("n", "m"))

    def test_collect_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("zzz_total", "z")
        reg.counter("aaa_total", "a")
        assert [f.name for f in reg.collect()] == ["aaa_total", "zzz_total"]

    def test_reset_clears_values(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "x").inc()
        reg.reset()
        assert reg.value("x_total") == 0
