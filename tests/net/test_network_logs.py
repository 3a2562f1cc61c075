"""The network's delivery and drop logs: column queries against views.

:class:`~repro.net.network.DeliveryLog` and
:class:`~repro.net.network.DropLog` keep a row as a few machine numbers
in ``array`` columns; the run's readers (``latencies``,
``delivered_count``, the chaos summary, OAM, the security monitor)
query the columns.  The oracle here is the naive scan: build every
row's view (:class:`Delivery`, :class:`AggregateDelivery`,
:class:`Drop`) and fold those.  Over arbitrary appended rows every
query must equal the scan, and two seeded mutants show the suite is not
vacuous.  Then what a run keeps: at most 64 B per delivered packet and
per drop, and no object the collector tracks per row.
"""

import ast
import gc
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.control.ldp import LDPProcess
from repro.mpls.fec import PrefixFEC
from repro.mpls.router import RouterRole
from repro.net import network as network_mod
from repro.net.aggregate import AggregateDelivery
from repro.net.network import Delivery, DeliveryLog, DropLog, MPLSNetwork
from repro.net.topology import paper_figure1
from repro.net.traffic import CBRSource

NODES = ("ler-a", "lsr-1", "lsr-2", "ler-b")
#: reasons as the network writes them, plus tails several share
REASONS = (
    "ler-a: no FEC matches packet to 10.9.0.9",
    "lsr-1: TTL expired",
    "lsr-2: TTL expired",
    "lsr-2: queue overflow towards ler-b",
    "lsr-1: node down",
    "no link",
    "a: b: TTL expired",
)
FLOWS = (-1001, -1000, -999, 1, 2, 3)

times = st.floats(0.0, 10.0, allow_nan=False)
nodes = st.sampled_from(NODES)
packet_rows = st.tuples(
    times, nodes, st.sampled_from(FLOWS), st.integers(0, 12), times,
    st.just(1), st.just(0.0),
)
train_rows = st.tuples(
    times, nodes, st.sampled_from(FLOWS), st.just(-1), times,
    st.integers(1, 5), st.floats(0.0, 0.01, allow_nan=False),
)
delivery_rows = st.lists(st.one_of(packet_rows, train_rows), max_size=30)
drop_rows = st.lists(
    st.tuples(
        times, nodes, st.sampled_from(REASONS), st.integers(1, 5),
        st.integers(-1, 12),
    ),
    max_size=30,
)
queries = st.tuples(
    st.integers(0, 32), st.integers(-1, 12), times, times,
    st.sampled_from(FLOWS),
)


def _first(values, start, uid):
    return next(
        (row for row, v in enumerate(values) if row >= start and v == uid),
        -1,
    )


def _check_deliveries(rows, query):
    start, uid, _t0, _t1, max_flow = query
    log = DeliveryLog()
    for row in rows:
        log.append(*row)
    views = log.views()
    assert len(log) == len(views) == len(rows)
    assert [type(v) for v in views] == [
        AggregateDelivery if row[3] < 0 else Delivery for row in rows
    ]
    for flow in (None, *FLOWS):
        mine = [v for v in views if flow is None or v.flow_id == flow]
        want = []
        for v in mine:
            want.extend(
                v.latencies() if isinstance(v, AggregateDelivery)
                else [v.latency]
            )
        assert log.latencies(flow) == want
        assert log.delivered(flow) == sum(
            getattr(v, "count", 1) for v in mine
        )
    uids = [getattr(v, "uid", -1) for v in views]
    assert log.arrivals_since(start, max_flow) == [
        (u, v.time)
        for u, v in list(zip(uids, views))[start:]
        if v.flow_id <= max_flow
    ]
    row = log.find(uid, start)
    assert row == _first(uids, start, uid)
    if row >= 0:
        assert log.node_of(row) == views[row].node


def _check_drops(rows, query):
    start, uid, t0, t1, _flow = query
    log = DropLog()
    for row in rows:
        log.append(*row)
    views = log.views()
    assert [(d.time, d.node, d.reason, d.count, d.uid) for d in views] == [
        tuple(row) for row in rows
    ]
    assert log.total() == sum(d.count for d in views)
    tails = {}
    for d in views:
        tail = d.reason.split(":")[-1].strip()
        tails[tail] = tails.get(tail, 0) + d.count
    assert list(log.by_reason_tail().items()) == list(tails.items())
    before = sum(d.count for d in views if d.time <= t0)
    assert log.split_at(t0) == (before, log.total() - before)
    for node in (*NODES, "ghost"):
        assert log.at_node(node, t0, t1) == sum(
            d.count for d in views
            if d.node == node and t0 <= d.time <= t1
        )
    row = log.find(uid, start)
    assert row == _first([d.uid for d in views], start, uid)
    if row >= 0:
        assert log.node_of(row) == views[row].node
        assert log.reason_of(row) == views[row].reason


def _check(deliveries, drops, query):
    _check_deliveries(deliveries, query)
    _check_drops(drops, query)


@settings(max_examples=200, deadline=None)
@given(delivery_rows, drop_rows, queries)
def test_every_column_query_is_the_scan_of_the_views(deliveries, drops, query):
    _check(deliveries, drops, query)


def test_a_network_row_reads_back_as_its_view():
    net = _network()
    _traffic(net, "10.2.0.9", 20)
    _traffic(net, "10.9.0.9", 20)
    net.run(until=1.0)
    delivered, dropped = net.deliveries.views(), net.drops.views()
    assert len(delivered) == net.delivered_count() > 0
    assert all(isinstance(d, Delivery) and d.node == "ler-b"
               for d in delivered)
    assert net.latencies() == [d.latency for d in delivered]
    assert len(dropped) == net.drop_count() > 0
    assert {(d.node, d.reason.split(":")[-1].strip()) for d in dropped} == {
        ("ler-a", "no FEC matches packet to 10.9.0.9")
    }
    assert all(d.uid > 0 and d.count == 1 for d in dropped)


# -- the suite is not vacuous ----------------------------------------------
def _since_one_row_late(monkeypatch):
    since = DeliveryLog.arrivals_since
    monkeypatch.setattr(
        DeliveryLog, "arrivals_since",
        lambda self, start, max_flow: since(self, start + 1, max_flow),
    )


def _grouped_by_the_whole_reason(monkeypatch):
    def mutant(self):
        out = {}
        for reason, count in zip(self.reason, self.count):
            name = self.names[reason]
            out[name] = out.get(name, 0) + count
        return out

    monkeypatch.setattr(DropLog, "by_reason_tail", mutant)


@pytest.mark.parametrize(
    "mutate", [_since_one_row_late, _grouped_by_the_whole_reason]
)
def test_the_suite_catches_a_seeded_mutant(mutate, monkeypatch):
    mutate(monkeypatch)
    generated = settings(
        max_examples=200, deadline=None, database=None, derandomize=True,
        phases=(Phase.explicit, Phase.generate),
    )(given(delivery_rows, drop_rows, queries)(_check))
    with pytest.raises(AssertionError):
        generated()


# -- what a run keeps -----------------------------------------------------
def _network():
    topo = paper_figure1(bandwidth_bps=100e6, delay_s=1e-4)
    net = MPLSNetwork(topo, {"ler-a": RouterRole.LER, "ler-b": RouterRole.LER})
    net.attach_host("ler-b", "10.2.0.0/16")
    LDPProcess(topo, net.nodes).establish_fec(
        PrefixFEC("10.2.0.0/16"), egress="ler-b"
    )
    return net


def _traffic(net, dst, packets):
    """A 10 Mb/s CBR flow of ``packets`` 500-byte packets from now."""
    now = net.scheduler.now
    source = CBRSource(
        net.scheduler, net.source_sink("ler-a"), src="10.1.0.5", dst=dst,
        rate_bps=10e6, start=now, stop=now + packets * 520 * 8 / 10e6,
    )
    source.begin()
    return source


def _retained(dst, packets):
    """Bytes the live network keeps per packet of a run to ``dst``,
    after a short warm-up has interned the names and opened the
    tallies; the network stays alive throughout."""
    net = _network()
    source = _traffic(net, dst, packets)
    net.run(until=0.02)
    gc.collect()
    sent_before = source.sent
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        net.run(until=source.stop + 0.5)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return net, held / (source.sent - sent_before)


def test_a_delivered_packet_retains_at_most_64_bytes():
    net, per_packet = _retained("10.2.0.9", 2000)
    assert net.drop_count() == 0 and net.delivered_count() > 2000
    assert per_packet <= 64, per_packet


def test_a_drop_retains_at_most_64_bytes():
    net, per_drop = _retained("10.9.0.9", 2000)
    assert net.delivered_count() == 0 and net.drop_count() > 2000
    assert per_drop <= 64, per_drop


def _tracked_state(log):
    """Every object the collector tracks that a log's state reaches."""
    seen, tracked = set(), []
    todo = list(vars(log).values())
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            tracked.append(obj)
        todo.extend(gc.get_referents(obj))
    return tracked


def test_the_logs_keep_no_object_the_collector_tracks_per_row():
    net = _network()
    _traffic(net, "10.2.0.9", 500)
    _traffic(net, "10.9.0.9", 500)
    net.run(until=1.0)
    assert len(net.deliveries) > 400 and len(net.drops) > 400
    gc.collect()
    for log in (net.deliveries, net.drops):
        # the columns, the intern table and the per-flow tally: a fixed
        # handful of containers, however many rows were appended
        assert len(_tracked_state(log)) < 12


def test_no_program_reader_builds_a_view():
    """``views()`` is for tests and examples: every reader in
    ``src/repro`` queries the columns."""
    root = Path(network_mod.__file__).resolve().parents[1]
    callers = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "views"
    ]
    assert callers == []
