"""Unit tests for the sim-time tracer and the metrics registry."""

from repro.sim import Simulator
from repro.trace import Counter, Histogram, MetricsRegistry, Tracer


def make_tracer(**kwargs):
    sim = Simulator()
    return sim, Tracer(sim, **kwargs).attach()


def _sleep(ms):
    yield ms


def advance(sim, ms):
    p = sim.spawn(_sleep(ms))
    sim.run_until_process(p, limit=10)


def test_attach_installs_on_simulator():
    sim = Simulator()
    assert sim.tracer is None
    tracer = Tracer(sim).attach()
    assert sim.tracer is tracer


def test_instant_records_current_sim_time():
    sim, tracer = make_tracer()
    advance(sim, 2.5)
    tracer.instant("mark", owner="msp1", detail=7)
    (event,) = tracer.events
    assert event.ph == "i"
    assert event.ts == 2.5
    assert event.owner == "msp1"
    assert event.args == {"detail": 7}


def test_span_measures_sim_duration_and_feeds_histogram():
    sim, tracer = make_tracer()
    span = tracer.span("work", owner="msp1", lsn=42)
    advance(sim, 3.0)
    span.end(outcome="ok")
    (event,) = tracer.events
    assert event.ph == "X"
    assert event.ts == 0.0
    assert event.dur == 3.0
    assert event.args == {"lsn": 42, "outcome": "ok"}
    hist = tracer.metrics.histograms["span.work_ms"]
    assert hist.count == 1
    assert hist.total == 3.0


def test_span_end_is_idempotent():
    sim, tracer = make_tracer()
    span = tracer.span("work")
    span.end(outcome="ok")
    advance(sim, 5.0)
    span.end(outcome="late")  # must not re-emit or overwrite
    (event,) = tracer.events
    assert event.dur == 0.0
    assert event.args == {"outcome": "ok"}


def test_finalize_closes_open_spans_as_truncated():
    sim, tracer = make_tracer()
    span = tracer.span("interrupted", owner="msp2")
    advance(sim, 1.0)
    assert tracer.open_spans() == [span]
    tracer.finalize()
    assert tracer.open_spans() == []
    (event,) = tracer.events
    assert event.args["truncated"] is True
    assert event.dur == 1.0


def test_max_events_bounds_the_list_and_counts_drops():
    sim, tracer = make_tracer(max_events=3)
    for i in range(5):
        tracer.instant(f"e{i}")
    assert len(tracer.events) == 3
    assert tracer.dropped_events == 2
    assert tracer.summary()["dropped_events"] == 2


def test_summary_counts_events_by_name():
    sim, tracer = make_tracer()
    tracer.instant("a")
    tracer.instant("a")
    tracer.span("b").end()
    summary = tracer.summary()
    assert summary["events"] == 3
    assert summary["events_by_name"] == {"a": 2, "b": 1}
    assert summary["open_spans"] == 0


def test_counter_and_registry():
    registry = MetricsRegistry()
    registry.inc("flush.stale_acks")
    registry.inc("flush.stale_acks", 2)
    assert registry.counters["flush.stale_acks"].value == 3
    registry.set("net.in_flight", 5)
    assert registry.counters["net.in_flight"].value == 5
    assert isinstance(registry.counter("flush.stale_acks"), Counter)


def test_histogram_quantiles_and_dict():
    hist = Histogram("lat")
    for value in (500.0, 5.0, 0.5, 50.0):
        hist.observe(value)
    assert hist.count == 4
    assert hist.min == 0.5
    assert hist.max == 500.0
    assert hist.mean == sum((0.5, 5.0, 50.0, 500.0)) / 4
    # Quantiles are observed samples, picked by nearest rank.
    assert hist.quantile(0.25) == 0.5
    assert hist.quantile(0.5) == 5.0
    assert hist.quantile(1.0) == 500.0
    data = hist.to_dict()
    assert data["count"] == 4
    assert data["p50"] == 5.0
    assert data["p95"] == data["p99"] == 500.0
    assert "buckets" not in data


def test_empty_histogram_is_safe():
    hist = Histogram("empty")
    assert hist.mean == 0.0
    assert hist.quantile(0.99) == 0.0
    assert hist.to_dict()["count"] == 0


def test_disabled_tracer_leaves_simulator_untouched():
    # The contract every instrumentation site relies on: a fresh
    # simulator has tracer None, so the guard branch costs one load.
    sim = Simulator()
    assert sim.tracer is None
