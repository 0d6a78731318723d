"""Tests for the metrics registry and snapshots (repro.obs.timeseries)."""

import gc
import json
import math
import sys

import pytest

from repro.obs import NULL_OBS, Observability, get_obs
from repro.obs.timeseries import (
    DEFAULT_WINDOW,
    GaugeSeries,
    LogicalClock,
    Metrics,
    NotASnapshot,
    NULL_METRICS,
    QuantileSketch,
    SNAPSHOT_FORMAT_VERSION,
    WindowedCounter,
    build_snapshot,
    publish_snapshot,
    read_snapshot,
)


# -- logical clock ------------------------------------------------------

def test_clock_ticks_monotonically():
    clock = LogicalClock()
    assert clock.now == 0
    assert clock.tick() == 1
    assert clock.tick(3) == 4
    assert clock.now == 4


# -- windowed counter ---------------------------------------------------

def test_windowed_counter_buckets_by_clock_window():
    clock = LogicalClock()
    counter = WindowedCounter("events", clock, window=4)
    for _ in range(10):
        counter.inc()
        clock.tick()
    summary = counter.summary()
    assert summary["total"] == 10
    # ticks 0..9 with window 4: windows 0 (ticks 0-3), 1 (4-7), 2 (8-9)
    assert summary["buckets"] == {"0": 4, "1": 4, "2": 2}


# -- gauge series -------------------------------------------------------

def test_gauge_series_last_write_per_tick_wins():
    clock = LogicalClock()
    gauge = GaugeSeries("rank", clock)
    gauge.set(5)
    gauge.set(3)                      # same tick: overwrite
    clock.tick()
    gauge.set(1)
    assert gauge.last == 1
    assert gauge.summary()["points"] == [[0, 3], [1, 1]]


# -- quantile sketch ----------------------------------------------------

def test_sketch_quantiles_within_relative_error():
    sketch = QuantileSketch("lat", alpha=0.01)
    values = [0.001 * i for i in range(1, 1001)]
    for value in values:
        sketch.observe(value)
    for q in (0.5, 0.9, 0.99):
        exact = values[max(0, math.ceil(q * len(values)) - 1)]
        estimate = sketch.quantile(q)
        assert abs(estimate - exact) / exact <= 0.011


def test_sketch_zero_and_negative_share_the_zero_bucket():
    sketch = QuantileSketch("x")
    sketch.observe(0.0)
    sketch.observe(-3.0)
    sketch.observe(10.0)
    assert sketch.zero == 2
    assert sketch.quantile(0.1) == 0.0
    assert sketch.count == 3


def test_sketch_merge_is_exact_and_order_independent():
    serial = QuantileSketch("x")
    part_a = QuantileSketch("x")
    part_b = QuantileSketch("x")
    for index in range(200):
        value = 0.5 + (index % 17) * 0.25
        serial.observe(value)
        (part_a if index % 2 else part_b).observe(value)
    merged = QuantileSketch("x")
    merged.merge(part_a.summary())
    merged.merge(part_b.summary())
    merged.merge(QuantileSketch("x").summary())     # empty: no effect
    assert merged.summary() == serial.summary()
    assert QuantileSketch.from_summary(serial.summary()).summary() \
        == serial.summary()
    # Reverse merge order: byte-identical summaries either way.
    other = QuantileSketch("x")
    other.merge(part_b.summary())
    other.merge(part_a.summary())
    assert other.summary() == merged.summary()


def test_sketch_merge_rejects_alpha_mismatch():
    sketch = QuantileSketch("x", alpha=0.01)
    foreign = QuantileSketch("x", alpha=0.05)
    foreign.observe(1.0)
    with pytest.raises(ValueError):
        sketch.merge(foreign.summary())


# -- registry -----------------------------------------------------------

def test_registry_instruments_are_cached_by_name():
    metrics = Metrics()
    assert metrics.counter("a") is metrics.counter("a")
    assert metrics.gauge("g") is metrics.gauge("g")
    assert metrics.sketch("s") is metrics.sketch("s")
    assert metrics.counter("a") is not metrics.counter("b")


def test_timer_observes_into_a_timing_sketch():
    metrics = Metrics()
    with metrics.timer("stage.x.seconds"):
        pass
    sketch = metrics.sketch("stage.x.seconds")
    assert sketch.timing is True
    assert sketch.count == 1


# -- the null registry --------------------------------------------------

def test_null_timeseries_hands_out_singletons():
    assert NULL_METRICS.counter("a") is NULL_METRICS.counter("b")
    assert NULL_METRICS.gauge("a") is NULL_METRICS.sketch("b")
    assert NULL_METRICS.timer("a") is NULL_METRICS.timer("b")
    assert NULL_METRICS.tick() == 0
    assert NULL_METRICS.now == 0


def test_null_timeseries_instruments_do_nothing(tmp_path):
    instrument = NULL_METRICS.counter("x")
    instrument.inc(10)
    instrument.set(3)
    instrument.observe(1.0)
    assert instrument.total == 0
    assert instrument.quantile(0.5) is None
    with NULL_METRICS.timer("t"):
        pass
    assert NULL_METRICS.to_dict() == Metrics().to_dict()
    # Inert, but loud when asked to export.
    with pytest.raises(RuntimeError):
        NULL_OBS.export(metrics_path=str(tmp_path / "nope.json"))
    assert not (tmp_path / "nope.json").exists()


def _touch_disabled_instruments():
    """One pass over every disabled-path instrument a hot loop sees."""
    obs = get_obs()
    obs.counter("x").inc()
    obs.gauge("x").set(1)
    metrics = obs.metrics
    metrics.tick()
    metrics.counter("x").inc()
    metrics.gauge("x").set(1)
    metrics.sketch("x").observe(1.0)
    with metrics.timer("x"):
        pass
    with obs.timer("x"):
        pass


def test_disabled_path_is_allocation_free():
    """Disabled instruments are shared singletons, so a hot loop over
    them allocates nothing — no per-call instrument objects, no buffer
    growth."""
    assert get_obs() is NULL_OBS
    for _ in range(100):               # warm up any lazy caches
        _touch_disabled_instruments()
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(5000):
        _touch_disabled_instruments()
    delta = sys.getallocatedblocks() - before
    # Interpreter bookkeeping can wobble a block or two; per-call
    # allocations would show up as thousands.
    assert abs(delta) <= 16, (
        "disabled-path loop leaked %d allocated blocks" % delta)
    # And nothing was recorded anywhere.
    assert NULL_METRICS.now == 0
    assert NULL_METRICS.to_dict() == Metrics().to_dict()


def test_obs_bundle_wires_the_timeseries():
    obs = Observability()
    assert isinstance(obs.metrics, Metrics)
    assert NULL_OBS.metrics is NULL_METRICS
    with obs.timer("stage.y.seconds"):
        pass
    obs.counter("machine.runs").inc()
    series = obs.metrics.to_dict()
    assert series["sketches"]["stage.y.seconds"]["count"] == 1
    assert series["windowed"]["machine.runs"]["total"] == 1


# -- snapshots ----------------------------------------------------------

def test_snapshot_roundtrip(tmp_path):
    metrics = Metrics()
    metrics.tick(4)
    metrics.counter("runs").inc(4)
    snapshot = build_snapshot(metrics, fleet={"reports": 4}, complete=True)
    assert snapshot["version"] == SNAPSHOT_FORMAT_VERSION
    path = tmp_path / "snap.json"
    assert publish_snapshot(str(path), snapshot)
    loaded = read_snapshot(str(path))
    assert loaded["complete"] is True
    assert loaded["clock"] == 4
    assert loaded["series"]["windowed"]["runs"]["total"] == 4
    assert loaded["fleet"] == {"reports": 4}
    # One-shot encoding: the file holds exactly the sorted dump.
    assert path.read_text() == json.dumps(snapshot, sort_keys=True) + "\n"

def test_publish_snapshot_is_atomic(tmp_path):
    path = tmp_path / "snap.json"
    metrics = Metrics()
    publish_snapshot(str(path), build_snapshot(metrics))
    publish_snapshot(str(path), build_snapshot(metrics, complete=True))
    # No temp droppings left behind.
    assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]
    assert read_snapshot(str(path))["complete"] is True


def test_read_snapshot_rejects_non_snapshots(tmp_path):
    path = tmp_path / "not.json"
    path.write_text("{\"foo\": 1}\n")
    with pytest.raises(NotASnapshot):
        read_snapshot(str(path))
    path.write_text("not json at all")
    with pytest.raises(NotASnapshot):
        read_snapshot(str(path))


def test_default_window_constant():
    metrics = Metrics()
    assert metrics.counter("x").window == DEFAULT_WINDOW
