"""The registry read as plain instruments: counter totals, gauge last
values and sketch count/sum/extremes, their merge, and the no-op path.

The logical-clock view of the same registry (windows, tick offsets,
snapshots) is covered by ``tests/obs/test_timeseries.py``.
"""

import pytest

from repro.obs import NULL_OBS, Observability
from repro.obs.timeseries import (
    DEFAULT_ALPHA,
    NULL_METRICS,
    Metrics,
    QuantileSketch,
)


def _within_alpha(estimate, value):
    """A sketch estimate is within the sketch's relative accuracy."""
    return abs(estimate - value) <= DEFAULT_ALPHA * value * (1 + 1e-9)


def test_instruments_are_cached_by_name():
    metrics = Metrics()
    assert metrics.counter("c") is metrics.counter("c")
    assert metrics.gauge("g") is metrics.gauge("g")
    assert metrics.sketch("h") is metrics.sketch("h")
    # The bundle's delegates and its timer reach the same instruments.
    obs = Observability()
    assert obs.counter("c") is obs.metrics.counter("c")
    assert obs.gauge("g") is obs.metrics.gauge("g")
    with obs.timer("t"):
        pass
    assert obs.metrics.sketch("t").count == 1


def test_counter_gauge_histogram_basics():
    metrics = Metrics()
    metrics.counter("runs").inc()
    metrics.counter("runs").inc(4)
    metrics.gauge("jobs").set(8)
    for value in (2.0, 1.0, 4.0):
        metrics.sketch("dur").observe(value)
    snapshot = metrics.to_dict()
    assert snapshot["windowed"]["runs"]["total"] == 5
    assert snapshot["gauges"]["jobs"] == {"points": [[0, 8]]}
    assert metrics.gauge("jobs").last == 8
    dur = snapshot["sketches"]["dur"]
    assert (dur["count"], dur["sum"]) == (3, 7.0)
    sketch = metrics.sketch("dur")
    assert sketch.mean == pytest.approx(7.0 / 3)
    # min and max are the extreme quantiles, within the sketch's alpha.
    assert _within_alpha(sketch.quantile(0.0), 1.0)
    assert _within_alpha(sketch.quantile(1.0), 4.0)


def test_merge_accumulates_counters_and_histograms():
    parent = Metrics()
    parent.counter("runs").inc(2)
    parent.gauge("jobs").set(1)
    parent.sketch("dur").observe(5.0)
    worker = Metrics()
    worker.counter("runs").inc(3)
    worker.counter("only.worker").inc()
    worker.gauge("jobs").set(8)
    worker.sketch("dur").observe(1.0)
    worker.sketch("dur").observe(9.0)

    parent.merge(worker.to_dict(), parent.now)
    assert parent.counter("runs").total == 5
    assert parent.counter("only.worker").total == 1
    assert parent.gauge("jobs").last == 8          # last write wins
    serial = QuantileSketch("dur")
    for value in (5.0, 1.0, 9.0):
        serial.observe(value)
    assert parent.sketch("dur").summary() == serial.summary()
    assert _within_alpha(parent.sketch("dur").quantile(0.0), 1.0)
    assert _within_alpha(parent.sketch("dur").quantile(1.0), 9.0)


def test_merge_skips_empty_histograms():
    parent = Metrics()
    parent.sketch("dur").observe(2.0)
    before = parent.to_dict()
    parent.merge({"sketches": {"dur": QuantileSketch("dur").summary()}}, 0)
    assert parent.sketch("dur").count == 1
    assert _within_alpha(parent.sketch("dur").quantile(0.0), 2.0)
    assert parent.to_dict() == before
    # An empty or missing payload leaves the registry and clock alone.
    parent.merge({}, 5)
    parent.merge(None, 5)
    assert parent.to_dict() == before


def test_null_metrics_is_inert_but_loud_on_export(tmp_path):
    NULL_METRICS.counter("x").inc(10)
    NULL_METRICS.gauge("x").set(10)
    NULL_METRICS.sketch("x").observe(10)
    assert NULL_METRICS.counter("x").total == 0
    assert NULL_METRICS.gauge("x").last is None
    assert NULL_METRICS.sketch("x").count == 0
    assert NULL_METRICS.to_dict() == Metrics().to_dict()
    NULL_METRICS.merge({"windowed": {"x": {"total": 3}}}, 0)   # still inert
    assert NULL_METRICS.to_dict() == Metrics().to_dict()
    with pytest.raises(RuntimeError):
        NULL_OBS.export(metrics_path=str(tmp_path / "nope.json"))
    assert not (tmp_path / "nope.json").exists()
