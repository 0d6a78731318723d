"""OpenMetrics text exposition of telemetry snapshots.

``repro obs export`` renders a snapshot file (published by
``repro triage --snapshot-out`` or written by ``--metrics-out``) — or a
snapshot reconstructed from the run ledger's triage entries — in the
OpenMetrics text format (Prometheus exposition): ``# TYPE``/``# HELP``
metadata lines, one sample per line, terminated by ``# EOF``.

The default export surface is **deterministic only**: counters, gauge
series, and non-timing sketches, all keyed by the logical clock.
Timing sketches (stage and run latency) and the executor/wall snapshot
sections hold wall-clock venue data, so they are excluded unless
``include_timings=True`` — this exclusion is what makes
``repro triage --jobs 1`` and ``--jobs 4`` export byte-identical
bodies, the property ``tests/obs/test_merge_invariance.py`` pins.

Metric naming: series name dots become underscores under a ``repro_``
prefix (``fleet.reports`` → ``repro_fleet_reports``).  A series whose
last dotted segment looks like a per-signature label (the fleet
pipeline emits ``fleet.rank_of_true_cause.<sig>``) keeps the family
name and carries the segment as a ``key`` label, so one Prometheus
query covers the whole family.
"""

import re

from repro.obs.timeseries import (
    DEFAULT_ALPHA,
    Metrics,
    QuantileSketch,
    build_snapshot,
)

#: Quantiles rendered for each sketch family.
EXPORT_QUANTILES = (0.5, 0.9, 0.95, 0.99)

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")

#: Series families whose trailing dotted segment is a label value
#: (per-signature series), not part of the metric name.
LABELED_FAMILIES = (
    "fleet.rank_of_true_cause",
    "fleet.runs_to_rank1",
)


def _metric_name(series_name):
    """``(openmetrics_name, label, family)`` for one series name."""
    label = None
    for family in LABELED_FAMILIES:
        if series_name.startswith(family + "."):
            label = series_name[len(family) + 1:]
            series_name = family
            break
    return ("repro_" + _NAME_OK.sub("_", series_name), label,
            series_name)


def _format_value(value):
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return "%.10g" % value


def _label_str(pairs):
    if not pairs:
        return ""
    return "{%s}" % ",".join('%s="%s"' % (key, value)
                             for key, value in pairs)


class _Family:
    """One OpenMetrics metric family: metadata plus sample lines."""

    def __init__(self, name, kind, help_text):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.samples = []

    def add(self, suffix, labels, value):
        self.samples.append("%s%s%s %s" % (self.name, suffix,
                                           _label_str(labels),
                                           _format_value(value)))

    def lines(self):
        out = ["# TYPE %s %s" % (self.name, self.kind),
               "# HELP %s %s" % (self.name, self.help)]
        out.extend(self.samples)
        return out


def render_openmetrics(snapshot, include_timings=False):
    """Render *snapshot* as OpenMetrics text (ends with ``# EOF``)."""
    series = snapshot.get("series", {})
    families = {}

    def family(name, kind, help_text):
        existing = families.get(name)
        if existing is None:
            existing = families[name] = _Family(name, kind, help_text)
        return existing

    clock = family("repro_logical_clock", "counter",
                   "Deterministic pipeline progress counter.")
    clock.add("_total", (), snapshot.get("clock", 0))

    for series_name, summary in sorted(
            series.get("windowed", {}).items()):
        name, label, base_name = _metric_name(series_name)
        fam = family(name, "counter",
                     "Windowed counter %s (logical-clock windows of %s)."
                     % (base_name, summary.get("window")))
        base = (("key", label),) if label else ()
        fam.add("_total", base, summary.get("total", 0))
        for bucket, count in sorted(summary.get("buckets", {}).items(),
                                    key=lambda item: int(item[0])):
            fam.add("_window", base + (("window", bucket),), count)

    for series_name, summary in sorted(series.get("gauges", {}).items()):
        name, label, base_name = _metric_name(series_name)
        fam = family(name, "gauge",
                     "Gauge series %s sampled at logical-clock ticks."
                     % base_name)
        base = (("key", label),) if label else ()
        points = summary.get("points", ())
        for tick, value in points:
            fam.add("", base + (("tick", str(tick)),), value)

    for series_name, summary in sorted(
            series.get("sketches", {}).items()):
        if summary.get("timing") and not include_timings:
            continue
        name, label, base_name = _metric_name(series_name)
        fam = family(name, "summary",
                     "Quantile sketch %s (relative error %s)."
                     % (base_name, summary.get("alpha",
                                               DEFAULT_ALPHA)))
        base = (("key", label),) if label else ()
        sketch = QuantileSketch.from_summary(summary)
        for q in EXPORT_QUANTILES:
            fam.add("", base + (("quantile", _format_value(q)),),
                    sketch.quantile(q))
        fam.add("_count", base, summary.get("count", 0))
        fam.add("_sum", base, summary.get("sum", 0.0))

    lines = []
    for name in sorted(families):
        lines.extend(families[name].lines())
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def snapshot_from_ledger(ledger, kind="triage"):
    """Rebuild a telemetry snapshot from the ledger's obs payloads.

    Each triage invocation's fleet-summary entry (``kind="triage"``,
    ``workload="fleet"``) records that invocation's cumulative metrics
    buffer under the timing-exempt ``obs`` bucket; merging the buffers
    in seq order, each at tick 0, reconstructs the fleet's aggregate
    series — the offline twin of the live snapshot file.  Returns
    ``None`` when no entry carries telemetry (pre-telemetry ledgers).
    """
    metrics = Metrics()
    merged = 0
    for entry in ledger.entries(kind=kind, workload="fleet"):
        payload = (entry.get("obs") or {}).get("timeseries")
        if not payload:
            continue
        metrics.merge(payload, 0)
        merged += 1
    if not merged:
        return None
    return build_snapshot(metrics, complete=True,
                          fleet={"source": "ledger",
                                 "entries": merged})


__all__ = [
    "EXPORT_QUANTILES",
    "render_openmetrics",
    "snapshot_from_ledger",
]
