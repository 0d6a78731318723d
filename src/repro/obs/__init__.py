"""repro.obs — zero-dependency observability for the whole pipeline.

One :class:`Observability` object bundles a :class:`~repro.obs.tracer.Tracer`
(nested wall-time spans) and one :class:`~repro.obs.timeseries.Metrics`
registry (counters, gauges and quantile sketches on a deterministic
logical clock), threaded through every layer: the machine harvests
per-run hardware counts, campaigns count outcomes, the fleet pipeline
ticks the clock and records its series, and each experiment driver tags
its phase.  Usage::

    from repro import obs

    with obs.enabled() as o:              # install a collecting obs
        table6.run()
    o.export(trace_path="trace.jsonl", metrics_path="metrics.json")

    with obs.span("my.phase", detail=1):  # spans no-op when disabled
        ...

Design rules:

* **Disabled is the default and costs ~nothing.**  The module-level
  current obs starts as :data:`NULL_OBS`, whose tracer and metrics are
  shared no-op stubs; hot paths either check ``obs.enabled`` once per
  *run* (not per instruction) or call a no-op method.  The hardware
  counts the metrics layer reports (instructions retired, MESI bus
  traffic, ring writes, …) are maintained by the simulated hardware
  itself regardless, and harvested once at the end of each run.
* **Worker buffers merge.**  Pool workers run under their own
  collecting obs; their span/metric buffers return with each run result
  and the parent merges exactly the buffers of the runs a campaign
  consumed, at the tick it consumed them (see
  :mod:`repro.runtime.executor`), so traces and metric series are
  identical at any ``--jobs`` value and equal cache state.
* **One payload format, one at-rest format.**
  :meth:`Observability.to_payload` / :meth:`Observability.merge_payload`
  is the single serialization used for worker round-trips; JSONL traces
  and the metrics snapshot (:func:`repro.obs.timeseries.publish_snapshot`)
  are the at-rest formats (``repro obs report`` renders the former,
  ``repro obs watch`` the latter, ``repro obs flame`` collapses a
  trace into a folded-stack flame view).

Three sibling submodules extend the in-process buffers to at-rest
history and evidence: :mod:`repro.obs.ledger` (the persistent,
content-keyed run ledger behind ``repro obs trends`` / ``compare``),
:mod:`repro.obs.provenance` (per-ranked-event evidence records and
``repro obs explain``), and :mod:`repro.obs.flame` (folded-stack
collapsing of traces and sampled profiles).
"""

import contextlib

from repro.obs.timeseries import (
    Metrics,
    NULL_METRICS,
    NullMetrics,
    SnapshotNotWritten,
    build_snapshot,
    publish_snapshot,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer


class Observability:
    """A tracer + metrics bundle (see the module docstring)."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        if enabled:
            self.tracer = Tracer()
            self.metrics = Metrics()
        else:
            self.tracer = NULL_TRACER
            self.metrics = NULL_METRICS

    # -- convenience delegates ------------------------------------------

    def span(self, name, **attrs):
        return self.tracer.span(name, **attrs)

    def counter(self, name):
        return self.metrics.counter(name)

    def gauge(self, name):
        return self.metrics.gauge(name)

    def timer(self, name):
        """A stage timer into a timing sketch (no-op when disabled)."""
        return self.metrics.timer(name)

    # -- per-run harvest ------------------------------------------------

    def record_run(self, machine, seconds):
        """Harvest one finished machine's hardware counts.

        Called by :meth:`repro.machine.cpu.Machine.run` when this obs is
        enabled.  Everything read here is a counter the simulated
        hardware (or kernel) maintains anyway — harvesting is O(cores)
        per run, never per instruction.
        """
        metrics = self.metrics
        counter = metrics.counter
        counter("machine.runs").inc()
        counter("machine.instructions_retired").inc(machine.retired)
        counter("machine.instructions_user").inc(machine.retired_user)
        counter("machine.branches_taken").inc(machine.branches_taken)
        counter("machine.context_switches").inc(machine.context_switches)
        switches = getattr(machine.scheduler, "switches", None)
        if switches is not None:
            counter("scheduler.switches").inc(switches)
        bus = machine.bus
        counter("cache.hits").inc(bus.hit_count)
        counter("cache.bus_transactions").inc(bus.transaction_count)
        counter("cache.snoops").inc(bus.snoop_count)
        counter("cache.invalidations").inc(bus.invalidation_count)
        lbr_writes = lcr_writes = evictions = 0
        for core in machine.cores:
            lbr_writes += core.lbr.recorded_count
            lcr_writes += core.lcr.recorded_count
            evictions += core.cache.eviction_count
        counter("ring.lbr_writes").inc(lbr_writes)
        counter("ring.lcr_writes").inc(lcr_writes)
        counter("cache.evictions").inc(evictions)
        counter("hwop.dispatched").inc(sum(machine.hwop_counts.values()))
        counter("hwop.broadcast").inc(machine.hwop_broadcast_count)
        metrics.sketch("machine.run_seconds", timing=True).observe(seconds)
        metrics.sketch("machine.run_retired").observe(machine.retired)

    # -- worker buffer exchange -----------------------------------------

    def to_payload(self):
        """Serialize both buffers for shipping across processes."""
        return {"metrics": self.metrics.to_dict(),
                "spans": self.tracer.to_records()}

    def merge_payload(self, payload, span_root=None):
        """Merge a worker's :meth:`to_payload` buffers into this obs.

        Spans are re-rooted under *span_root* (default: the currently
        open span); the metric buffer lands at this obs's current tick
        (counters and sketches accumulate, gauge points overwrite per
        tick — order-independent by construction).
        """
        if not payload:
            return
        self.metrics.merge(payload.get("metrics"), self.metrics.now)
        self.tracer.absorb(payload.get("spans", ()), under=span_root)

    # -- export ---------------------------------------------------------

    def export(self, trace_path=None, metrics_path=None):
        """Write the JSONL trace and/or the metrics snapshot.

        The snapshot is the document ``repro triage --snapshot-out``
        publishes, marked complete.  Raises :class:`RuntimeError` on a
        disabled obs and :class:`SnapshotNotWritten` when the snapshot
        cannot be written.
        """
        if trace_path:
            self.tracer.export_jsonl(trace_path)
        if metrics_path:
            if not self.enabled:
                raise RuntimeError("cannot export disabled metrics; "
                                   "enable observability first")
            if not publish_snapshot(metrics_path, build_snapshot(
                    self.metrics, complete=True)):
                raise SnapshotNotWritten(metrics_path)


#: The shared disabled bundle: every layer's default obs.
NULL_OBS = Observability(enabled=False)

_current = NULL_OBS


def get_obs():
    """The currently installed :class:`Observability` (NULL when off)."""
    return _current


def set_obs(obs):
    """Install *obs* as current; returns the previously installed one."""
    global _current
    previous = _current
    _current = obs if obs is not None else NULL_OBS
    return previous


@contextlib.contextmanager
def use(obs):
    """Temporarily install *obs* as the current observability."""
    previous = set_obs(obs)
    try:
        yield obs
    finally:
        set_obs(previous)


def enabled():
    """Shorthand: ``use(Observability())`` — install a fresh collector."""
    return use(Observability())


def span(name, **attrs):
    """Open a span on the *current* obs (no-op when disabled)."""
    return _current.tracer.span(name, **attrs)


__all__ = [
    "Metrics",
    "NULL_METRICS",
    "NULL_OBS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "Observability",
    "Span",
    "Tracer",
    "enabled",
    "get_obs",
    "set_obs",
    "span",
    "use",
]
