"""The metrics registry: counts, gauges and sketches on a logical clock.

:class:`Metrics` is the one registry :class:`~repro.obs.Observability`
carries (``obs.metrics``).  It answers both "how much happened?" (every
counter keeps a total) and "how much happened *when*?" — while staying
inside the repo's determinism contract.  Wall clocks are useless as
series keys here: the same work takes different wall time on either VM
backend, from a warm cache, or on another host, so any wall-time
bucketing would make telemetry diverge across them.  Instead every
series is keyed by a **logical clock**: a counter the pipeline advances
at deterministic progress points (one tick per ingested fleet report,
one tick per consumed campaign run).  Because consumption order is plan
order, the logical clock, and therefore every deterministic series, is
bit-identical across backends and hosts.

Three instrument families:

* :class:`WindowedCounter` (``metrics.counter``) — a total plus event
  counts bucketed by logical-clock window (``tick // window``),
  yielding throughput-per-window curves;
* :class:`GaugeSeries` (``metrics.gauge``) — ``(tick, value)`` samples,
  last write per tick wins: rank-of-true-cause trajectories, cluster
  counts;
* :class:`QuantileSketch` (``metrics.sketch``) — a log-bucketed
  quantile sketch (DDSketch-style): observations land in geometric
  buckets, so two sketches of the same observations are identical in
  any observation order, and a sketch rebuilds exactly from its
  summary (:meth:`QuantileSketch.from_summary`, which ``repro obs
  watch`` reads).  Sketches tagged ``timing=True`` (every
  ``metrics.timer``) hold wall-clock observations; they render, but
  only their counts are deterministic, so they sit outside the
  deterministic series that ``tests/obs/test_snapshot_counts.py``
  checks.

When observability is off the shared :data:`NULL_METRICS` hands out
cached no-op singletons whose methods allocate nothing — pinned by
``tests/obs/test_timeseries.py``.

Snapshots: :func:`publish_snapshot` atomically writes a JSON snapshot
file (temp file + ``os.replace``, the run cache's publication
discipline).  It is the one at-rest format: ``--metrics-out`` and
``repro triage --snapshot-out`` both write it, and ``repro obs watch``
tails it.
"""

import json
import math
import os
import tempfile
import time

#: Bump when the snapshot / series layout changes incompatibly.
SNAPSHOT_FORMAT_VERSION = 1

#: Default logical-clock window for counters.
DEFAULT_WINDOW = 16

#: Default relative accuracy of quantile sketches: bucket boundaries
#: grow geometrically by (1+alpha)/(1-alpha), giving quantile estimates
#: within ±alpha relative error.
DEFAULT_ALPHA = 0.01


class LogicalClock:
    """A deterministic progress counter (see the module docstring)."""

    __slots__ = ("now",)

    def __init__(self, now=0):
        self.now = now

    def tick(self, n=1):
        """Advance the clock by *n* progress events; returns the time."""
        self.now += n
        return self.now


class WindowedCounter:
    """A monotonic total plus its counts per logical-clock window."""

    __slots__ = ("name", "window", "buckets", "total", "_clock")

    def __init__(self, name, clock, window=DEFAULT_WINDOW):
        self.name = name
        self.window = window
        self.buckets = {}
        self.total = 0
        self._clock = clock

    def inc(self, n=1):
        self.total += n
        bucket = self._clock.now // self.window
        self.buckets[bucket] = self.buckets.get(bucket, 0) + n

    def summary(self):
        return {"window": self.window, "total": self.total,
                "buckets": {str(k): v
                            for k, v in sorted(self.buckets.items())}}


class GaugeSeries:
    """``(tick, value)`` samples; the last write per tick wins."""

    __slots__ = ("name", "points", "_clock")

    def __init__(self, name, clock):
        self.name = name
        self.points = {}
        self._clock = clock

    def set(self, value):
        self.points[self._clock.now] = value

    @property
    def last(self):
        if not self.points:
            return None
        return self.points[max(self.points)]

    def summary(self):
        return {"points": [[tick, self.points[tick]]
                           for tick in sorted(self.points)]}


class QuantileSketch:
    """Mergeable log-bucketed quantile sketch (DDSketch-style).

    An observation *v* > 0 lands in bucket ``ceil(log_gamma(v))`` with
    ``gamma = (1+alpha)/(1-alpha)``; zero and negative values share a
    dedicated bucket.  Bucket keys are integers, so two sketches built
    from the same multiset of observations are *identical* dicts no
    matter the observation or merge order.
    """

    __slots__ = ("name", "alpha", "timing", "count", "total", "zero",
                 "buckets", "_log_gamma")

    def __init__(self, name, alpha=DEFAULT_ALPHA, timing=False):
        self.name = name
        self.alpha = alpha
        self.timing = timing
        self.count = 0
        self.total = 0.0
        self.zero = 0                 # observations <= 0
        self.buckets = {}
        self._log_gamma = math.log((1.0 + alpha) / (1.0 - alpha))

    @classmethod
    def from_summary(cls, summary):
        """Rebuild a sketch from its serialized :meth:`summary`."""
        sketch = cls("", alpha=summary.get("alpha", DEFAULT_ALPHA),
                     timing=summary.get("timing", False))
        sketch.merge(summary)
        return sketch

    def observe(self, value):
        self.count += 1
        self.total += value
        if value <= 0.0:
            self.zero += 1
            return
        key = math.ceil(math.log(value) / self._log_gamma)
        self.buckets[key] = self.buckets.get(key, 0) + 1

    def quantile(self, q):
        """The estimated *q*-quantile (0 <= q <= 1), or ``None``."""
        if not self.count:
            return None
        rank = max(0, math.ceil(q * self.count) - 1)
        if rank < self.zero:
            return 0.0
        seen = self.zero
        for key in sorted(self.buckets):
            seen += self.buckets[key]
            if rank < seen:
                # The bucket's midpoint in value space: within ±alpha
                # of every observation that landed in it.
                return (2.0 * math.exp(key * self._log_gamma)
                        / (math.exp(self._log_gamma) + 1.0))
        return None                    # pragma: no cover (unreachable)

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def summary(self):
        return {"alpha": self.alpha, "timing": self.timing,
                "count": self.count, "sum": self.total,
                "zero": self.zero,
                "buckets": {str(k): v
                            for k, v in sorted(self.buckets.items())}}

    def merge(self, summary):
        if summary.get("alpha", self.alpha) != self.alpha:
            raise ValueError(
                "cannot merge sketches with different accuracy "
                "(alpha %r vs %r)" % (summary.get("alpha"), self.alpha))
        self.count += summary.get("count", 0)
        self.total += summary.get("sum", 0.0)
        self.zero += summary.get("zero", 0)
        for key, value in summary.get("buckets", {}).items():
            bucket = int(key)
            self.buckets[bucket] = self.buckets.get(bucket, 0) + value


class _Timer:
    """Context manager observing elapsed wall seconds into a sketch."""

    __slots__ = ("_sketch", "_started")

    def __init__(self, sketch):
        self._sketch = sketch
        self._started = None

    def __enter__(self):
        self._started = time.perf_counter()
        return self

    def __exit__(self, *_exc):
        self._sketch.observe(time.perf_counter() - self._started)
        return False


class Metrics:
    """Registry of named instruments on one logical clock.

    Instruments are created on first use and live for the registry's
    lifetime, so hot code can hold a direct reference.
    """

    def __init__(self, clock=None, window=DEFAULT_WINDOW):
        self.clock = clock if clock is not None else LogicalClock()
        self.window = window
        self._counters = {}
        self._gauges = {}
        self._sketches = {}

    # -- the clock ------------------------------------------------------

    def tick(self, n=1):
        """Advance the logical clock by *n* deterministic events."""
        return self.clock.tick(n)

    @property
    def now(self):
        return self.clock.now

    # -- instruments ----------------------------------------------------

    def counter(self, name, window=None):
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = WindowedCounter(
                name, self.clock, window=window or self.window)
        return instrument

    def gauge(self, name):
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = GaugeSeries(name, self.clock)
        return instrument

    def sketch(self, name, timing=False, alpha=DEFAULT_ALPHA):
        instrument = self._sketches.get(name)
        if instrument is None:
            instrument = self._sketches[name] = QuantileSketch(
                name, alpha=alpha, timing=timing)
        return instrument

    def timer(self, name):
        """A context manager timing a stage into sketch *name*.

        Timer sketches are tagged ``timing=True`` — they hold wall
        clock, so they render, but only their counts are
        deterministic.
        """
        return _Timer(self.sketch(name, timing=True))

    # -- serialization --------------------------------------------------

    def to_dict(self):
        """Snapshot as a plain (picklable, JSON-serializable) dict."""
        return {
            "clock": self.clock.now,
            "window": self.window,
            "windowed": {n: c.summary()
                         for n, c in sorted(self._counters.items())},
            "gauges": {n: g.summary()
                       for n, g in sorted(self._gauges.items())},
            "sketches": {n: s.summary()
                         for n, s in sorted(self._sketches.items())},
        }


class _NullTimer:
    """Shared do-nothing timer: the disabled stage-timing path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False


class _NullInstrument:
    """Shared no-op counter / gauge / sketch."""

    __slots__ = ()

    total = 0
    last = None
    count = 0
    mean = 0.0

    def inc(self, n=1):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass

    def quantile(self, q):
        return None

    def summary(self):
        return {}


_NULL_TIMER = _NullTimer()
_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """No-op registry: every accessor returns a cached singleton.

    The disabled path must be allocation-free — hot pipeline stages call
    ``metrics.tick()`` / ``metrics.timer(...)`` unconditionally, so
    handing out fresh objects here would turn "observability off" into
    a steady allocation stream.
    """

    __slots__ = ()

    now = 0

    def tick(self, n=1):
        return 0

    def counter(self, _name, window=None):
        return _NULL_INSTRUMENT

    def gauge(self, _name):
        return _NULL_INSTRUMENT

    def sketch(self, _name, timing=False, alpha=DEFAULT_ALPHA):
        return _NULL_INSTRUMENT

    def timer(self, _name):
        return _NULL_TIMER

    def to_dict(self):
        return {"clock": 0, "window": DEFAULT_WINDOW, "windowed": {},
                "gauges": {}, "sketches": {}}


NULL_METRICS = NullMetrics()


# ----------------------------------------------------------------------
# Snapshot files
# ----------------------------------------------------------------------

def build_snapshot(metrics, fleet=None, executor=None, wall=None,
                   complete=False):
    """Assemble the snapshot dict ``repro obs watch`` reads.

    ``series`` holds the registry (deterministic series plus timing
    sketches, tagged); ``fleet``/``executor``/``wall`` are free-form
    sections for the dashboard — the executor and wall sections are
    venue/timing data, outside the deterministic series.
    """
    return {
        "version": SNAPSHOT_FORMAT_VERSION,
        "complete": bool(complete),
        "clock": metrics.now,
        "series": metrics.to_dict(),
        "fleet": fleet or {},
        "executor": executor or {},
        "wall": wall or {},
        "updated_at": time.time(),
    }


def publish_snapshot(path, snapshot):
    """Atomically write *snapshot* to *path* (temp file + rename).

    Readers (``repro obs watch``) therefore always see a complete JSON
    document, never a torn write — the same publication discipline the
    run cache uses.  The document is encoded in one shot and written in
    one call.  Best-effort: returns False instead of raising when the
    file cannot be written, so a full disk does not take the pipeline
    down.
    """
    text = json.dumps(snapshot, sort_keys=True) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    temp_path = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(temp_path, path)
        temp_path = None
        return True
    except OSError:
        return False
    finally:
        if temp_path is not None:
            try:
                os.unlink(temp_path)
            except OSError:
                pass


class SnapshotNotWritten(OSError):
    """The snapshot a command was asked to write did not land."""

    def __init__(self, path):
        super().__init__("could not write the snapshot to %s" % path)


class NotASnapshot(ValueError):
    """The given file is not a telemetry snapshot."""


def read_snapshot(path):
    """Read a snapshot file back; raises :class:`NotASnapshot`."""
    try:
        with open(path) as handle:
            snapshot = json.load(handle)
    except json.JSONDecodeError as exc:
        raise NotASnapshot("not a telemetry snapshot: %s is not JSON "
                           "(%s)" % (path, exc)) from None
    if not isinstance(snapshot, dict) or "series" not in snapshot \
            or "clock" not in snapshot:
        raise NotASnapshot(
            "not a telemetry snapshot: %s lacks the series/clock keys "
            "(expected a file written by `--metrics-out` or `repro "
            "triage --snapshot-out`)" % path)
    return snapshot


__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_WINDOW",
    "GaugeSeries",
    "LogicalClock",
    "Metrics",
    "NotASnapshot",
    "NULL_METRICS",
    "NullMetrics",
    "QuantileSketch",
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotNotWritten",
    "WindowedCounter",
    "build_snapshot",
    "publish_snapshot",
    "read_snapshot",
]
