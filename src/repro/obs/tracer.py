"""Structured tracing: nested spans with wall time and attributes.

A :class:`Tracer` records *spans* — named, nested intervals of wall
time with arbitrary key/value attributes::

    with tracer.span("diagnose.lbra", workload="sort") as sp:
        with tracer.span("campaign.failing"):
            ...
        sp.set(profiles=10)

Every finished span becomes one flat record ``{"name", "path", "start",
"dur", "attrs"}``; ``path`` is the "/"-joined chain of enclosing span
names, so the tree shape survives flattening and two traces can be
compared structurally (the executor relies on this: a campaign traced
on either VM backend, or replayed from the run cache, produces the
same span tree, because run spans are always created — or synthesized
for a replay — at consumption time, in plan order).

:meth:`Tracer.export_jsonl` / :func:`read_jsonl_tolerant` round-trip a
trace through a ``.jsonl`` file for ``repro obs report``.

The module is zero-dependency and the disabled path is allocation-free:
:data:`NULL_TRACER` hands out one shared no-op span whose enter/exit do
nothing.
"""

import json
import time


def _jsonable(value):
    """Coerce an attribute value to something JSON-serializable."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class Span:
    """One live span; use as a context manager (see :class:`Tracer`)."""

    __slots__ = ("_tracer", "name", "path", "start", "attrs")

    def __init__(self, tracer, name, attrs):
        self._tracer = tracer
        self.name = name
        self.path = None
        self.start = None
        self.attrs = attrs

    def set(self, **attrs):
        """Attach (or overwrite) attributes on this span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        tracer = self._tracer
        stack = tracer._stack
        parent = stack[-1] if stack else ""
        self.path = parent + "/" + self.name if parent else self.name
        stack.append(self.path)
        self.start = time.perf_counter() - tracer.epoch
        return self

    def __exit__(self, *_exc):
        tracer = self._tracer
        tracer._stack.pop()
        tracer.records.append({
            "name": self.name,
            "path": self.path,
            "start": self.start,
            "dur": (time.perf_counter() - tracer.epoch) - self.start,
            "attrs": {k: _jsonable(v) for k, v in self.attrs.items()},
        })
        return False


class Tracer:
    """Collects span records (see the module docstring)."""

    def __init__(self):
        self.epoch = time.perf_counter()
        self.records = []
        self._stack = []

    # -- recording ------------------------------------------------------

    def span(self, name, **attrs):
        """Open a span named *name*; returns a context manager."""
        return Span(self, name, attrs)

    def current_path(self):
        """The "/"-joined path of the innermost open span ("" at root)."""
        return self._stack[-1] if self._stack else ""

    def record_complete(self, name, duration, attrs=None):
        """Record an already-measured span as a child of the open span.

        Used for work whose wall time was measured elsewhere — a run
        replayed from the run cache — so the trace keeps one
        ``interp.run`` span per consumed run whether it executed or
        replayed.
        """
        parent = self.current_path()
        path = parent + "/" + name if parent else name
        now = time.perf_counter() - self.epoch
        self.records.append({
            "name": name,
            "path": path,
            "start": max(0.0, now - duration),
            "dur": duration,
            "attrs": {k: _jsonable(v) for k, v in (attrs or {}).items()},
        })

    # -- persistence ----------------------------------------------------

    def export_jsonl(self, path):
        """Write one JSON object per span record to *path*."""
        with open(path, "w") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl_tolerant(path):
    """Read a JSONL trace, skipping torn/corrupt lines.

    The run ledger's recovery discipline applied to traces: a process
    killed mid-export leaves half a JSON object on the last line (and a
    crashing writer can tear interior lines too).  Instead of raising
    on the first bad line, parse what survives and report the damage —
    returns ``(records, skipped)`` where *skipped* counts unparseable
    non-empty lines.  A file with lines but no parseable record is not
    a trace at all, so that still raises ``json.JSONDecodeError`` (from
    its first line).
    """
    records = []
    skipped = 0
    first_error = None
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                skipped += 1
                if first_error is None:
                    first_error = error
    if not records and first_error is not None:
        raise first_error
    return records, skipped


class _NullSpan:
    """Shared no-op span: the disabled tracing path."""

    __slots__ = ()

    def set(self, **_attrs):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer handed out when observability is disabled."""

    __slots__ = ()

    records = ()

    def span(self, _name, **_attrs):
        return _NULL_SPAN

    def current_path(self):
        return ""

    def record_complete(self, name, duration, attrs=None):
        pass

    def export_jsonl(self, path):
        raise RuntimeError("cannot export a disabled tracer; enable "
                           "observability first")


NULL_TRACER = NullTracer()

__all__ = ["NULL_TRACER", "NullTracer", "Span", "Tracer",
           "read_jsonl_tolerant"]
