"""Self-rendered per-phase breakdown of a span trace.

``repro obs report trace.jsonl`` reads the flat span records a
:class:`~repro.obs.tracer.Tracer` exported and renders the span tree
with per-phase aggregates: how many times each phase ran, its total and
mean wall time, and its *self* time (total minus the time attributed to
its child phases).  Because span paths encode the tree, two traces of
the same campaign break down alike whether their runs executed or
replayed from the run cache.
"""

from repro.obs.tracer import read_jsonl_tolerant

#: keys every span record must carry (see repro.obs.tracer.Tracer)
SPAN_KEYS = ("name", "path", "start", "dur")


class NotASpanTrace(ValueError):
    """The given records are not span records from a Tracer export."""


def validate_trace(records):
    """Raise :class:`NotASpanTrace` unless *records* are span records.

    A span record is a dict carrying at least the :data:`SPAN_KEYS`;
    anything else (an arbitrary JSON file, a metrics export, a ledger)
    fails with a one-line diagnosis instead of a downstream KeyError.
    """
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise NotASpanTrace(
                "not a span trace: record %d is %s, not an object"
                % (index, type(record).__name__)
            )
        missing = [key for key in SPAN_KEYS if key not in record]
        if missing:
            raise NotASpanTrace(
                "not a span trace: record %d lacks key(s) %s (expected "
                "spans exported by --trace)"
                % (index, ", ".join(repr(k) for k in missing))
            )
    return records


def aggregate(records):
    """Aggregate span records by path.

    Returns ``{path: {"name", "count", "total", "min", "max"}}``;
    raises :class:`NotASpanTrace` for records that are not spans.

    Spans tagged with a ``backend`` attribute (the VM execution engine
    that ran them, see :mod:`repro.machine.backends`) aggregate under a
    ``path [backend]`` key so a trace mixing reference and threaded
    runs reports them as separate phases instead of averaging engines
    with very different per-run costs together.
    """
    validate_trace(records)
    phases = {}
    for record in records:
        path = record["path"]
        name = record["name"]
        backend = (record.get("attrs") or {}).get("backend")
        if backend:
            path = "%s [%s]" % (path, backend)
            name = "%s [%s]" % (name, backend)
        dur = record["dur"]
        entry = phases.get(path)
        if entry is None:
            phases[path] = {"name": name, "count": 1,
                            "total": dur, "min": dur, "max": dur}
        else:
            entry["count"] += 1
            entry["total"] += dur
            entry["min"] = min(entry["min"], dur)
            entry["max"] = max(entry["max"], dur)
    return phases


def _children_totals(phases):
    """Sum each path's *direct* children's totals."""
    totals = {path: 0.0 for path in phases}
    for path, entry in phases.items():
        slash = path.rfind("/")
        if slash < 0:
            continue
        parent = path[:slash]
        if parent in totals:
            totals[parent] += entry["total"]
    return totals


def render_report(records, top=None):
    """Render the per-phase breakdown as an aligned text table."""
    if not records:
        return "trace is empty (no spans recorded)"
    phases = aggregate(records)
    child_totals = _children_totals(phases)

    def sort_key(item):
        path, entry = item
        return (path.count("/"), -entry["total"], path)

    ordered = []

    def emit(prefix, depth):
        children = sorted(
            ((path, entry) for path, entry in phases.items()
             if path.rfind("/") == (len(prefix) - 1 if prefix else -1)
             and path.startswith(prefix)),
            key=lambda item: (-item[1]["total"], item[0]),
        )
        for path, entry in children:
            ordered.append((path, entry, depth))
            emit(path + "/", depth + 1)

    emit("", 0)
    if top is not None:
        ordered = ordered[:top]

    rows = []
    for path, entry, depth in ordered:
        self_seconds = entry["total"] - child_totals[path]
        rows.append((
            "  " * depth + entry["name"],
            "%d" % entry["count"],
            "%.3f" % entry["total"],
            "%.2f" % (1000.0 * entry["total"] / entry["count"]),
            "%.3f" % max(0.0, self_seconds),
        ))
    headers = ("phase", "count", "total s", "mean ms", "self s")
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells):
        first = cells[0].ljust(widths[0])
        rest = (c.rjust(widths[i + 1]) for i, c in enumerate(cells[1:]))
        return "  ".join([first, *rest]).rstrip()
    total_spans = len(records)
    roots = [e["total"] for p, e in phases.items() if "/" not in p]
    out = [
        "Trace report: %d spans, %d phases, %.3f s in root spans"
        % (total_spans, len(phases), sum(roots)),
        line(headers),
        "  ".join("-" * w for w in widths),
    ]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def render_report_file(path, top=None):
    """Render the breakdown for a ``.jsonl`` trace file.

    Torn traces (a writer killed mid-export) are read with the
    ledger's recovery discipline: unparseable lines are skipped and
    reported in a trailing note rather than aborting the whole report.
    A file with no parseable line at all still raises — it is not a
    trace.
    """
    records, skipped = read_jsonl_tolerant(path)
    return render_report(records, top=top) + skipped_note(skipped, path)


def skipped_note(skipped, path):
    """The trailing note on *skipped* torn lines of trace *path*."""
    if not skipped:
        return ""
    return ("\nnote: skipped %d torn/corrupt line%s in %s "
            "(ledger-style recovery; the surviving spans are "
            "reported above)"
            % (skipped, "" if skipped == 1 else "s", path))


def tree_shape(records):
    """The set of (path, count) pairs — a trace's structural signature.

    Two campaigns that made the same decisions have the same shape, no
    matter which VM backend executed their runs or which runs replayed
    from the run cache.
    """
    phases = aggregate(records)
    return {(path, entry["count"]) for path, entry in phases.items()}


__all__ = ["NotASpanTrace", "SPAN_KEYS", "aggregate", "render_report",
           "render_report_file", "skipped_note", "tree_shape",
           "validate_trace"]
