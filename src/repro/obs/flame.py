"""Folded-stack collapsing and a self-rendered text flame view.

Two sample sources collapse into the same folded form — ``stack value``
lines, frames joined with ``;`` (the interchange format flame-graph
tooling consumes):

* :func:`collapse_spans` — a span trace (``trace.jsonl``): each span
  path becomes a stack, valued by its *self* time (total minus the time
  attributed to its children), so the folded values sum to the root
  spans' wall time;
* :func:`collapse_profile` — a :class:`~repro.obs.sampling
  .SampledProfiler`'s PC samples decoded against a program's debug
  info: each ``function;line N`` stack is valued by its hit count.

:func:`render_flame` then renders the folded stacks as an aligned text
flame view — one row per stack, indented by depth, with a proportional
bar — and :func:`format_folded` emits the raw folded lines for external
tooling.  ``repro obs flame trace.jsonl`` drives both.
"""

from repro.obs.report import _children_totals, aggregate, skipped_note
from repro.obs.tracer import read_jsonl_tolerant


def collapse_spans(records):
    """Collapse span records to ``{folded_stack: self_seconds}``.

    Raises :class:`~repro.obs.report.NotASpanTrace` when *records* is
    not a span trace.  Stacks keep the span tree's order-free identity:
    ``campaign/campaign.failing`` folds to
    ``campaign;campaign.failing``.
    """
    phases = aggregate(records)
    children = _children_totals(phases)
    return {path.replace("/", ";"): max(0.0, entry["total"] - children[path])
            for path, entry in phases.items()}


def collapse_profile(profiler, program):
    """Collapse a :class:`SampledProfiler`'s samples to folded stacks.

    The interpreter exposes no call stacks — samples decode to their
    ``function;line`` frame pair, valued by hit count (unknown PCs fold
    under ``?``).
    """
    folded = {}
    for (function, line), hits in profiler.by_location(program).items():
        stack = "?" if function is None \
            else "%s;line %s" % (function, line)
        folded[stack] = folded.get(stack, 0) + hits
    return folded


def format_folded(folded):
    """The folded stacks as canonical ``stack value`` lines, sorted."""
    lines = []
    for stack in sorted(folded):
        value = folded[stack]
        rendered = "%d" % value if float(value).is_integer() \
            else "%.6f" % value
        lines.append("%s %s" % (stack, rendered))
    return "\n".join(lines)


def render_flame(folded, width=60, unit="s"):
    """Render folded stacks as an indented text flame view.

    Rows appear in stack order (parents before children, siblings by
    descending weight, children indented), each with a bar sized by its
    share of the total — the flame-graph shape, one row per stack.
    """
    if not folded:
        return "nothing to render (no stacks collapsed)"
    total = sum(folded.values()) or 1

    def subtree_value(stack):
        return folded.get(stack, 0) + sum(
            value for other, value in folded.items()
            if other.startswith(stack + ";")
        )

    ordered = []

    def emit(prefix, depth):
        heads = {}
        for stack in folded:
            if prefix and not stack.startswith(prefix + ";"):
                continue
            rest = stack[len(prefix) + 1:] if prefix else stack
            head = rest.split(";", 1)[0]
            full = prefix + ";" + head if prefix else head
            heads[full] = subtree_value(full)
        for stack in sorted(heads, key=lambda s: (-heads[s], s)):
            ordered.append((stack, depth))
            emit(stack, depth + 1)

    emit("", 0)

    max_self = max(folded.values())
    rows = []
    for stack, depth in ordered:
        self_value = folded.get(stack, 0)
        frame = stack.rsplit(";", 1)[-1]
        bar = "#" * max(1 if self_value > 0 else 0,
                        round(width * self_value / max_self)) \
            if max_self else ""
        value = "%d" % self_value if float(self_value).is_integer() \
            else "%.3f" % self_value
        rows.append((
            "  " * depth + frame,
            value,
            "%5.1f%%" % (100.0 * self_value / total),
            bar,
        ))
    name_width = max(len(row[0]) for row in rows)
    value_width = max(max(len(row[1]) for row in rows), len(unit))
    out = ["Flame view: %d stacks, %s total self %s"
           % (len(folded),
              ("%d" % total) if float(total).is_integer()
              else "%.3f" % total,
              unit)]
    for name, value, share, bar in rows:
        out.append("%s  %s %s  %s %s" % (
            name.ljust(name_width), value.rjust(value_width), unit,
            share, bar,
        ))
    return "\n".join(out)


def render_flame_file(path, width=60, folded_out=None):
    """``repro obs flame``: collapse a trace file and render it.

    Torn traces are read the way ``repro obs report`` reads them:
    unparseable lines are skipped and counted in a trailing note.  When
    *folded_out* is given, also write the canonical folded lines there
    for external flame-graph tooling.
    """
    records, skipped = read_jsonl_tolerant(path)
    folded = collapse_spans(records)
    if folded_out:
        with open(folded_out, "w") as handle:
            handle.write(format_folded(folded) + "\n")
    return render_flame(folded, width=width) + skipped_note(skipped, path)


__all__ = [
    "collapse_profile",
    "collapse_spans",
    "format_folded",
    "render_flame",
    "render_flame_file",
]
