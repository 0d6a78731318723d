"""Result containers and plain-text table rendering.

Besides the per-experiment tables, this module renders the campaign
executor's activity report (:func:`executor_stats_result`): attempts
produced, runs executed, cache hits/misses, and the seconds spent and
saved.  The stats are *observability only* — by the
executor's determinism contract (same plan stream ⇒ same outcomes
regardless of cache state, see :mod:`repro.runtime.executor`), every
number in the experiment tables themselves is identical whether a run
executed or was replayed from the content-addressed run cache.
"""

import functools
import time
from dataclasses import dataclass, field

from repro.obs import get_obs


def traced(name):
    """Decorator tagging an experiment driver with an obs span.

    Every driver's ``run()`` is wrapped in ``experiment.<name>``, so a
    trace of a full invocation breaks down by experiment, then by
    campaign, then by run (``repro obs report trace.jsonl``).  The
    finished result is also recorded in the current run ledger
    (:mod:`repro.obs.ledger`), giving ``repro obs trends`` an
    invocation history per driver.  Costs one no-op context manager and
    one no-op ledger call per driver call when both are off.
    """
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            from repro.obs.ledger import get_ledger

            started = time.perf_counter()
            with get_obs().span(name):
                result = fn(*args, **kwargs)
            get_ledger().record_experiment(
                name, result, time.perf_counter() - started,
            )
            return result
        return inner
    return wrap


def format_table(headers, rows, title=""):
    """Render an aligned plain-text table."""
    columns = len(headers)
    widths = [len(str(h)) for h in headers]
    text_rows = []
    for row in rows:
        text_row = [str(cell) for cell in row]
        text_row += [""] * (columns - len(text_row))
        for index, cell in enumerate(text_row[:columns]):
            widths[index] = max(widths[index], len(cell))
        text_rows.append(text_row)
    def line(cells):
        return "  ".join(
            cell.ljust(widths[index]) for index, cell in enumerate(cells)
        ).rstrip()
    out = []
    if title:
        out.append(title)
    out.append(line([str(h) for h in headers]))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(row) for row in text_rows)
    return "\n".join(out)


@dataclass
class ExperimentResult:
    """Output of one experiment driver."""

    name: str
    headers: list
    rows: list
    title: str = ""
    notes: list = field(default_factory=list)

    def format(self):
        text = format_table(self.headers, self.rows, title=self.title)
        if self.notes:
            text += "\n" + "\n".join("note: %s" % n for n in self.notes)
        return text

    def row_by_key(self, key, column=0):
        """Return the first row whose *column* equals *key*."""
        for row in self.rows:
            if row[column] == key:
                return row
        raise KeyError(key)

    def column(self, index):
        """Return one column across all rows."""
        return [row[index] for row in self.rows]


def executor_stats_result(executor):
    """Render one :class:`~repro.runtime.executor.CampaignExecutor`'s
    activity as an :class:`ExperimentResult`."""
    return ExperimentResult(
        name="executor-stats",
        headers=["metric", "value"],
        rows=[list(row) for row in executor.stats_rows()],
        title="Campaign executor statistics",
        notes=[
            "results are identical at any cache state; caching changes "
            "wall-clock only",
        ],
    )
