"""Ranked-event provenance: the statistical evidence behind a rank.

A diagnosis names its top-ranked event, but the number that put it
there — the harmonic mean of prediction precision and recall — is an
aggregate over individual runs.  This module keeps that evidence
attached to every ranked event:

* :class:`EventProvenance` — the per-event evidence record: which runs
  supported the event (failure runs whose profile contained it), which
  runs opposed it (success runs whose profile contained it), and the
  exact numerator/denominator pairs feeding precision and recall.
* :func:`provenance_digest` — a stable content hash over a report's
  ranked rows *including* their provenance, used by the run ledger to
  assert that two executions of one diagnosis produced identical
  evidence (the digest is timing-free, so it is invariant across VM
  backends and cache states).
* :func:`render_explain` / :func:`explain_file` — the text rendering
  behind ``repro obs explain report.json``.

Run identifiers are strings: ``F<k>`` for the k-th failure profile and
``S<k>`` for the success profile collected on attempt *k* (the two
namespaces never collide).  The CBI-family baselines use the campaign
attempt position instead, with the same F/S prefixes — either way the
identifiers are a pure function of the deterministic plan stream, so
they replay identically no matter how runs were executed.
"""

import hashlib
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class EventProvenance:
    """The statistical evidence behind one ranked event.

    ``precision = failure_hits / observed`` (``observed`` = runs whose
    profile contained the event) and ``recall = failure_hits /
    total_failures`` — both component pairs are kept so a reader can
    re-derive the harmonic-mean score from the raw counts.
    """

    failure_hits: int
    success_hits: int
    total_failures: int
    supporting_runs: tuple        # run ids ("F0", "F1", ...)
    opposing_runs: tuple          # run ids ("S3", "S17", ...)

    @property
    def observed(self):
        """Runs (of either outcome) whose profile contained the event."""
        return self.failure_hits + self.success_hits

    @property
    def precision(self):
        return self.failure_hits / self.observed if self.observed else 0.0

    @property
    def recall(self):
        return (self.failure_hits / self.total_failures
                if self.total_failures else 0.0)

    def to_dict(self):
        return {
            "failure_hits": self.failure_hits,
            "success_hits": self.success_hits,
            "total_failures": self.total_failures,
            "supporting_runs": list(self.supporting_runs),
            "opposing_runs": list(self.opposing_runs),
            "precision": [self.failure_hits, self.observed],
            "recall": [self.failure_hits, self.total_failures],
        }


# ----------------------------------------------------------------------
# Digest
# ----------------------------------------------------------------------

def provenance_digest(ranked_rows):
    """Stable sha256 over normalized ranked rows (dicts).

    The rows are exactly what :class:`repro.core.api.DiagnosisReport`
    serializes — rank, event identity, scores, hit counts, and the
    provenance dict — none of which carries timing, so the digest is
    identical across VM backends and cache states.
    """
    canonical = json.dumps(ranked_rows, sort_keys=True,
                           separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# Rendering (``repro obs explain``)
# ----------------------------------------------------------------------

class NotADiagnosisReport(ValueError):
    """The given file does not hold a serialized DiagnosisReport."""


def _fraction(pair, fallback):
    """Render a [numerator, denominator] pair, or *fallback*."""
    if (isinstance(pair, (list, tuple)) and len(pair) == 2
            and all(isinstance(x, int) for x in pair)):
        return "%d/%d" % tuple(pair)
    return fallback


def _ids(run_ids, limit=12):
    if not run_ids:
        return "none"
    shown = ", ".join(run_ids[:limit])
    extra = len(run_ids) - limit
    return shown + (" (+%d more)" % extra if extra > 0 else "")


def render_explain(report, top=None):
    """Render the provenance of a serialized report's ranked events.

    *report* is the dict form of a :class:`~repro.core.api
    .DiagnosisReport` (``repro diagnose --json-out report.json``).
    """
    if not isinstance(report, dict) or "ranked" not in report:
        raise NotADiagnosisReport(
            "not a diagnosis report (expected a JSON object with a "
            "'ranked' key; produce one with `repro diagnose --json-out`)"
        )
    ranked = report["ranked"]
    header = "Provenance: %s diagnosis of %r — %d ranked events" % (
        report.get("tool", "?"), report.get("workload", "?"), len(ranked),
    )
    runs = report.get("runs_used", {})
    if runs:
        header += " (%s failure / %s success profiles)" % (
            runs.get("failures", "?"), runs.get("successes", "?"),
        )
    lines = [header]
    rows = ranked if top is None else ranked[:top]
    for row in rows:
        name = row.get("event_id") or row.get("predicate_id") or "?"
        where = "%s:%s" % (row.get("function", "?"), row.get("line", "?"))
        if "f_score" in row:
            score = "f=%.3f" % row["f_score"]
        else:
            score = "importance=%.3f" % row.get("importance", 0.0)
        lines.append("#%s %s @ %s (%s)" % (row.get("rank", "?"), name,
                                           where, score))
        prov = row.get("provenance")
        if not prov:
            lines.append("    (no provenance recorded)")
            continue
        precision = _fraction(prov.get("precision"),
                              str(row.get("precision", "?")))
        recall = _fraction(prov.get("recall"), str(row.get("recall", "?")))
        lines.append("    precision %s   recall %s" % (precision, recall))
        lines.append("    supported by: %s"
                     % _ids(prov.get("supporting_runs", ())))
        lines.append("    opposed by:   %s"
                     % _ids(prov.get("opposing_runs", ())))
    if top is not None and len(ranked) > top:
        lines.append("(%d more ranked events not shown)"
                     % (len(ranked) - top))
    return "\n".join(lines)


def explain_file(path, top=None):
    """Render provenance for a report JSON file (``repro obs explain``)."""
    with open(path) as handle:
        try:
            report = json.load(handle)
        except json.JSONDecodeError as exc:
            raise NotADiagnosisReport(
                "not a diagnosis report (invalid JSON: %s)" % exc
            ) from None
    return render_explain(report, top=top)


__all__ = [
    "EventProvenance",
    "NotADiagnosisReport",
    "explain_file",
    "provenance_digest",
    "render_explain",
]
