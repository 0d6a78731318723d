"""The diagnosis flight recorder: a persistent, append-only run ledger.

Every telemetry buffer PR 2 introduced dies with its process; the
ledger is the at-rest complement.  One directory (``.repro-ledger/`` by
default, ``REPRO_LEDGER_DIR`` overrides) holds ``ledger.jsonl``: one
JSON object per recorded invocation, append only, in invocation order.
An append reads only the file's last line to number the next entry, so
it costs the same however long the ledger has grown.

Entries are **content-keyed like the run cache**: ``entry_id`` is the
sha256 of the entry's deterministic fields — kind, tool, workload,
seed, params, quality, run counts, and the provenance digest — and
never of its timing fields (wall time, executor activity, timestamp).
Two executions of one diagnosis therefore produce entries with the
*same id* no matter the ``--jobs`` value or cache state, which is how
``tests/obs/test_ledger.py`` pins ledger determinism.

Recording follows the observability pattern: a module-level *current
ledger* starts as the no-op :data:`NULL_LEDGER`; install a real one
with :func:`use` (the CLI does this for ``diagnose`` and ``experiment``
unless ``--no-ledger``).  The hooks live on the shared paths — both
``run_diagnosis`` implementations, :func:`~repro.runtime.harness
.run_campaign`, and the ``traced`` decorator every experiment driver
wears — so one installation covers the whole pipeline.

Analytics over the ledger (``repro obs trends`` / ``repro obs
compare``) live here too; the paper-conformance checks live in
:mod:`repro.experiments.expected`.
"""

import contextlib
import datetime
import hashlib
import json
import os
import sys

from repro.obs import get_obs
from repro.obs.provenance import provenance_digest


def _resilience():
    """The crash-safety toolbox, imported lazily.

    A module-level import would be circular: ``repro.runtime``'s
    package init imports :mod:`repro.runtime.harness`, which imports
    this module.
    """
    from repro.runtime import resilience
    return resilience

#: Bump when the entry layout changes incompatibly.
LEDGER_FORMAT_VERSION = 1

#: Default on-disk location, relative to the working directory.
DEFAULT_LEDGER_DIR = ".repro-ledger"

#: Environment override for the ledger directory.
LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"

#: Entry fields excluded from the content key (observational only).
#: ``obs`` is no longer written, but older ledgers carry it, and `obs
#: compare` must mark it observational (~), not a difference (!).
TIMING_FIELDS = ("timings", "executor", "obs", "created_at", "seq",
                 "entry_id")


def resolve_ledger_dir(directory=None):
    """The ledger directory: explicit > ``$REPRO_LEDGER_DIR`` > default."""
    if directory:
        return os.fspath(directory)
    return os.environ.get(LEDGER_DIR_ENV) or DEFAULT_LEDGER_DIR


def content_key(entry):
    """The sha256 content key over an entry's deterministic fields."""
    keyed = {name: value for name, value in entry.items()
             if name not in TIMING_FIELDS}
    canonical = json.dumps(keyed, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _sanitize(value):
    """Coerce *value* into something JSON-serializable, recursively."""
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _last_line(handle):
    """The last non-blank line of the binary file *handle*.

    Reads 8 KB at a time backward from the end until the line is whole,
    so the cost follows the line's length, not the file's.
    """
    end = handle.seek(0, os.SEEK_END)
    tail = b""
    while end:
        start = max(0, end - (1 << 13))
        handle.seek(start)
        tail = handle.read(end - start) + tail
        end = start
        line = tail.rstrip()
        if b"\n" in line:
            return line[line.rindex(b"\n") + 1:]
    return tail.strip()


class LedgerError(Exception):
    """Raised for unresolvable entry references and malformed ledgers."""


class Ledger:
    """Append-only JSONL ledger of content-keyed entries.

    Crash-consistency contract: every append happens under an advisory
    file lock (so concurrent invocations interleave whole lines, never
    interleaved bytes), and before appending, a torn trailing line —
    the footprint of a process killed mid-write — is moved to
    ``quarantine.jsonl`` and truncated away.  Interior lines that fail
    to parse are skipped (and counted) on read.  The JSONL file is the
    whole ledger: an index file that older versions kept beside it is
    never read, rewritten or removed.
    """

    def __init__(self, directory=None):
        self.directory = resolve_ledger_dir(directory)
        self._lock = None

    # -- paths ----------------------------------------------------------

    @property
    def ledger_path(self):
        return os.path.join(self.directory, "ledger.jsonl")

    @property
    def quarantine_path(self):
        return os.path.join(self.directory, "quarantine.jsonl")

    def _locked(self):
        """The directory's advisory lock (created on first use)."""
        if self._lock is None:
            self._lock = _resilience().FileLock(
                os.path.join(self.directory, ".lock"))
        return self._lock

    # -- writing --------------------------------------------------------

    def append(self, *, kind, tool=None, workload=None, seed=None,
               params=None, quality=None, runs=None,
               provenance_digest=None, backend=None, timings=None,
               executor=None):
        """Append one entry; returns the full entry dict (with id/seq).

        Only the keyword surface is public — the entry layout is the
        schema documented in ``docs/ledger.md``.  ``backend`` names the
        VM execution backend the runs used (see
        :mod:`repro.machine.backends`); it is a deterministic field —
        part of the content key — because backends promise identical
        *results* but not identical *timings*, and an entry must say
        which engine produced it.
        """
        entry = {
            "version": LEDGER_FORMAT_VERSION,
            "kind": kind,
            "tool": tool,
            "workload": workload,
            "seed": seed,
            "params": _sanitize(params or {}),
            "quality": _sanitize(quality) if quality is not None else None,
            "runs": _sanitize(runs or {}),
            "provenance_digest": provenance_digest,
            "backend": backend,
        }
        entry["entry_id"] = content_key(entry)
        entry["timings"] = _sanitize(timings or {})
        entry["executor"] = _sanitize(executor) if executor else None
        entry["created_at"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
        # Recording is best-effort: a full disk or an injected fault must
        # never take the diagnosis down with it.  ``seq`` stays None when
        # the append did not land.
        try:
            os.makedirs(self.directory, exist_ok=True)
            with self._locked():
                self._recover_tail()
                entry["seq"] = self._append_line(entry)
        except OSError as exc:
            entry["seq"] = None
            get_obs().counter("ledger.append_errors").inc()
            print("repro: warning: ledger append failed (%s: %s); entry "
                  "dropped" % (type(exc).__name__, exc), file=sys.stderr)
        return entry

    def _append_line(self, entry):
        resilience = _resilience()
        resilience.fault_point("ledger-write-error")
        seq = self._next_seq()
        record = dict(entry, seq=seq)
        line = json.dumps(record, sort_keys=True) + "\n"
        if resilience.fault_point("ledger-write-torn"):
            # Simulate a kill -9 mid-write: half a line lands, then the
            # "process" dies before the newline.
            with open(self.ledger_path, "a") as handle:
                handle.write(line[:max(1, len(line) // 2)])
            raise resilience.FaultError("ledger-write-torn")
        with open(self.ledger_path, "a") as handle:
            handle.write(line)
        return seq

    def _recover_tail(self):
        """Quarantine a torn trailing line left by a killed writer.

        Only the *last* line can be torn — appends are whole-line under
        the lock — so the shared recovery helper
        (:func:`repro.runtime.resilience.recover_jsonl_tail`, also used
        by checkpoint journals) scans a bounded tail chunk and moves
        corrupt bytes to ``quarantine.jsonl`` rather than destroying
        them.
        """
        fragment = _resilience().recover_jsonl_tail(
            self.ledger_path, self.quarantine_path, label="ledger")
        if fragment:
            get_obs().counter("ledger.quarantined").inc()

    def _next_seq(self):
        """One past the ``seq`` of the last complete line.

        ``_recover_tail`` has just left the file ending in a newline, so
        the last line is read backward from the end.  When it does not
        parse, the count of non-blank lines stands in.
        """
        try:
            with open(self.ledger_path, "rb") as handle:
                try:
                    return json.loads(_last_line(handle))["seq"] + 1
                except (ValueError, KeyError, TypeError):
                    handle.seek(0)
                    return sum(1 for line in handle if line.strip())
        except FileNotFoundError:
            return 0

    # -- reading --------------------------------------------------------

    def _read_entries(self):
        try:
            with open(self.ledger_path) as handle:
                lines = [line for line in handle if line.strip()]
        except FileNotFoundError:
            return []
        entries = []
        for line in lines:
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                # Torn or corrupt line: skip, don't crash — but count it
                # so corruption is observable.
                get_obs().counter("ledger.corrupt_lines_skipped").inc()
        return entries

    def entries(self, kind=None, tool=None, workload=None):
        """All entries in append order, optionally filtered."""
        out = []
        for entry in self._read_entries():
            if kind is not None and entry.get("kind") != kind:
                continue
            if tool is not None and entry.get("tool") != tool:
                continue
            if workload is not None and entry.get("workload") != workload:
                continue
            out.append(entry)
        return out

    def resolve(self, reference):
        """Resolve ``@<seq>`` (negative = from the end) or an id prefix."""
        entries = self._read_entries()
        if not entries:
            raise LedgerError("ledger at %s is empty" % self.directory)
        if reference.startswith("@"):
            try:
                position = int(reference[1:])
            except ValueError:
                raise LedgerError(
                    "bad entry reference %r (expected @<seq>)"
                    % reference) from None
            if position < 0:
                if position >= -len(entries):
                    return entries[position]
            else:
                for entry in entries:
                    if entry.get("seq") == position:
                        return entry
            raise LedgerError("no entry %s (ledger has %d entries)"
                              % (reference, len(entries)))
        matches = [e for e in entries
                   if e.get("entry_id", "").startswith(reference)]
        if not matches:
            raise LedgerError("no entry id starts with %r" % reference)
        if len({e["entry_id"] for e in matches}) > 1:
            raise LedgerError("entry reference %r is ambiguous (%d ids)"
                              % (reference, len(matches)))
        return matches[-1]             # latest entry with that id

    # -- recording hooks ------------------------------------------------

    def record_diagnosis(self, *, tool, workload, raw, seed=0,
                         params=None, wall_seconds=0.0, executor=None,
                         backend=None):
        """Record one finished diagnosis campaign.

        *raw* is the tool's native result (a
        :class:`~repro.core.api.DiagnosisResult`); quality is the dense
        rank of the workload's ground-truth root cause (``None`` when
        the workload has no registered root cause, or the diagnosis
        missed it).  *executor* is the campaign's venue record, or
        ``None``.
        """
        quality = diagnosis_quality(raw, workload)
        if raw.partial:
            # A budget/deadline-bounded campaign: record that the
            # evidence is partial (deterministic fields — part of the
            # content key, so a partial run never collides with a full
            # one) and how confident the truncated ranking is.
            quality["partial"] = True
            quality["stop_reason"] = raw.stop_reason
            quality["confidence"] = raw.confidence()
        return self.append(
            kind="diagnosis",
            tool=tool,
            workload=getattr(workload, "name", str(workload)),
            seed=seed,
            params=params,
            quality=quality,
            runs=raw.runs_used,
            provenance_digest=provenance_digest(
                [row.to_row() for row in raw.ranked]),
            backend=backend,
            timings={"wall_seconds": wall_seconds},
            executor=executor,
        )

    def record_campaign(self, *, workload, result, backend=None,
                        executor=None):
        """Record one :func:`~repro.runtime.harness.run_campaign` call;
        *executor* is its venue record, as in :meth:`record_diagnosis`."""
        runs = {
            "failures": len(result.failures),
            "successes": len(result.successes),
            "attempts": result.attempts,
            "met_quotas": result.met_quotas,
        }
        if getattr(result, "partial", None):
            runs["partial"] = result.partial
        return self.append(
            kind="campaign",
            workload=getattr(workload, "name", str(workload)),
            runs=runs,
            backend=backend,
            executor=executor,
        )

    def record_experiment(self, name, result, wall_seconds,
                          backend=None):
        """Record one experiment driver invocation.

        ``quality`` holds the rendered table's shape and a content
        digest of its rows, so ``repro obs trends`` can flag an
        experiment whose output changed between invocations.
        """
        rows = getattr(result, "rows", None)
        headers = getattr(result, "headers", None)
        quality = None
        if rows is not None:
            canonical = json.dumps(
                {"headers": _sanitize(headers),
                 "rows": [[str(cell) for cell in row] for row in rows]},
                sort_keys=True, separators=(",", ":"),
            )
            quality = {
                "n_rows": len(rows),
                "rows_digest":
                    hashlib.sha256(canonical.encode()).hexdigest(),
            }
        if backend is None:
            from repro.machine.backends import get_default_backend
            backend = get_default_backend()
        return self.append(
            kind="experiment",
            tool=getattr(result, "name", None) or name,
            workload=name,
            quality=quality,
            backend=backend,
            timings={"wall_seconds": wall_seconds},
        )


def diagnosis_quality(raw, workload):
    """Ground-truth quality of one diagnosis, from the bug registry.

    The rank is the dense rank of the workload's registered root-cause
    event (``DiagnosisResult.rank_of_cause``) — a branch on
    ``root_cause_lines`` for the LBR-based tools and baselines, a
    coherence event filtered by ``fpe_state_tags`` for LCRA (exactly
    the Table 6/7 accessors).
    """
    lines = tuple(getattr(workload, "root_cause_lines", ()) or ())
    related = tuple(getattr(workload, "related_lines", ()) or ())
    rank = related_rank = None
    if lines:
        rank = raw.rank_of_cause(lines, workload)
        if related:
            related_rank = raw.rank_of_cause(related, workload)
    best = raw.ranked[0] if raw.ranked else None
    return {
        "root_cause_rank": rank,
        "related_rank": related_rank,
        "n_ranked": len(raw.ranked),
        "best_event": best.key if best is not None else None,
        "best_score": best.score if best is not None else None,
    }


# ----------------------------------------------------------------------
# The current ledger (observability pattern)
# ----------------------------------------------------------------------

class NullLedger:
    """No-op ledger installed by default: recording costs ~nothing."""

    directory = None

    def append(self, **_kwargs):
        return None

    def record_diagnosis(self, **_kwargs):
        return None

    def record_campaign(self, **_kwargs):
        return None

    def record_experiment(self, _name, _result, _wall_seconds,
                          backend=None):
        return None

    def entries(self, **_kwargs):
        return []


NULL_LEDGER = NullLedger()

_current = NULL_LEDGER


def get_ledger():
    """The currently installed ledger (the no-op one by default)."""
    return _current


def set_ledger(ledger):
    """Install *ledger* as current; returns the previous one."""
    global _current
    previous = _current
    _current = ledger if ledger is not None else NULL_LEDGER
    return previous


@contextlib.contextmanager
def use(ledger):
    """Temporarily install *ledger* as the current run ledger."""
    previous = set_ledger(ledger)
    try:
        yield ledger
    finally:
        set_ledger(previous)


# ----------------------------------------------------------------------
# Analytics: trends and entry comparison
# ----------------------------------------------------------------------

def _group_key(entry):
    return (entry.get("kind"), entry.get("tool"), entry.get("workload"),
            json.dumps(entry.get("params", {}), sort_keys=True),
            entry.get("seed"))


def _worse_rank(latest, previous, threshold):
    """True when *latest* regressed past *threshold* ranks vs *previous*.

    ``None`` means "root cause not ranked at all" — strictly worse than
    any rank, and never a regression to recover from it.
    """
    if previous is None:
        return False
    if latest is None:
        return True
    return latest - previous > threshold


def compute_trends(entries, rank_threshold=0, latency_threshold=None):
    """Latest-vs-previous deltas per (kind, tool, workload, params) group.

    Returns ``(rows, regressions)``: one row per group with at least
    two entries, and the list of human-readable regression findings.  A
    *quality* regression is a root-cause rank that worsened by more
    than *rank_threshold* (or a changed experiment rows-digest); a
    *latency* regression is wall time grown by more than
    *latency_threshold* percent (``None`` disables the latency gate).
    """
    groups = {}
    for entry in entries:
        groups.setdefault(_group_key(entry), []).append(entry)
    rows = []
    regressions = []
    for key in sorted(groups, key=lambda k: tuple(str(p) for p in k)):
        history = groups[key]
        if len(history) < 2:
            continue
        previous, latest = history[-2], history[-1]
        label = "%s %s/%s" % (latest.get("kind"), latest.get("tool"),
                              latest.get("workload"))
        prev_quality = previous.get("quality") or {}
        last_quality = latest.get("quality") or {}
        prev_rank = prev_quality.get("root_cause_rank")
        last_rank = last_quality.get("root_cause_rank")
        prev_wall = (previous.get("timings") or {}).get("wall_seconds")
        last_wall = (latest.get("timings") or {}).get("wall_seconds")
        wall_delta = ""
        if prev_wall and last_wall is not None:
            pct = 100.0 * (last_wall - prev_wall) / prev_wall
            wall_delta = "%+.1f%%" % pct
            if latency_threshold is not None and pct > latency_threshold:
                regressions.append(
                    "%s: wall time %+.1f%% (%.3fs -> %.3fs, threshold "
                    "+%.0f%%)" % (label, pct, prev_wall, last_wall,
                                  latency_threshold)
                )
        if latest.get("kind") == "experiment":
            prev_digest = prev_quality.get("rows_digest")
            last_digest = last_quality.get("rows_digest")
            changed = prev_digest != last_digest
            if changed:
                regressions.append(
                    "%s: experiment output changed (rows digest %s -> %s)"
                    % (label, (prev_digest or "?")[:12],
                       (last_digest or "?")[:12])
                )
            quality_cell = "changed" if changed else "stable"
        else:
            partial = bool(prev_quality.get("partial")
                           or last_quality.get("partial"))
            if partial:
                # Budget/deadline-bounded invocations carry less
                # evidence by design; a worse rank there is expected,
                # not a regression — but say so in the table.
                pass
            elif _worse_rank(last_rank, prev_rank, rank_threshold):
                regressions.append(
                    "%s: root-cause rank regressed %s -> %s (threshold "
                    "+%d)" % (label, prev_rank, last_rank, rank_threshold)
                )
            quality_cell = "%s -> %s" % (prev_rank, last_rank)
            if last_quality.get("partial"):
                level = (last_quality.get("confidence") or {}).get("level")
                quality_cell += (" [partial:%s]" % level if level
                                 else " [partial]")
            elif prev_quality.get("partial"):
                quality_cell += " [prev partial]"
        rows.append((
            label,
            len(history),
            quality_cell,
            "-" if prev_wall is None else "%.3f" % prev_wall,
            "-" if last_wall is None else "%.3f" % last_wall,
            wall_delta or "-",
        ))
    return rows, regressions


def _render_rank_curve(ranks, limit=20):
    """Run-length-encode a per-run rank sequence, e.g. ``- 3 1x18``."""
    tokens = []
    for rank in ranks:
        label = "-" if rank is None else str(rank)
        if tokens and tokens[-1][0] == label:
            tokens[-1][1] += 1
        else:
            tokens.append([label, 1])
    if not tokens:
        return "-"
    rendered = ["%s" % label if count == 1 else "%sx%d" % (label, count)
                for label, count in tokens]
    if len(rendered) > limit:
        rendered = rendered[:limit] + ["…"]
    return " ".join(rendered)


def compute_convergence(entries):
    """Per-signature convergence rows from fleet-triage ledger entries.

    The fleet triage driver (:mod:`repro.fleet.triage`) appends one
    ``kind="triage"`` entry per signature cluster, its ``quality``
    carrying the ``convergence`` curve — the rank of the true root
    cause after each arriving campaign run (see
    :class:`repro.fleet.aggregate.IncrementalRanker`).  This view shows
    the *latest* curve per (tool, signature) series, so `repro obs
    trends --view convergence` answers "how fast does each fleet
    signature converge?" across invocations.
    """
    series = {}
    for entry in entries:
        if entry.get("kind") != "triage":
            continue
        workload = entry.get("workload") or ""
        if not workload.startswith("sig:"):
            continue
        series.setdefault((str(entry.get("tool")), workload),
                          []).append(entry)
    rows = []
    for key in sorted(series):
        history = series[key]
        latest = history[-1]
        quality = latest.get("quality") or {}
        params = latest.get("params") or {}
        if quality.get("error"):
            curve_cell = "error: %s" % quality["error"]
            final = runs_to_rank1 = "-"
        else:
            curve = quality.get("convergence") or []
            curve_cell = _render_rank_curve(
                [point[1] for point in curve])
            final = quality.get("true_rank")
            final = "-" if final is None else final
            runs_to_rank1 = quality.get("runs_to_rank1")
            runs_to_rank1 = "-" if runs_to_rank1 is None \
                else runs_to_rank1
        rows.append((
            key[1][len("sig:"):],
            params.get("app", "-"),
            latest.get("tool") or "-",
            params.get("reports", "-"),
            len(history),
            curve_cell,
            final,
            runs_to_rank1,
        ))
    return rows


def render_convergence(ledger):
    """Render the per-signature convergence table; ``(text, code)``."""
    from repro.experiments.report import format_table

    entries = ledger.entries()
    rows = compute_convergence(entries)
    if not rows:
        # Exit 2 ("nothing to show"), not 0: a CI job asserting on
        # convergence must fail loudly when the ledger has no triage
        # entries instead of passing on an empty table.
        return ("no fleet-triage entries in the ledger at %s yet "
                "(run `repro triage`)" % ledger.directory), 2
    text = format_table(
        ["signature", "app", "tool", "reports", "invocations",
         "rank-of-true-cause per run", "final", "rank1@"],
        rows,
        title="Per-signature convergence (latest triage invocation "
              "per series)",
    )
    return text, 0


def render_trends(ledger, rank_threshold=0, latency_threshold=None):
    """Render the trends table; returns ``(text, exit_code)``."""
    from repro.experiments.report import format_table

    entries = ledger.entries()
    if not entries:
        return ("ledger at %s is empty (nothing recorded yet)"
                % ledger.directory), 0
    rows, regressions = compute_trends(
        entries, rank_threshold=rank_threshold,
        latency_threshold=latency_threshold,
    )
    if not rows:
        return ("%d ledger entries, but no group has two or more "
                "invocations to compare yet" % len(entries)), 0
    text = format_table(
        ["series", "entries", "root-cause rank", "prev s", "last s",
         "Δwall"],
        rows,
        title="Ledger trends (%d entries, latest vs previous per series)"
              % len(entries),
    )
    if regressions:
        text += "\n" + "\n".join("REGRESSION: %s" % r
                                 for r in regressions)
        return text, 1
    text += "\nno regressions detected"
    return text, 0


def diff_entries(a, b):
    """Structured field-by-field diff of two ledger entries.

    Returns rows ``(field, value_a, value_b, same?)`` flattened one
    level deep (nested dicts become dotted field names); timing fields
    are included but marked so callers can render them dimmed.
    """
    rows = []

    def flatten(entry):
        flat = {}
        for name, value in entry.items():
            if isinstance(value, dict):
                for sub, sub_value in value.items():
                    flat["%s.%s" % (name, sub)] = sub_value
            else:
                flat[name] = value
        return flat

    flat_a, flat_b = flatten(a), flatten(b)
    for field in sorted(set(flat_a) | set(flat_b)):
        value_a = flat_a.get(field, "<absent>")
        value_b = flat_b.get(field, "<absent>")
        rows.append((field, value_a, value_b, value_a == value_b))
    return rows


def _clip(value, limit=48):
    text = str(value)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def render_compare(ledger, ref_a, ref_b, show_same=False):
    """Render the entry diff behind ``repro obs compare A B``."""
    from repro.experiments.report import format_table

    a = ledger.resolve(ref_a)
    b = ledger.resolve(ref_b)
    rows = []
    for field, value_a, value_b, same in diff_entries(a, b):
        if same and not show_same:
            continue
        timing = field.split(".")[0] in TIMING_FIELDS
        marker = "=" if same else ("~" if timing else "!")
        rows.append((marker, field, _clip(value_a), _clip(value_b)))
    title = "Ledger compare: @%s (%s) vs @%s (%s)" % (
        a.get("seq"), a.get("entry_id", "")[:12],
        b.get("seq"), b.get("entry_id", "")[:12],
    )
    if not rows:
        return title + "\nentries are identical"
    text = format_table(["", "field", "A", "B"], rows, title=title)
    legend = ("\n(!: deterministic field differs, ~: timing/observational "
              "field differs%s)" % (", =: identical" if show_same else ""))
    return text + legend


__all__ = [
    "DEFAULT_LEDGER_DIR",
    "LEDGER_DIR_ENV",
    "LEDGER_FORMAT_VERSION",
    "Ledger",
    "LedgerError",
    "NULL_LEDGER",
    "NullLedger",
    "compute_trends",
    "content_key",
    "diagnosis_quality",
    "diff_entries",
    "get_ledger",
    "render_compare",
    "render_trends",
    "resolve_ledger_dir",
    "set_ledger",
    "use",
]
