"""Durable campaigns: checkpoint/resume, watchdog, and budgets.

A diagnosis campaign on production runs is long-lived, and the machine
running it gets killed, rebooted, and preempted.  This module makes
campaigns survive all three, with three cooperating pieces:

* **Checkpoint journal** (:class:`CheckpointJournal`,
  :class:`CheckpointSession`).  Campaign plan streams are pure
  functions of the workload (see :mod:`repro.runtime.harness`), so the
  whole progress of a campaign is captured by the sequence of run
  outcomes consumed so far: for a baseline run, the record it returned
  (its observation, counters and the predicates it registered).  Every
  quota campaign journals through
  :func:`repro.runtime.harness.durable_stream`.  A journal is an
  append-only JSONL file — one fingerprint header plus one
  group-committed batch line per ``CheckpointJournal.FLUSH_EVERY``
  consumed runs — written with the same torn-tail quarantine
  discipline as the run ledger
  (:func:`repro.runtime.resilience.recover_jsonl_tail`).  On resume the
  stream *replays* the journaled outcomes (no re-execution) and then
  continues executing from the cursor; because consumption order is
  deterministic, the final report is byte-identical to an uninterrupted
  run.  A :class:`CheckpointSession` groups the journals of one CLI
  invocation under ``.repro-checkpoints/<session-id>/`` together with a
  manifest recording the command, so ``repro resume <session-id>`` can
  re-dispatch it.  The session id is a content hash of the command's
  *normalized* argv (chaos and checkpoint flags stripped), so running
  the same command again resumes automatically.
* **Supervisor/watchdog** (:class:`CampaignSupervisor`).  A daemon
  monitor thread tracks named heartbeats (the campaign loop, the
  executor's resolve path) and escalates when one goes stale: counted
  in obs metrics and reported on stderr.  SIGTERM is converted into
  :class:`CampaignInterrupted` (:func:`graceful_signals`) so ``finally``
  blocks run — pools shut down, locks release, the journal holds every
  consumed run — and the CLI exits with :data:`RESUMABLE_EXIT_CODE`.
* **Budgets** (:class:`CampaignBudget`).  ``--deadline SECONDS`` and
  ``--run-budget N`` bound an invocation; on exhaustion campaigns stop
  cleanly and report ``partial=True`` with a confidence summary instead
  of raising.  Replayed (journaled) runs are free — only fresh
  executions are charged — so a resumed campaign can finish work a
  budgeted invocation started.

All three install via the module-global "current X" pattern used by
:mod:`repro.obs` and the ledger, so every driver and tool picks them up
without signature changes.  When nothing is installed, the hooks cost
one module-global read per stream; with checkpointing on, the journal
overhead is pinned ≤3 % of a full diagnosis campaign by
``benchmarks/test_checkpoint_overhead.py``.
"""

import base64
import contextlib
import hashlib
import json
import os
import pickle
import shutil
import signal
import sys
import threading
import time

from repro.obs import get_obs
from repro.runtime import resilience

#: Journal/manifest schema version (part of every stream fingerprint).
#: (2: a baseline record is the run's record dict, not a pickled
#: result object, so a version-1 journal is ignored and overwritten.)
CHECKPOINT_FORMAT_VERSION = 2

#: Default root for checkpoint sessions, next to the run ledger.
DEFAULT_CHECKPOINT_DIR = ".repro-checkpoints"

#: Environment override for the checkpoint root.
CHECKPOINT_DIR_ENV = "REPRO_CHECKPOINT_DIR"

#: Environment override for the supervisor's stall timeout (seconds).
STALL_TIMEOUT_ENV = "REPRO_STALL_TIMEOUT"

#: Exit code of an interrupted-but-resumable invocation (EX_TEMPFAIL):
#: a final checkpoint was flushed and ``repro resume`` will continue.
RESUMABLE_EXIT_CODE = 75


class CheckpointError(Exception):
    """A checkpoint session/journal cannot be read or created."""


class CampaignInterrupted(BaseException):
    """Raised in the main thread when SIGTERM asks the campaign to stop.

    Deliberately an exception (not a polled flag): it unwinds through
    the same ``finally`` paths as Ctrl-C, so worker pools shut down,
    chaos state directories are removed, and locks release before the
    process exits resumable.  A ``BaseException``, like
    ``KeyboardInterrupt``, so the ``except Exception`` handlers that
    absorb a corrupt cache entry or journal line let it through instead
    of mistaking the signal for damage.
    """


def resolve_checkpoint_dir(directory=None):
    """*directory*, else ``$REPRO_CHECKPOINT_DIR``, else the default."""
    if directory:
        return os.fspath(directory)
    return os.environ.get(CHECKPOINT_DIR_ENV) or DEFAULT_CHECKPOINT_DIR


# ----------------------------------------------------------------------
# Argv normalization and session ids
# ----------------------------------------------------------------------

#: Flags stripped from argv before hashing/storing it: chaos schedules
#: belong to the invocation that asked for them (a resumed run must not
#: re-arm the kill that interrupted it), and the checkpoint flags
#: themselves are re-supplied by ``repro resume``.
_VOLATILE_FLAGS = {
    "--inject-faults": True,       # takes a value
    "--fault-seed": True,
    "--checkpoint-dir": True,
    "--checkpoint": False,
    "--no-checkpoint": False,
    "--resume": False,
}


def normalize_argv(argv):
    """*argv* minus chaos/checkpoint flags — the campaign's identity."""
    out = []
    skip = False
    for item in argv:
        if skip:
            skip = False
            continue
        flag, _, inline = str(item).partition("=")
        if flag in _VOLATILE_FLAGS:
            skip = _VOLATILE_FLAGS[flag] and not inline
            continue
        out.append(str(item))
    return out


def session_id_for(argv):
    """Deterministic session id of a (normalized) command line."""
    canonical = "\x00".join(normalize_argv(argv))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def stream_fingerprint(*parts):
    """Content hash identifying one campaign plan stream.

    Callers pass everything the stream's outcomes depend on — program
    fingerprint, config repr (which includes the VM backend), workload
    token, phase label, seed — so a journal is only ever replayed into
    the exact stream that wrote it.
    """
    canonical = "\x00".join(
        [str(CHECKPOINT_FORMAT_VERSION)] + [str(part) for part in parts])
    return hashlib.sha256(canonical.encode()).hexdigest()


def workload_token(workload):
    """Stable identity of *workload* for stream fingerprints.

    Tolerant on purpose: test workloads are ad-hoc classes without the
    full protocol surface, so this uses the class path plus whatever
    identifying attributes exist.
    """
    cls = type(workload)
    return repr((cls.__module__, cls.__qualname__,
                 getattr(workload, "name", None),
                 getattr(workload, "num_cores", None)))


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------

class CheckpointJournal:
    """Crash-safe progress record of one campaign plan stream.

    Layout: a JSON header line (``version``/``stream``/``fingerprint``)
    followed by one JSON line per group commit —
    ``{"k0": <first cursor>, "n": <count>, "batch": <base64 pickle>}``
    where the batch payload is the committed ``(k, failed, status)``
    triples (a baseline run's status is its record dict).
    Appends are buffered and group-committed: encoded and
    flushed every ``FLUSH_EVERY`` records and on close, so a crash
    loses at most the last uncommitted batch — which the resume simply
    re-executes (the plan stream is deterministic) — while the
    per-record hot-path cost stays at the fault probes plus a list
    append, and the batch is serialized back-to-back with warm caches
    instead of scattered through the campaign's interpreter work.  A
    torn trailing line (killed mid-write) is quarantined on the next
    open with the ledger's recovery discipline.  Appends are
    best-effort: an I/O error disables the journal for the rest of the
    stream (warned and counted) rather than taking the campaign down.
    """

    #: Group-commit interval: records between explicit flushes.  Small
    #: enough that a kill loses under a dozen (cheap, deterministic)
    #: re-executions; large enough to amortize the flush syscall.
    FLUSH_EVERY = 8

    def __init__(self, path, stream, fingerprint):
        self.path = os.fspath(path)
        self.stream = stream
        self.fingerprint = fingerprint
        self._handle = None
        self._has_header = False
        self._pending = []
        self.disabled = False
        self.replayed = 0

    @property
    def quarantine_path(self):
        return self.path + ".quarantine"

    # -- replay ---------------------------------------------------------

    def replay(self):
        """The journaled run records, oldest first (empty when unusable).

        A journal whose header does not match this stream's fingerprint
        — a format change, a different campaign — is ignored (and will
        be overwritten by the first append).  Records after the first
        unparseable line are dropped with the file truncated to the
        good prefix, so later appends never follow garbage.
        """
        try:
            resilience.fault_point("checkpoint-read-error")
            fragment = resilience.recover_jsonl_tail(
                self.path, self.quarantine_path, label="checkpoint")
            if fragment:
                get_obs().counter("checkpoint.quarantined").inc()
            with open(self.path, "rb") as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return []
        except OSError as exc:
            get_obs().counter("checkpoint.read_errors").inc()
            print("repro: warning: checkpoint journal %s unreadable "
                  "(%s: %s); restarting stream from scratch"
                  % (self.path, type(exc).__name__, exc), file=sys.stderr)
            return []
        if not lines:
            return []
        header = self._parse_header(lines[0])
        if header is None:
            return []
        records = []
        good = len(lines[0])
        for line in lines[1:]:
            batch = self._parse_batch(line)
            if batch is None:
                self._truncate(good)
                break
            records.extend(batch)
            good += len(line)
        self._has_header = True
        self.replayed = len(records)
        if records:
            get_obs().counter("checkpoint.replayed").inc(len(records))
        return records

    def _parse_header(self, line):
        try:
            header = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if (header.get("version") != CHECKPOINT_FORMAT_VERSION
                or header.get("fingerprint") != self.fingerprint):
            return None
        return header

    @staticmethod
    def _parse_batch(line):
        """Decode one group-commit line into record dicts, or ``None``."""
        try:
            raw = json.loads(line)
            triples = pickle.loads(base64.b64decode(raw["batch"]))
            if (int(raw["n"]) != len(triples)
                    or not triples
                    or int(raw["k0"]) != triples[0][0]):
                return None
            return [{"k": int(k), "failed": bool(failed), "status": status}
                    for k, failed, status in triples]
        except Exception:
            return None

    def _truncate(self, size):
        try:
            with open(self.path, "rb+") as handle:
                handle.truncate(size)
        except OSError:
            pass

    # -- appending ------------------------------------------------------

    @staticmethod
    def _encode(triples):
        # Hand-formatted batch line: the values need no escaping (ints,
        # base64 alphabet), and one pickle over the whole batch shares
        # the memo across statuses — measurably cheaper than one
        # json.dumps + pickle per record.
        return '{"k0":%d,"n":%d,"batch":"%s"}\n' % (
            triples[0][0], len(triples),
            base64.b64encode(pickle.dumps(triples)).decode("ascii"))

    def append(self, k, failed, status):
        """Record one consumed run; best-effort, group-committed.

        The record is buffered raw and serialized at the next group
        commit: encoding a batch back-to-back costs roughly half of
        encoding each record amid the campaign's interpreter work
        (cold caches), and the per-record hot-path cost drops to the
        fault probes plus a list append.
        """
        if self.disabled:
            return
        torn = False
        try:
            resilience.fault_point("checkpoint-write-error")
            if resilience.fault_point("checkpoint-write-torn"):
                # A kill -9 mid-write: everything buffered lands, then
                # half of this record's line, and the stream dies; the
                # next open quarantines the fragment.
                self._drain()
                line = self._encode([(k, failed, status)])
                handle = self._open()
                handle.write(line[:max(1, len(line) // 2)])
                handle.flush()
                torn = True
            else:
                self._pending.append((k, failed, status))
                if len(self._pending) >= self.FLUSH_EVERY:
                    self._drain()
        except OSError as exc:
            self._disable(exc)
            return
        if torn:
            # Unlike a plain write error (best-effort: disable and move
            # on), a torn write models the process dying mid-append —
            # propagate so the campaign unwinds like the crash it is.
            raise resilience.FaultError("checkpoint-write-torn")

    def _drain(self):
        """Group commit: encode and write all buffered records."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        handle = self._open()
        handle.write(self._encode(pending))
        handle.flush()

    def _disable(self, exc):
        self.disabled = True
        self._pending = []
        get_obs().counter("checkpoint.append_errors").inc()
        print("repro: warning: checkpoint append failed (%s: %s); "
              "journal %s disabled for this stream"
              % (type(exc).__name__, exc, self.path), file=sys.stderr)

    def _open(self):
        if self._handle is None:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            mode = "a"
            if not self._has_header:
                # A file written by a different stream fingerprint (a
                # format bump, another campaign) is stale: overwrite it
                # rather than appending records it would replay.
                try:
                    with open(self.path, "rb") as handle:
                        first = handle.readline()
                    if first and self._parse_header(first) is None:
                        mode = "w"
                except OSError:
                    pass
            self._handle = open(self.path, mode, encoding="utf-8")
            if not self._has_header and self._handle.tell() == 0:
                self._handle.write(json.dumps({
                    "version": CHECKPOINT_FORMAT_VERSION,
                    "stream": self.stream,
                    "fingerprint": self.fingerprint,
                }, sort_keys=True) + "\n")
                self._handle.flush()
            self._has_header = True
        return self._handle

    def close(self):
        try:
            self._drain()
        except OSError as exc:
            if not self.disabled:
                self._disable(exc)
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------

class CheckpointSession:
    """One invocation's checkpoint directory: manifest + journals."""

    MANIFEST = "session.json"

    def __init__(self, directory, session_id, argv):
        self.directory = os.fspath(directory)
        self.session_id = session_id
        self.argv = list(argv)
        self._journals = []

    # -- construction ---------------------------------------------------

    @classmethod
    def create(cls, root, argv):
        """Open (resuming) or create the session for *argv* under *root*."""
        argv = normalize_argv(argv)
        session_id = session_id_for(argv)
        directory = os.path.join(os.fspath(root), session_id)
        session = cls(directory, session_id, argv)
        os.makedirs(directory, exist_ok=True)
        manifest_path = os.path.join(directory, cls.MANIFEST)
        if not os.path.exists(manifest_path):
            with open(manifest_path, "w", encoding="utf-8") as handle:
                json.dump({
                    "version": CHECKPOINT_FORMAT_VERSION,
                    "session_id": session_id,
                    "argv": argv,
                    "command": "repro " + " ".join(argv),
                }, handle, sort_keys=True, indent=2)
        return session

    @classmethod
    def load(cls, root, session_id):
        """The previously created session *session_id* under *root*."""
        directory = os.path.join(os.fspath(root), session_id)
        manifest_path = os.path.join(directory, cls.MANIFEST)
        try:
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise CheckpointError(
                "no checkpoint session %r under %s"
                % (session_id, os.fspath(root))) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                "checkpoint session %r is unreadable (%s: %s)"
                % (session_id, type(exc).__name__, exc)) from None
        return cls(directory, manifest.get("session_id", session_id),
                   manifest.get("argv", []))

    # -- journals -------------------------------------------------------

    def journal(self, stream, fingerprint):
        """The stream's journal (file name is the fingerprint hash)."""
        path = os.path.join(self.directory, fingerprint[:32] + ".jsonl")
        journal = CheckpointJournal(path, stream, fingerprint)
        self._journals.append(journal)
        return journal

    # -- lifecycle ------------------------------------------------------

    def close(self):
        for journal in self._journals:
            journal.close()

    def mark_complete(self):
        """The invocation finished: journals are spent, remove them."""
        self.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def list_sessions(root):
    """Resumable sessions under *root*, oldest first (by manifest mtime)."""
    root = os.fspath(root)
    sessions = []
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return []
    for name in names:
        manifest_path = os.path.join(root, name,
                                     CheckpointSession.MANIFEST)
        try:
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
            mtime = os.stat(manifest_path).st_mtime
        except (OSError, json.JSONDecodeError):
            continue
        sessions.append({
            "session_id": manifest.get("session_id", name),
            "argv": manifest.get("argv", []),
            "command": manifest.get("command", ""),
            "mtime": mtime,
        })
    sessions.sort(key=lambda info: (info["mtime"], info["session_id"]))
    return sessions


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------

class CampaignBudget:
    """A per-invocation bound on fresh campaign work.

    ``run_budget`` caps the number of *fresh* run executions (journal
    replays are free — a resumed campaign keeps its paid-for evidence);
    ``deadline`` is a wall-clock allowance in seconds, measured from
    :meth:`start` (the CLI starts it when the command begins).  A
    campaign checks :meth:`exhausted` before each fresh execution and
    stops cleanly — reporting ``partial`` with the returned reason —
    instead of raising.
    """

    def __init__(self, run_budget=None, deadline=None):
        if run_budget is not None and int(run_budget) < 0:
            raise ValueError("run_budget must be >= 0, not %r"
                             % (run_budget,))
        if deadline is not None and float(deadline) <= 0:
            raise ValueError("deadline must be positive seconds, not %r"
                             % (deadline,))
        self.run_budget = int(run_budget) if run_budget is not None \
            else None
        self.deadline = float(deadline) if deadline is not None else None
        self.charged = 0
        self._started = None

    def start(self):
        if self._started is None:
            self._started = time.monotonic()
        return self

    def charge(self, runs=1):
        """Count *runs* fresh executions against the budget."""
        self.charged += runs

    def exhausted(self):
        """``None`` while work may continue, else the stop reason."""
        if self.run_budget is not None and self.charged >= self.run_budget:
            return "run-budget"
        if self.deadline is not None:
            self.start()
            if time.monotonic() - self._started >= self.deadline:
                return "deadline"
        return None


class _NullBudget:
    """No limits; the default.  ``exhausted()`` is the only hot call."""

    run_budget = None
    deadline = None
    charged = 0

    def start(self):
        return self

    def charge(self, runs=1):
        pass

    @staticmethod
    def exhausted():
        return None


NULL_BUDGET = _NullBudget()


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------

class CampaignSupervisor:
    """Watchdog thread over named campaign heartbeats.

    Producers call :meth:`beat` (the campaign loop, the executor's
    resolve path — one dict write, safe from any thread).  The monitor
    wakes every ``poll_interval`` seconds; a heartbeat older than
    ``stall_timeout`` escalates: the stall is counted in ``stalls`` and
    obs metrics and reported on stderr.  The executor's own failure
    ladder (per-batch timeout → pool recycle → inline fallback) remains
    the recovery mechanism — the supervisor is the campaign-level
    observer that notices when even that ladder has gone quiet.  The
    ``supervisor-stall`` fault site forces one escalation
    deterministically for tests.
    """

    def __init__(self, stall_timeout=None, poll_interval=None):
        if stall_timeout is None:
            raw = os.environ.get(STALL_TIMEOUT_ENV)
            stall_timeout = float(raw) if raw else 300.0
        if stall_timeout <= 0:
            raise ValueError("stall_timeout must be positive seconds, "
                             "not %r" % (stall_timeout,))
        self.stall_timeout = float(stall_timeout)
        self.poll_interval = float(poll_interval) if poll_interval \
            else min(self.stall_timeout / 4.0, 5.0)
        self.stalls = 0
        self._beats = {}
        self._stop = threading.Event()
        self._thread = None

    # -- producer side --------------------------------------------------

    def beat(self, name="campaign"):
        """Record liveness of *name* (cheap; called per consumed run)."""
        self._beats[name] = time.monotonic()

    # -- monitor side ---------------------------------------------------

    def start(self):
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._monitor, name="repro-supervisor", daemon=True)
            self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.poll_interval * 2 + 1.0)
            self._thread = None

    def _monitor(self):
        while not self._stop.wait(self.poll_interval):
            self.check()

    def check(self):
        """One liveness sweep; returns the stalled heartbeat names."""
        forced = resilience.fault_point("supervisor-stall")
        now = time.monotonic()
        stalled = sorted(
            name for name, beat in list(self._beats.items())
            if now - beat > self.stall_timeout
        )
        if forced and not stalled:
            stalled = ["forced"]
        if stalled:
            self.stalls += 1
            get_obs().counter("supervisor.stalls").inc()
            print("repro: warning: supervisor: no heartbeat from %s for "
                  ">%.1fs" % (", ".join(stalled), self.stall_timeout),
                  file=sys.stderr)
        return stalled


class _NullSupervisor:
    """No watchdog; the default.  ``beat()`` is the only hot call."""

    stalls = 0

    def beat(self, name="campaign"):
        pass

    def start(self):
        return self

    def stop(self):
        pass


NULL_SUPERVISOR = _NullSupervisor()


# ----------------------------------------------------------------------
# The current session/budget/supervisor (module-global pattern)
# ----------------------------------------------------------------------

_SESSION = None
_BUDGET = NULL_BUDGET
_SUPERVISOR = NULL_SUPERVISOR

#: Session id of the last session interrupted mid-invocation, consumed
#: by the CLI to print the resume hint after the unwind.
_INTERRUPTED_SESSION = None


def get_session():
    """The active :class:`CheckpointSession`, or ``None``."""
    return _SESSION


def get_budget():
    """The active :class:`CampaignBudget` (the no-limit one by default)."""
    return _BUDGET


def get_supervisor():
    """The active :class:`CampaignSupervisor` (a no-op by default)."""
    return _SUPERVISOR


@contextlib.contextmanager
def use_session(session):
    """Install *session* as current for the duration."""
    global _SESSION
    previous = _SESSION
    _SESSION = session
    try:
        yield session
    finally:
        _SESSION = previous


@contextlib.contextmanager
def use_budget(budget):
    """Install *budget* as current (and start its clock)."""
    global _BUDGET
    previous = _BUDGET
    _BUDGET = budget.start()
    try:
        yield budget
    finally:
        _BUDGET = previous


@contextlib.contextmanager
def use_supervisor(supervisor):
    """Install *supervisor* as current for the duration."""
    global _SUPERVISOR
    previous = _SUPERVISOR
    _SUPERVISOR = supervisor
    try:
        yield supervisor
    finally:
        _SUPERVISOR = previous


def note_interrupted_session(session):
    """Remember *session* so the CLI can print a resume hint."""
    global _INTERRUPTED_SESSION
    _INTERRUPTED_SESSION = session.session_id if session else None


def pop_interrupted_session():
    """The last interrupted session id (cleared on read), or ``None``."""
    global _INTERRUPTED_SESSION
    session_id = _INTERRUPTED_SESSION
    _INTERRUPTED_SESSION = None
    return session_id


# ----------------------------------------------------------------------
# Signals
# ----------------------------------------------------------------------

@contextlib.contextmanager
def graceful_signals():
    """Convert SIGTERM into :class:`CampaignInterrupted` for the duration.

    SIGINT keeps its default (KeyboardInterrupt) — both unwind through
    the same ``finally`` cleanup and are caught together by the CLI.
    Outside the main thread (or where SIGTERM does not exist) this is a
    no-op.
    """
    def _handler(_signum, _frame):
        raise CampaignInterrupted("SIGTERM")

    try:
        previous = signal.signal(signal.SIGTERM, _handler)
    except (ValueError, AttributeError, OSError):
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


__all__ = [
    "CHECKPOINT_DIR_ENV",
    "CHECKPOINT_FORMAT_VERSION",
    "CampaignBudget",
    "CampaignInterrupted",
    "CampaignSupervisor",
    "CheckpointError",
    "CheckpointJournal",
    "CheckpointSession",
    "DEFAULT_CHECKPOINT_DIR",
    "NULL_BUDGET",
    "NULL_SUPERVISOR",
    "RESUMABLE_EXIT_CODE",
    "STALL_TIMEOUT_ENV",
    "get_budget",
    "get_session",
    "get_supervisor",
    "graceful_signals",
    "list_sessions",
    "normalize_argv",
    "note_interrupted_session",
    "pop_interrupted_session",
    "resolve_checkpoint_dir",
    "session_id_for",
    "stream_fingerprint",
    "use_budget",
    "use_session",
    "use_supervisor",
    "workload_token",
]
