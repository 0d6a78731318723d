"""Crash-safety for the run pipeline: fault injection and locks.

The run cache, the run ledger and the checkpoint journal exist to carry
diagnosis evidence; this module makes them trustworthy *under* the
failures they record.  Two pieces:

* **Deterministic fault injection.**  :class:`FaultPlan` fires faults
  at named sites (see :data:`FAULT_SITES`) on exact, reproducible
  arrival numbers — "tear the second ledger append", "kill the process
  at the thirteenth journal append".  A plan activates programmatically
  (:func:`use_plan`), via the ``REPRO_FAULTS`` environment variable
  (``site[:times[:skip]]``, comma-separated), or via the CLI's
  ``--inject-faults`` flag.  Arrival counts are per process.  ``skip``
  may be ``?``, deriving a small deterministic offset from the plan
  seed and site name, so one seed shifts every site's firing point
  reproducibly.
* **Advisory file locking.**  :class:`FileLock` wraps ``fcntl.flock``
  (no-op where ``fcntl`` is unavailable) and serializes the ledger's
  tail-recovery-and-append step and the run cache's publish step, so
  concurrent CLI invocations interleave safely.

Instrumented production code calls :func:`fault_point` at each site.
With no active plan that is one module-global check — the chaos
harness costs ~nothing when idle (pinned by
``benchmarks/test_resilience_overhead.py``).
"""

import contextlib
import hashlib
import os
import sys
from dataclasses import dataclass

try:                                    # POSIX only; no-op elsewhere
    import fcntl
except ImportError:                     # pragma: no cover (non-POSIX)
    fcntl = None

#: Environment variables that install a fault plan (see
#: :func:`active_plan`).
FAULTS_ENV = "REPRO_FAULTS"
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"

#: Every injectable site, with what firing it does.
FAULT_SITES = {
    "cache-write-torn": "run-cache disk write publishes a truncated "
                        "entry",
    "cache-write-error": "run-cache disk write raises OSError",
    "cache-read-error": "run-cache disk read raises OSError",
    "ledger-write-torn": "ledger append stops mid-line, as if killed "
                         "between write and newline",
    "ledger-write-error": "ledger append raises OSError",
    "checkpoint-write-error": "checkpoint journal append raises OSError",
    "checkpoint-write-torn": "checkpoint journal append stops mid-line, "
                             "as if killed between write and newline",
    "checkpoint-read-error": "checkpoint journal load raises OSError "
                             "(the stream restarts from scratch)",
    "supervisor-stall": "the campaign supervisor treats the next "
                        "liveness sweep as stalled",
}

#: Exit code of a ``!kill`` fault (recognizably not a signal).
CRASH_EXIT_CODE = 70


class FaultSpecError(ValueError):
    """An ``--inject-faults`` / ``REPRO_FAULTS`` spec does not parse."""


class FaultError(OSError):
    """The error an ``*-error`` fault site raises when it fires."""

    def __init__(self, site):
        super().__init__("injected fault at site %r" % site)
        self.site = site


# ----------------------------------------------------------------------
# Advisory file locking
# ----------------------------------------------------------------------

class FileLock:
    """Advisory exclusive lock on *path* (``fcntl.flock``), blocking.

    Usable as a context manager and re-entrant per instance.  Where
    ``fcntl`` is unavailable the lock degrades to a no-op — single-
    process correctness never depends on it; it only serializes
    *concurrent invocations* sharing a directory.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._fd = None
        self._depth = 0

    def acquire(self):
        self._depth += 1
        if self._depth > 1 or fcntl is None:
            return
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        fcntl.flock(self._fd, fcntl.LOCK_EX)

    def release(self):
        self._depth -= 1
        if self._depth > 0 or self._fd is None:
            return
        try:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
        finally:
            os.close(self._fd)
            self._fd = None

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *_exc):
        self.release()
        return False


# ----------------------------------------------------------------------
# Torn-tail recovery (shared by the ledger and checkpoint journals)
# ----------------------------------------------------------------------

def recover_jsonl_tail(path, quarantine_path, label="journal"):
    """Quarantine+truncate a torn trailing line of a JSONL file.

    Appends to these files are whole-line, so only the *last* line can
    be torn — the footprint of a process killed mid-write.  Scans a
    bounded tail chunk; when the file does not end in a newline, the
    fragment after the last newline moves to *quarantine_path* (never
    destroyed) and the file is truncated to the last complete line.
    Returns the quarantined fragment (``b""`` when the tail was clean).
    """
    try:
        with open(path, "rb+") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if size == 0:
                return b""
            chunk = min(size, 1 << 16)
            handle.seek(size - chunk)
            data = handle.read(chunk)
            if data.endswith(b"\n"):
                return b""
            cut = data.rfind(b"\n") + 1   # 0 when no newline in chunk
            fragment = data[cut:]
            with open(quarantine_path, "ab") as quarantine:
                quarantine.write(fragment.rstrip(b"\n") + b"\n")
            handle.truncate(size - len(data) + cut)
    except FileNotFoundError:
        return b""
    print("repro: warning: quarantined %d bytes of torn %s tail to %s"
          % (len(fragment), label, quarantine_path), file=sys.stderr)
    return fragment


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _SiteSpec:
    times: int                          # how many arrivals fire
    skip: int                           # arrivals to let pass first
    kill: bool = False                  # hard-exit instead of the
                                        # site's normal behaviour


def _seeded_skip(seed, site, bound=4):
    digest = hashlib.sha256(("%s|%s" % (seed, site)).encode()).hexdigest()
    return int(digest, 16) % bound


class FaultPlan:
    """A deterministic schedule of injected faults.

    ``sites`` maps a :data:`FAULT_SITES` name to a :class:`_SiteSpec`;
    arrival *n* (1-based, counted per site in this process) fires when
    ``skip < n <= skip + times``.
    """

    def __init__(self, sites, seed=0):
        unknown = sorted(set(sites) - set(FAULT_SITES))
        if unknown:
            raise FaultSpecError(
                "unknown fault site(s) %s; known sites: %s" % (
                    ", ".join(repr(s) for s in unknown),
                    ", ".join(sorted(FAULT_SITES)),
                )
            )
        self.sites = dict(sites)
        self.seed = int(seed)
        self._counts = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def parse(cls, spec, seed=0):
        """Parse ``"site[!kill][:times[:skip]],..."`` into a plan.

        ``times`` defaults to 1; ``skip`` defaults to 0, and the
        literal ``?`` derives it deterministically from the seed.  The
        ``!kill`` modifier turns the site into a hard process exit —
        "SIGKILL the moment execution reaches this site" — which is how
        the resume-equivalence chaos tests die mid-campaign at every
        registered site.
        """
        sites = {}
        for part in str(spec).split(","):
            part = part.strip()
            if not part:
                continue
            pieces = part.split(":")
            if len(pieces) > 3:
                raise FaultSpecError(
                    "bad fault spec %r (expected site[!kill]"
                    "[:times[:skip]])" % part)
            name, _, modifier = pieces[0].partition("!")
            if modifier not in ("", "kill"):
                raise FaultSpecError(
                    "bad fault modifier %r in %r (only '!kill' is "
                    "recognized)" % (modifier, part))
            try:
                times = int(pieces[1]) if len(pieces) > 1 else 1
                skip = (_seeded_skip(seed, name)
                        if len(pieces) > 2 and pieces[2] == "?"
                        else int(pieces[2]) if len(pieces) > 2 else 0)
            except ValueError:
                raise FaultSpecError(
                    "bad fault spec %r (times/skip must be integers, "
                    "skip may be '?')" % part) from None
            sites[name] = _SiteSpec(times=times, skip=skip,
                                    kill=(modifier == "kill"))
        if not sites:
            raise FaultSpecError("empty fault spec %r" % (spec,))
        return cls(sites, seed=seed)

    @classmethod
    def from_env(cls, environ=None):
        """The plan ``$REPRO_FAULTS`` describes, or ``None``."""
        environ = os.environ if environ is None else environ
        spec = environ.get(FAULTS_ENV)
        if not spec:
            return None
        return cls.parse(
            spec, seed=int(environ.get(FAULTS_SEED_ENV, "0") or 0))

    def describe_spec(self):
        """The ``site[!kill]:times:skip`` spec this plan round-trips to."""
        return ",".join(
            "%s%s:%d:%d" % (name, "!kill" if spec.kill else "",
                            spec.times, spec.skip)
            for name, spec in sorted(self.sites.items())
        )

    def should_fire(self, site):
        """Consume one arrival at *site*; True when the fault fires."""
        spec = self.sites.get(site)
        if spec is None:
            return False
        arrival = self._counts.get(site, 0) + 1
        self._counts[site] = arrival
        return spec.skip < arrival <= spec.skip + spec.times


# ----------------------------------------------------------------------
# The active plan (observability pattern: module-level current)
# ----------------------------------------------------------------------

_UNSET = object()
_active = _UNSET


def active_plan():
    """The active :class:`FaultPlan`, lazily read from the environment.

    Returns ``None`` (and caches that) when no plan is installed and
    ``$REPRO_FAULTS`` is empty — the common case pays one global read.
    """
    global _active
    if _active is _UNSET:
        _active = FaultPlan.from_env()
    return _active


def install_plan(plan):
    """Install *plan* (or ``None``) as active; returns the previous."""
    global _active
    previous = None if _active is _UNSET else _active
    _active = plan
    return previous


def reset_plan_cache():
    """Forget the cached env lookup (tests change ``$REPRO_FAULTS``)."""
    global _active
    _active = _UNSET


@contextlib.contextmanager
def use_plan(plan):
    """Install *plan* as the active plan for the duration."""
    previous = install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)


def fault_point(site):
    """One instrumented site; returns True when an injected fault fires.

    Behaviour by site class: ``*-error`` sites raise
    :class:`FaultError`, and torn-write sites return True so the caller
    performs the torn write itself.  A site scheduled with the
    ``!kill`` modifier hard-exits the process the moment it fires — the
    SIGKILL shape the resume chaos tests use at every registered site.
    With no active plan this is a single global check.
    """
    plan = active_plan()
    if plan is None:
        return False
    if not plan.should_fire(site):
        return False
    from repro.obs import get_obs
    get_obs().counter("faults.injected").inc()
    print("repro: injected fault at %r" % site, file=sys.stderr)
    if plan.sites[site].kill:
        sys.stderr.flush()
        os._exit(CRASH_EXIT_CODE)
    if site.endswith("-error"):
        raise FaultError(site)
    return True


__all__ = [
    "CRASH_EXIT_CODE",
    "FAULT_SITES",
    "FAULTS_ENV",
    "FAULTS_SEED_ENV",
    "FaultError",
    "FaultPlan",
    "FaultSpecError",
    "FileLock",
    "active_plan",
    "fault_point",
    "install_plan",
    "recover_jsonl_tail",
    "reset_plan_cache",
    "use_plan",
]
