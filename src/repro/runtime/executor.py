"""Campaign execution with a content-addressed run cache.

The diagnosis tools and the paper's evaluation drivers all reduce to
*run campaigns*: execute the same program over a deterministic stream of
run plans until some outcome quota is met (10+10 runs for LBRA/LCRA,
1000+1000 for the CBI-style baselines).  Every run is independent — a
fresh machine, a fresh scheduler seeded by the plan index, and for a
baseline run a record it returns instead of writing to its tool — so
its result is a pure function of its inputs and content-addressable.
This module exploits that:

* :class:`CampaignExecutor` runs each attempt in process, when the
  consumer pulls it, in plan order, so a campaign that stops at its
  quota executes nothing past it.  Determinism contract: **an
  attempt's result depends only on its (program, plan, config)
  triple**, so the backend that executes it and the cache state that
  replays it change wall-clock time, never outcomes.
* :class:`RunCache` memoizes finished runs under a content-addressed
  key — ``sha256(program fingerprint | plan fingerprint | machine
  config fingerprint | format version)``, where the program fingerprint
  covers the linked machine text (instructions, string table, global
  layout and initializers, entry point) and the plan fingerprint covers
  the arguments, step budget, globals setup, and scheduler identity.
  Every executor owns one.  Its bounded in-memory LRU layer serves
  repeated plan runs within the executor — campaigns repeat plans, so
  each distinct triple executes once.  A baseline (CBI/CCI/PBI) attempt
  is keyed by (tool, plan) without its run seed: the cache holds the
  plan's recorded event stream, and each attempt's record is derived
  from it.  ``cache=True`` adds an on-disk layer under
  ``.repro-cache/`` that serves repeats across invocations (a warm
  second ``python -m repro experiment table6 --cache`` replays runs
  instead of re-executing them).  Corrupt disk entries are discarded,
  never trusted.

Plans whose scheduler factory cannot be fingerprinted (an arbitrary
closure) bypass the cache: they execute on every attempt and are never
stored.  The disk layer validates entries on read, evicts anything
corrupt, and publishes under an advisory file lock (see
:mod:`repro.runtime.resilience`) so concurrent invocations sharing
``.repro-cache/`` interleave safely.
"""

import hashlib
import os
import pickle
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace

from repro.machine.cpu import MachineConfig
from repro.obs import get_obs
from repro.runtime import checkpoint
from repro.runtime.process import execute_plan
from repro.runtime.resilience import FileLock, fault_point

#: Bump when the cached value layout changes; stale entries then miss.
#: (3: run keys cover MachineConfig.backend — see repro.machine.backends.)
CACHE_FORMAT_VERSION = 3

#: Default on-disk cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

_MISS = object()


# ----------------------------------------------------------------------
# Content-addressed fingerprints
# ----------------------------------------------------------------------

def fingerprint_program(program):
    """Stable content hash of a linked program's machine text.

    Covers everything run outcomes depend on: the instruction stream,
    string table, global-variable layout and initializers, and the
    entry point.  Cached on the program object — programs are reused
    across thousands of runs.
    """
    cached = program.__dict__.get("_content_fingerprint")
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(program.source_name.encode())
    digest.update(program.entry.encode())
    # One bulk update per section: per-instruction update() calls cost
    # more than the hashing itself on kilo-instruction programs.
    digest.update("\n".join(
        [instr.describe() for instr in program.instructions]).encode())
    digest.update(b"\n")
    digest.update("".join(
        [repr(text) for text in program.string_table]).encode())
    digest.update(repr(sorted(program.globals_layout.items())).encode())
    digest.update(repr(program.globals_size).encode())
    digest.update(repr(sorted(program.global_init.items())).encode())
    fingerprint = digest.hexdigest()
    program.__dict__["_content_fingerprint"] = fingerprint
    return fingerprint


def fingerprint_plan(plan):
    """Stable description of a run plan, or ``None`` if uncacheable.

    A plan with a scheduler factory is only fingerprintable when the
    factory declares a ``cache_token`` attribute (a stable string); an
    anonymous closure could hide any schedule, so such plans bypass the
    cache rather than risk a wrong hit.
    """
    if plan.scheduler_factory is None:
        scheduler = "default-rr"
    else:
        scheduler = getattr(plan.scheduler_factory, "cache_token", None)
        if scheduler is None:
            return None
    return repr((tuple(plan.args), scheduler, plan.max_steps,
                 sorted(plan.globals_setup.items())))


def fingerprint_config(config):
    """Stable description of a :class:`MachineConfig` (dataclass repr)."""
    return repr(config)


def fingerprint_workload(workload):
    """Stable description of a workload for baseline-tool run keys."""
    cls = type(workload)
    return repr((cls.__module__, cls.__qualname__, workload.name,
                 workload.source, tuple(workload.log_functions),
                 workload.num_cores, workload.language,
                 workload.failure_output))


def fingerprint_tool(tool):
    """Stable content hash of a baseline tool (run cache and journal key).

    Covers the tool's ``_clone_spec`` and machine config; cached on the
    tool.
    """
    cached = tool.__dict__.get("_content_fingerprint")
    if cached is not None:
        return cached
    tool_class, workload, kwargs = tool._clone_spec()
    fingerprint = hashlib.sha256(repr((
        tool_class.__module__, tool_class.__qualname__,
        fingerprint_workload(workload), sorted(kwargs.items()),
        fingerprint_config(tool.machine_config),
    )).encode()).hexdigest()
    tool.__dict__["_content_fingerprint"] = fingerprint
    return fingerprint


def _run_key(program_fp, plan, config):
    plan_fp = fingerprint_plan(plan)
    if plan_fp is None:
        return None
    return hashlib.sha256("|".join((
        "run", str(CACHE_FORMAT_VERSION), program_fp,
        plan_fp, fingerprint_config(config),
    )).encode()).hexdigest()


def _baseline_key(tool_fp, plan):
    plan_fp = fingerprint_plan(plan)
    if plan_fp is None:
        return None
    return hashlib.sha256("|".join((
        "baseline", str(CACHE_FORMAT_VERSION), tool_fp, plan_fp,
    )).encode()).hexdigest()


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

@dataclass
class RunResult:
    """One run's outcome as produced by the executor.

    ``cached`` marks cache replays.  ``duration`` is the run's own
    execution time, preserved across cache replays so the stats report
    can estimate the sequential cost.
    """

    status: object                 # ExitStatus
    hwop_counts: dict = field(default_factory=dict)
    hwop_broadcast: int = 0
    duration: float = 0.0
    cached: bool = False


# ----------------------------------------------------------------------
# The run cache
# ----------------------------------------------------------------------

class RunCache:
    """Two-layer content-addressed cache: in-memory LRU over on-disk.

    Values are small dicts ``{"value": <picklable>, "duration": float}``.
    The disk layer shards by the first two key characters and writes
    atomically (temp file + rename), so concurrent invocations sharing
    ``.repro-cache/`` never observe half-written entries.  Entries that
    fail to unpickle (truncated file, poisoned content, stale format)
    are deleted and counted, not propagated.
    """

    def __init__(self, directory=None, memory_capacity=4096):
        self.directory = directory
        self.memory_capacity = memory_capacity
        self._memory = OrderedDict()
        #: lookups the disk layer served (how the executor tells a
        #: disk hit from a memory hit)
        self.hits_disk = 0
        self.stores = 0
        self.corrupt_dropped = 0
        self.write_errors = 0
        self._disk_lock = (FileLock(os.path.join(directory, ".lock"))
                           if directory is not None else None)

    # -- lookup ---------------------------------------------------------

    def get(self, key):
        entry = self._memory.get(key, _MISS)
        if entry is not _MISS:
            self._memory.move_to_end(key)
            return entry
        entry = self._disk_get(key)
        if entry is not _MISS:
            self.hits_disk += 1
            self._memory_put(key, entry)
        return entry

    def put(self, key, entry):
        self._memory_put(key, entry)
        self._disk_put(key, entry)
        self.stores += 1

    @staticmethod
    def is_miss(entry):
        return entry is _MISS

    # -- memory layer ---------------------------------------------------

    def _memory_put(self, key, entry):
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_capacity:
            self._memory.popitem(last=False)

    # -- disk layer -----------------------------------------------------

    def _path(self, key):
        return os.path.join(self.directory, key[:2], key + ".pkl")

    def _disk_get(self, key):
        if self.directory is None:
            return _MISS
        path = self._path(key)
        try:
            fault_point("cache-read-error")
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            if payload.get("format") != CACHE_FORMAT_VERSION:
                raise ValueError("stale cache format")
            return {"value": payload["value"],
                    "duration": payload["duration"]}
        except FileNotFoundError:
            return _MISS
        except Exception:
            # Poisoned or unreadable entry (torn write, stale format,
            # I/O error): evict it rather than crash or trust it — the
            # run re-executes and re-stores a fresh entry.
            self.corrupt_dropped += 1
            get_obs().counter("cache.corrupt_dropped").inc()
            try:
                os.unlink(path)
            except OSError:
                pass
            return _MISS

    def _disk_put(self, key, entry):
        if self.directory is None:
            return
        path = self._path(key)
        payload = {"format": CACHE_FORMAT_VERSION,
                   "value": entry["value"],
                   "duration": entry["duration"]}
        temp_path = None
        try:
            fault_point("cache-write-error")
            blob = pickle.dumps(payload,
                                protocol=pickle.HIGHEST_PROTOCOL)
            if fault_point("cache-write-torn"):
                blob = blob[:max(1, len(blob) // 2)]
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, temp_path = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            # Publish under the advisory lock: concurrent invocations
            # sharing this directory serialize their (atomic) renames.
            with self._disk_lock:
                os.replace(temp_path, path)
            temp_path = None
        except (OSError, pickle.PicklingError):
            # Disk layer is best-effort; memory layer already holds it.
            self.write_errors += 1
            get_obs().counter("cache.disk_write_errors").inc()
        finally:
            if temp_path is not None:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass


# ----------------------------------------------------------------------
# Executor statistics
# ----------------------------------------------------------------------

@dataclass
class ExecutorStats:
    """Observable record of what one executor did.

    ``busy_seconds`` sums the execution time of fresh runs;
    ``saved_seconds`` sums the recorded execution time of cache
    replays.
    """

    inline_runs: int = 0
    cache_hits_memory: int = 0
    cache_hits_disk: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    cache_corrupt_dropped: int = 0
    busy_seconds: float = 0.0
    saved_seconds: float = 0.0
    started_at: float = field(default_factory=time.perf_counter)

    @property
    def attempts(self):
        """Total runs produced (fresh executions plus cache replays)."""
        return (self.inline_runs
                + self.cache_hits_memory + self.cache_hits_disk)

    @property
    def cache_hits(self):
        return self.cache_hits_memory + self.cache_hits_disk

    @property
    def wall_seconds(self):
        return time.perf_counter() - self.started_at

    def mark(self):
        """These stats as they stand now, for :meth:`to_dict`'s *since*."""
        return replace(self)

    def to_dict(self, since=None):
        """The venue record: how attempts were produced — only the
        attempts made after the :meth:`mark` *since*, when given (a
        ledger entry's ``executor`` bucket,
        ``DiagnosisReport.campaign["executor"]``)."""
        base = since or ExecutorStats()
        return {
            "attempts": self.attempts - base.attempts,
            "inline_runs": self.inline_runs - base.inline_runs,
            "cache_hits": self.cache_hits - base.cache_hits,
            "cache_misses": self.cache_misses - base.cache_misses,
        }

    def snapshot_rows(self):
        """Rows for the stats table (see ``experiments.report``)."""
        return [
            ("attempts produced", self.attempts),
            ("runs executed", self.inline_runs),
            ("cache hits (memory)", self.cache_hits_memory),
            ("cache hits (disk)", self.cache_hits_disk),
            ("cache misses", self.cache_misses),
            ("cache stores", self.cache_stores),
            ("corrupt cache entries dropped", self.cache_corrupt_dropped),
            ("busy seconds (fresh runs)", "%.2f" % self.busy_seconds),
            ("seconds saved by cache", "%.2f" % self.saved_seconds),
            ("wall clock (s)", "%.2f" % self.wall_seconds),
        ]


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------

class CampaignExecutor:
    """Runs campaign attempts in process, in plan order, with caching.

    Every campaign run goes through one.  An attempt executes when the
    consumer pulls it, so a campaign that stops at its quota executes
    nothing past it.  Every executor keys plan runs and replays repeats
    from its run cache's memory layer, so each distinct (program, plan,
    config) triple executes once per executor.  A baseline attempt is
    keyed by (tool, plan) alone: the executor records each distinct
    plan once and derives every attempt's record from that recording
    and the attempt's run seed, when the campaign consumes the attempt.
    With ``cache=True``, ``cache_dir`` adds the on-disk layer (``None``
    keeps the cache memory-only; pass :data:`DEFAULT_CACHE_DIR` — the
    CLI default — for cross-invocation reuse).

    One executor can be shared across every tool and experiment driver
    of an invocation — that sharing is what lets one driver's runs
    serve another's cache lookups.
    """

    def __init__(self, cache=False, cache_dir=None):
        #: ``cache=True``: the run cache has its disk layer when
        #: ``cache_dir`` is given, and the CLI prints the statistics.
        self.cache_all = bool(cache)
        directory = None
        if cache and cache_dir is not None:
            directory = os.fspath(cache_dir)
        self.cache = RunCache(directory=directory)
        self.stats = ExecutorStats()

    # -- public API -----------------------------------------------------

    def run_one(self, program, plan, config=None):
        """Execute (or replay) a single plan; returns a RunResult."""
        for _plan, result in self.iter_runs(program, (plan,), config):
            return result

    def iter_runs(self, program, plans, config=None):
        """Yield ``(plan, RunResult)`` for *plans*, strictly in order,
        each attempt resolved when the consumer pulls it."""
        config = config if config is not None else MachineConfig()
        program_fp = fingerprint_program(program)
        obs = get_obs()
        for plan in plans:
            value, duration, cached = self._attempt(
                obs, _run_key(program_fp, plan, config), config.backend,
                execute_plan, program, plan, config)
            yield plan, RunResult(status=value.status,
                                  hwop_counts=value.hwop_counts,
                                  hwop_broadcast=value.hwop_broadcast,
                                  duration=duration, cached=cached)

    def iter_baseline_runs(self, tool, plan_seeds):
        """Yield ``(run_seed, record)`` for a baseline tool.

        *plan_seeds* is an iterable of ``(plan, run_seed)`` pairs, in
        campaign order.  Each distinct plan is recorded once by the
        tool's ``_record``, which never writes to the tool, and each
        record is ``tool.derive(recording, run_seed)``, for the caller
        to fold into the tool.
        """
        tool_fp = fingerprint_tool(tool)
        backend = tool.machine_config.backend
        obs = get_obs()
        for plan, run_seed in plan_seeds:
            recording, _duration, _cached = self._attempt(
                obs, _baseline_key(tool_fp, plan), backend, tool._record,
                plan)
            yield run_seed, tool.derive(recording, run_seed)

    def stats_rows(self):
        """Rows describing this executor's activity so far."""
        self._sync_cache_stats()
        return self.stats.snapshot_rows()

    # -- one attempt ----------------------------------------------------

    def _attempt(self, obs, key, backend, fn, *args):
        """``(value, duration, cached)`` of one attempt: *key*'s cache
        entry replayed, or ``fn(*args)`` executed here and stored.

        A task whose key is ``None`` (uncacheable) always executes and
        is never stored.  Hits and misses are counted here, as the
        consumer takes the attempt.
        """
        # Liveness signal for the campaign supervisor: a stream that
        # keeps resolving attempts is not stalled (see
        # repro.runtime.checkpoint).
        checkpoint.get_supervisor().beat("executor")
        stats = self.stats
        if key is not None:
            disk_hits = self.cache.hits_disk
            entry = self.cache.get(key)
            if not RunCache.is_miss(entry):
                if self.cache.hits_disk > disk_hits:
                    stats.cache_hits_disk += 1
                else:
                    stats.cache_hits_memory += 1
                duration = entry["duration"]
                stats.saved_seconds += duration
                # The cache stores no span buffer; synthesize the run
                # span so the trace keeps one per consumed run either
                # way.
                obs.tracer.record_complete(
                    "interp.run", duration,
                    {"cached": True, "backend": backend})
                return entry["value"], duration, True
        started = time.perf_counter()
        # Calls execute under the current obs, so their spans and
        # metrics land in the campaign's buffers directly.
        value = fn(*args)
        duration = time.perf_counter() - started
        stats.inline_runs += 1
        stats.busy_seconds += duration
        if key is not None:
            stats.cache_misses += 1
            self.cache.put(key, {"value": value, "duration": duration})
            self._sync_cache_stats()
        return value, duration, False

    def _sync_cache_stats(self):
        """Copy the cache's store and drop counts; the executor counts
        hits and misses itself, per consumed attempt."""
        self.stats.cache_stores = self.cache.stores
        self.stats.cache_corrupt_dropped = self.cache.corrupt_dropped


__all__ = [
    "CampaignExecutor",
    "CACHE_FORMAT_VERSION",
    "DEFAULT_CACHE_DIR",
    "ExecutorStats",
    "RunCache",
    "RunResult",
    "fingerprint_config",
    "fingerprint_plan",
    "fingerprint_program",
    "fingerprint_tool",
    "fingerprint_workload",
]
