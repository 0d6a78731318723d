"""Parallel campaign execution with a content-addressed run cache.

The diagnosis tools and the paper's evaluation drivers all reduce to
*run campaigns*: execute the same program over a deterministic stream of
run plans until some outcome quota is met (10+10 runs for LBRA/LCRA,
1000+1000 for the CBI-style baselines).  Every run is independent — a
fresh machine, a fresh scheduler seeded by the plan index — which makes
campaigns embarrassingly parallel and their results content-addressable.
This module exploits both:

* :class:`CampaignExecutor` fans run attempts out across a
  ``concurrent.futures.ProcessPoolExecutor`` while *yielding results in
  plan order*, so consumers replay exactly the decision sequence of a
  one-run-at-a-time pass.  Determinism contract: **the same plan
  stream produces the same outcomes regardless of worker count** — a
  campaign driven through ``jobs=8`` is bit-identical to ``jobs=1``,
  because each attempt's result depends only on its (program, plan,
  config) triple, never on which worker ran it or in which order
  attempts finished.  Parallelism only *speculates ahead* in the plan
  stream; speculative attempts past a campaign's stopping point are
  discarded (their results still warm the cache).
* :class:`RunCache` memoizes finished runs under a content-addressed
  key — ``sha256(program fingerprint | plan fingerprint | machine
  config fingerprint | format version)``, where the program fingerprint
  covers the linked machine text (instructions, string table, global
  layout and initializers, entry point) and the plan fingerprint covers
  the arguments, step budget, globals setup, and scheduler identity.
  A bounded in-memory LRU layer serves repeats within a process; an
  optional on-disk layer under ``.repro-cache/`` serves repeats across
  invocations (a warm second ``python -m repro experiment table6``
  replays runs instead of re-executing them).  Corrupt disk entries are
  discarded, never trusted.

Plans whose scheduler factory cannot be fingerprinted (an arbitrary
closure) bypass the cache, and tasks that cannot be pickled fall back
to in-process execution — behaviour, not performance, is preserved in
every degraded mode.

Failure handling (see :mod:`repro.runtime.resilience`): every pool
dispatch runs under a per-task timeout and a bounded retry/backoff
loop; a crashed or hung worker pool is replaced, and after the policy's
restart budget is spent the executor *degrades to serial execution*
rather than failing the campaign.  Because runs are deterministic,
retried and inline-fallback attempts produce byte-identical results —
resilience changes wall-clock time and :class:`ResilienceStats`, never
outcomes.  The disk cache layer validates entries on read, evicts
anything corrupt, and publishes under an advisory file lock so
concurrent invocations sharing ``.repro-cache/`` interleave safely.
"""

import hashlib
import os
import pickle
import sys
import tempfile
import time
import traceback as traceback_module
from collections import Counter, OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

from repro.machine.cpu import MachineConfig
from repro.obs import Observability, get_obs, use
from repro.runtime import checkpoint, resilience
from repro.runtime.process import execute_plan
from repro.runtime.resilience import (
    FileLock,
    ResiliencePolicy,
    ResilienceStats,
    fault_point,
)

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


def _baseline_key(tool_fp, plan, run_seed):
    plan_fp = fingerprint_plan(plan)
    if plan_fp is None:
        return None
    return hashlib.sha256("|".join((
        "baseline", str(CACHE_FORMAT_VERSION), tool_fp, plan_fp,
        str(run_seed),
    )).encode()).hexdigest()


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

@dataclass
class RunResult:
    """One run's outcome as produced by the executor.

    ``cached`` marks cache replays; ``worker_pid`` is the pool worker
    that executed a fresh run (``None`` for in-process execution).
    ``duration`` is the run's own execution time, preserved across cache
    replays so the stats report can estimate the sequential cost.
    ``error``/``traceback`` describe a non-fatal degradation the run
    survived (a task that could not be pickled for pool dispatch) —
    the run itself still executed and its outcome is authoritative.
    """

    status: object                 # ExitStatus
    hwop_counts: dict = field(default_factory=dict)
    hwop_broadcast: int = 0
    duration: float = 0.0
    worker_pid: int = None
    cached: bool = False
    error: str = None
    traceback: str = None


@dataclass
class BaselineRunResult:
    """One baseline-instrumented run: outcome plus counter deltas.

    The CBI-family tools accumulate instrumentation-cost counters and
    discover predicate sites during runs; parallel execution returns
    those as per-run *deltas* so the consuming tool can apply exactly
    the contributions of the runs its campaign actually consumed.
    """

    failed: bool = False
    observation: object = None     # RunObservation
    events_observed: int = 0
    samples_taken: int = 0
    retired: int = 0
    new_predicates: dict = field(default_factory=dict)
    duration: float = 0.0
    worker_pid: int = None
    cached: bool = False
    error: str = None
    traceback: str = None

    @classmethod
    def of(cls, value, **run):
        """The result of one :func:`_baseline_execute` *value*."""
        return cls(failed=value["failed"],
                   observation=value["observation"],
                   events_observed=value["events"],
                   samples_taken=value["samples"],
                   retired=value["retired"],
                   new_predicates=value["predicates"], **run)


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
        self.hits_memory = 0
        self.hits_disk = 0
        self.misses = 0
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
            self.hits_memory += 1
            return entry
        entry = self._disk_get(key)
        if entry is not _MISS:
            self.hits_disk += 1
            self._memory_put(key, entry)
            return entry
        self.misses += 1
        return _MISS

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
# Worker-side execution (module level, importable by pool workers)
# ----------------------------------------------------------------------

#: Per-worker memo: subject fingerprint -> unpickled subject (a Program,
#: or a baseline tool rebuilt from its clone spec).  Pool workers serve
#: many attempts against few subjects; unpickling a ~100 KB program, or
#: compiling a tool's workload, once per worker instead of once per task
#: matters.
_WORKER_SUBJECTS = {}


def _collected(callable_, collect_obs):
    """Run *callable_*, returning ``(duration, value, obs payload)``.

    When *collect_obs* is true the call executes under a fresh
    collecting :class:`~repro.obs.Observability`, whose span/metric
    buffers ship back with the result for the parent to merge; when
    false the payload slot is ``None`` and the call pays nothing.
    """
    started = time.perf_counter()
    if not collect_obs:
        value = callable_()
        return time.perf_counter() - started, value, None
    with use(Observability()) as obs:
        value = callable_()
    return time.perf_counter() - started, value, obs.to_payload()


def _worker_run(fn, subject_fp, subject_blob, collect_obs, arg_blobs):
    """Run ``fn(subject, *args)`` for each pickled *args* on a pool worker.

    Batching amortizes the dominant dispatch costs — shipping the
    subject blob and paying one future round-trip — over many short
    runs; per-run results keep their own durations (and, when
    *collect_obs* is set, their own span/metric payloads).  Safe to
    batch because each ``fn`` leaves its subject as it found it, so an
    attempt's result is independent of its batch-mates.
    """
    resilience.worker_entry_faults()
    subject = _WORKER_SUBJECTS.get(subject_fp)
    if subject is None:
        subject = _WORKER_SUBJECTS[subject_fp] = pickle.loads(subject_blob)
    results = []
    for blob in arg_blobs:
        args = pickle.loads(blob)
        results.append(_collected(lambda: fn(subject, *args), collect_obs))
    return os.getpid(), results


def _baseline_execute(tool, plan, run_seed):
    """Run one baseline attempt on *tool*; return value with deltas.

    The tool is left exactly as it was found.  Counter contributions
    are measured as before/after deltas and the counters restored;
    the run registers its predicates into an empty registry swapped in
    for its duration.  So every run reports the *full* predicate set it
    observed, whatever ran on this tool before, and a result replayed
    from the cache or the journal into another tool applies the same
    way — the consumer's in-order ``setdefault`` merge reproduces the
    sequential registry exactly, contents and insertion order both.
    """
    events0 = tool.events_observed
    samples0 = tool.samples_taken
    retired0 = tool.retired_total
    registry = getattr(tool, "_predicates", None)
    observed = {}
    if registry is not None:
        tool._predicates = observed
    try:
        failed, observation = tool._run_once(plan, run_seed)
        return {
            "failed": failed,
            "observation": observation,
            "events": tool.events_observed - events0,
            "samples": tool.samples_taken - samples0,
            "retired": tool.retired_total - retired0,
            "predicates": observed,
        }
    finally:
        tool.events_observed = events0
        tool.samples_taken = samples0
        tool.retired_total = retired0
        if registry is not None:
            tool._predicates = registry


# ----------------------------------------------------------------------
# Executor statistics
# ----------------------------------------------------------------------

@dataclass
class ExecutorStats:
    """Observable record of what one executor did.

    ``busy_seconds`` sums the execution time of fresh runs;
    ``saved_seconds`` sums the recorded execution time of cache
    replays; their sum estimates what a cold sequential pass would
    have cost.  ``worker_pids`` counts pool runs per worker process.
    """

    jobs: int = 1
    pool_runs: int = 0
    inline_runs: int = 0
    cache_hits_memory: int = 0
    cache_hits_disk: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    cache_corrupt_dropped: int = 0
    unpicklable_tasks: int = 0
    speculation_discarded: int = 0
    worker_pids: Counter = field(default_factory=Counter)
    busy_seconds: float = 0.0
    saved_seconds: float = 0.0
    started_at: float = field(default_factory=time.perf_counter)
    resilience: ResilienceStats = field(default_factory=ResilienceStats)

    @property
    def attempts(self):
        """Total runs produced (fresh executions plus cache replays)."""
        return (self.pool_runs + self.inline_runs
                + self.cache_hits_memory + self.cache_hits_disk)

    @property
    def cache_hits(self):
        return self.cache_hits_memory + self.cache_hits_disk

    @property
    def workers_used(self):
        """Distinct pool workers that executed at least one run."""
        return len(self.worker_pids)

    @property
    def wall_seconds(self):
        return time.perf_counter() - self.started_at

    @property
    def sequential_estimate(self):
        return self.busy_seconds + self.saved_seconds

    def mark(self):
        """These stats as they stand now, for :meth:`to_dict`'s *since*."""
        return replace(self, worker_pids=Counter(self.worker_pids))

    def to_dict(self, since=None):
        """The venue record: where runs executed — only the runs made
        after the :meth:`mark` *since*, when given (a ledger entry's
        ``executor`` bucket, ``DiagnosisReport.campaign["executor"]``).
        Its ``resilience`` part always describes the whole executor."""
        base = since or ExecutorStats()
        record = {
            "jobs": self.jobs,
            "attempts": self.attempts - base.attempts,
            "pool_runs": self.pool_runs - base.pool_runs,
            "inline_runs": self.inline_runs - base.inline_runs,
            "cache_hits": self.cache_hits - base.cache_hits,
            "cache_misses": self.cache_misses - base.cache_misses,
            "workers_used": len(self.worker_pids - base.worker_pids),
        }
        if self.resilience.activity:
            record["resilience"] = self.resilience.to_dict()
        return record

    def snapshot_rows(self):
        """Rows for the stats table (see ``experiments.report``)."""
        wall = self.wall_seconds
        estimate = self.sequential_estimate
        speedup = estimate / wall if wall > 0 else 0.0
        return [
            ("worker processes", self.jobs),
            ("workers utilized", self.workers_used),
            ("attempts produced", self.attempts),
            ("runs executed (pool)", self.pool_runs),
            ("runs executed (in-process)", self.inline_runs),
            ("cache hits (memory)", self.cache_hits_memory),
            ("cache hits (disk)", self.cache_hits_disk),
            ("cache misses", self.cache_misses),
            ("cache stores", self.cache_stores),
            ("corrupt cache entries dropped", self.cache_corrupt_dropped),
            ("unpicklable tasks run in-process", self.unpicklable_tasks),
            ("speculative dispatches discarded", self.speculation_discarded),
            ("busy seconds (fresh runs)", "%.2f" % self.busy_seconds),
            ("seconds saved by cache", "%.2f" % self.saved_seconds),
            ("sequential estimate (s)", "%.2f" % estimate),
            ("wall clock (s)", "%.2f" % wall),
            ("estimated speedup", "%.2fx" % speedup),
        ] + self._resilience_rows()

    def _resilience_rows(self):
        """Failure-handling rows, shown only when something happened."""
        r = self.resilience
        if not r.activity:
            return []
        rows = [
            ("task retries", r.retries),
            ("task timeouts", r.timeouts),
            ("worker pools broken", r.broken_pools),
            ("worker pool restarts", r.pool_restarts),
            ("batches run inline after pool failure",
             r.inline_fallbacks),
            ("degraded to serial execution",
             "yes" if r.degraded_serial else "no"),
            ("task errors recorded", len(r.task_errors)),
        ]
        if r.task_errors:
            rows.append(("last task error", r.task_errors[-1]["error"]))
        return rows


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------

@dataclass
class _Task:
    """One schedulable unit inside the ordered pipeline:
    ``fn(subject, *args)``, where the subject is a program or a baseline
    tool.

    A pool-eligible task carries a batch ``header`` — ``(fn,
    subject_fp, subject_blob, collect_obs)`` — and its pickled args as
    ``item``; tasks with equal headers are submitted together as one
    pool call ``_worker_run(*header, [item, ...])``, so the (large)
    subject blob ships once per batch, not once per run.
    """

    fn: object                     # fn(subject, *args) -> value
    subject: object
    args: tuple
    result: object                 # (value, **run) -> the consumer's item
    backend: str                   # VM execution backend of the run
    key: str = None                # cache key (None = uncacheable)
    header: tuple = None           # pool batch header (None = inline only)
    item: bytes = None             # pickled args, one pool batch entry
    error: str = None              # why the task could not be pickled
    traceback: str = None

    def done(self, value, duration, pid, cached):
        return self.result(value, duration=duration, worker_pid=pid,
                           cached=cached, error=self.error,
                           traceback=self.traceback)


class _Batch:
    """A group of batchable tasks submitted as one pool call.

    ``result`` memoizes the resolved ``(pid, results)`` payload so the
    retry logic in :meth:`CampaignExecutor._batch_result` runs at most
    once per batch, however many tasks consume it.
    """

    __slots__ = ("header", "items", "future", "result", "pool")

    def __init__(self, header):
        self.header = header
        self.items = []
        self.future = None
        self.result = None
        self.pool = None               # the pool the future belongs to


#: Dispatch-ahead window: runs ship to workers in batches of up to
#: ``BATCH`` (one subject blob per batch, not per run), and at most
#: ``jobs * SPECULATION * BATCH`` attempts are in flight past the
#: consumer.
SPECULATION = 2
BATCH = 16


class CampaignExecutor:
    """Runs campaign attempts in parallel, in plan order, with caching.

    Every campaign run goes through one.  ``jobs`` is the worker-process
    count (1 = in-process execution).  ``cache`` enables the run cache;
    ``cache_dir`` selects the on-disk layer (``None`` with ``cache=True``
    keeps a memory-only cache; pass :data:`DEFAULT_CACHE_DIR` — the CLI
    default — for cross-invocation reuse).  So ``CampaignExecutor()``
    runs each attempt in process, when it is pulled, and caches nothing.

    The executor is a context manager; :meth:`shutdown` releases the
    worker pool.  One executor can be shared across every tool and
    experiment driver of an invocation — that sharing is what lets one
    driver's runs serve another's cache lookups.

    :data:`SPECULATION` and :data:`BATCH` bound the dispatch-ahead
    window; the batch size ramps up from 1 as a campaign proves long,
    so short campaigns barely speculate.  Wall-clock gains from
    ``jobs`` require real CPU cores; the cache helps regardless.
    """

    def __init__(self, jobs=1, cache=False, cache_dir=None,
                 resilience_policy=None):
        self.jobs = max(1, int(jobs))
        self.cache = None
        if cache:
            directory = None
            if cache_dir is not None:
                directory = os.fspath(cache_dir)
            self.cache = RunCache(directory=directory)
        self.resilience = resilience_policy if resilience_policy \
            is not None else ResiliencePolicy.from_env()
        self.stats = ExecutorStats(jobs=self.jobs)
        self._pool = None
        self._degraded = False

    # -- lifecycle ------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.shutdown()
        return False

    def shutdown(self):
        """Release the worker pool (idempotent).

        Waits for in-flight speculative runs (at most one speculation
        window) — a non-waiting shutdown races workers still writing
        results back over the result pipe.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def _pool_handle(self):
        if self.jobs <= 1 or self._degraded:
            return None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=resilience.mark_worker_process,
            )
        return self._pool

    # -- failure handling ------------------------------------------------

    def _recycle_pool(self, kill=False, only_if=None):
        """Discard the current pool (terminating workers when *kill*).

        ``only_if`` guards against double recycling: when the failure
        came from a batch of an *older* pool that was already replaced,
        the current (healthy) pool is left alone.

        Counts against the policy's restart budget; once that budget is
        spent the executor degrades to serial execution — every
        subsequent task dispatches inline, and in-flight batches fall
        back the same way when they resolve.
        """
        if only_if is not None and self._pool is not only_if:
            return
        pool, self._pool = self._pool, None
        if pool is not None:
            if kill:
                # A hung worker never returns; shutdown(wait=True)
                # would block on it forever.  Terminating the worker
                # processes is best-effort and reaches into pool
                # internals, so it is wrapped defensively.
                try:
                    for process in getattr(pool, "_processes",
                                           {}).values():
                        process.terminate()
                except Exception:
                    pass
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            self.stats.resilience.pool_restarts += 1
        if (self.stats.resilience.pool_restarts
                > self.resilience.max_pool_restarts
                and not self._degraded):
            self._degraded = True
            self.stats.resilience.degraded_serial = True
            print(
                "repro: worker pool failed %d times; degrading to "
                "serial execution"
                % self.stats.resilience.pool_restarts,
                file=sys.stderr,
            )

    def _batch_result(self, batch):
        """The batch's ``(pid, results)``, surviving worker failures.

        Waits under the policy's per-task timeout (scaled by batch
        size), retries failed dispatches with exponential backoff on a
        (possibly replaced) pool, and finally executes the batch
        in-process — the entry functions are plain module functions, so
        the parent can run them directly.  Deterministic runs make
        every path produce identical results.
        """
        if batch.result is not None:
            return batch.result
        rstats = self.stats.resilience
        timeout = None
        if self.resilience.task_timeout:
            timeout = self.resilience.task_timeout \
                * max(1, len(batch.items))
        attempt = 0
        while batch.future is not None:
            try:
                batch.result = batch.future.result(timeout=timeout)
                return batch.result
            except FuturesTimeoutError as exc:
                rstats.timeouts += 1
                self._note_batch_error("timeout", exc)
                self._recycle_pool(kill=True, only_if=batch.pool)
            except BrokenProcessPool as exc:
                rstats.broken_pools += 1
                self._note_batch_error("worker-crash", exc)
                self._recycle_pool(kill=False, only_if=batch.pool)
            except Exception as exc:
                # The task itself raised on the worker; the pool is
                # healthy.  Retry in case the failure was transient
                # (an injected or environmental error).
                self._note_batch_error("task", exc)
            attempt += 1
            batch.future = None
            if attempt <= self.resilience.max_retries:
                time.sleep(self.resilience.backoff_seconds(attempt))
                pool = self._pool_handle()
                if pool is not None:
                    try:
                        batch.future = pool.submit(
                            _worker_run, *batch.header, batch.items)
                        batch.pool = pool
                        rstats.retries += 1
                    except Exception:
                        batch.future = None
        # Out of retries (or no usable pool): run the batch here.
        rstats.inline_fallbacks += 1
        batch.result = _worker_run(*batch.header, batch.items)
        return batch.result

    def _note_batch_error(self, stage, exc):
        self.stats.resilience.note_task_error(
            stage, "%s: %s" % (type(exc).__name__, exc),
            traceback_module.format_exc(),
        )

    # -- public API -----------------------------------------------------

    def run_one(self, program, plan, config=None):
        """Execute (or replay) a single plan; returns a RunResult."""
        for _plan, result in self.iter_runs(program, (plan,), config):
            return result

    def iter_runs(self, program, plans, config=None):
        """Yield ``(plan, RunResult)`` for *plans*, strictly in order.

        With ``jobs > 1`` the executor keeps a bounded window of
        attempts in flight; consumers that stop iterating early (quota
        reached) simply close the generator — speculative attempts
        beyond the stopping point are discarded.
        """
        config = config if config is not None else MachineConfig()
        tasks = (self._run_task(program, plan, config) for plan in plans)
        return self._pipeline(tasks)

    def iter_baseline_runs(self, tool, plan_seeds):
        """Yield ``(run_seed, BaselineRunResult)`` for a baseline tool.

        *plan_seeds* is an iterable of ``(plan, run_seed)`` pairs, in
        campaign order.  The passed *tool* is left as it was found:
        fresh runs execute on per-worker reconstructions, or in process
        on *tool* itself through :func:`_baseline_execute`, and return
        counter/predicate deltas for the caller to apply.
        """
        tasks = (self._baseline_task(tool, plan, run_seed)
                 for plan, run_seed in plan_seeds)
        return self._pipeline(tasks)

    def stats_rows(self):
        """Rows describing this executor's activity so far."""
        self._sync_cache_stats()
        return self.stats.snapshot_rows()

    # -- task construction ---------------------------------------------

    def _run_task(self, program, plan, config):
        key = None
        if self.cache is not None:
            key = _run_key(fingerprint_program(program), plan, config)

        def result(value, **run):
            return plan, RunResult(status=value.status,
                                   hwop_counts=value.hwop_counts,
                                   hwop_broadcast=value.hwop_broadcast,
                                   **run)

        return self._task("run", key, execute_plan, program,
                          fingerprint_program, (plan, config), result,
                          config.backend)

    def _baseline_task(self, tool, plan, run_seed):
        key = None
        if self.cache is not None:
            key = _baseline_key(fingerprint_tool(tool), plan, run_seed)
        return self._task(
            "baseline", key, _baseline_execute, tool, fingerprint_tool,
            (plan, run_seed),
            lambda value, **run: (run_seed,
                                  BaselineRunResult.of(value, **run)),
            tool.machine_config.backend)

    def _task(self, kind, key, fn, subject, fingerprint, args, result,
              backend):
        """A task running ``fn(subject, *args)``, pool-eligible when it
        pickles.

        Only with ``jobs > 1`` is the subject fingerprinted and pickled,
        for the batch header; its blob is memoized on it, so a campaign
        pickles its program (or tool, as its clone) once.  A task that cannot be
        pickled still executes in process and its outcome stands; the
        error and traceback ride along on its result and in
        ``ResilienceStats.task_errors`` under stage ``pickle:<kind>``.
        """
        task = _Task(fn, subject, args, result, backend, key)
        if self.jobs > 1:
            try:
                subject_fp = fingerprint(subject)
                blob = subject.__dict__.get("_pickle_blob")
                if blob is None:
                    blob = pickle.dumps(subject,
                                        protocol=pickle.HIGHEST_PROTOCOL)
                    subject.__dict__["_pickle_blob"] = blob
                task.item = pickle.dumps(args,
                                         protocol=pickle.HIGHEST_PROTOCOL)
                task.header = (fn, subject_fp, blob, get_obs().enabled)
            except Exception as exc:
                self.stats.unpicklable_tasks += 1
                task.error = "%s: %s" % (type(exc).__name__, exc)
                task.traceback = traceback_module.format_exc()
                self.stats.resilience.note_task_error(
                    "pickle:" + kind, task.error, task.traceback)
        return task

    # -- the ordered pipeline -------------------------------------------

    def _pipeline(self, tasks):
        """Yield each task's wrapped result, strictly in task order.

        When a pool is available, dispatches ahead of the consumer in a
        bounded window of ``jobs * speculation * batch_size`` tasks,
        grouping same-campaign tasks into pool batches (one submission
        carries one shared header plus up to ``batch_size`` per-run
        payloads).  ``batch_size`` ramps 1 → :data:`BATCH` as the
        consumer keeps pulling — short campaigns barely speculate, long
        campaigns amortize dispatch overhead across full batches.  With
        ``jobs=1`` the window is one and tasks execute lazily, so no
        speculative work happens at all.
        """
        obs = get_obs()
        pending = deque()
        tasks = iter(tasks)
        exhausted = False
        open_batch = None
        inflight = set()
        batch_size = 1
        consumed = 0
        try:
            while True:
                # Re-read the handle every round: a mid-campaign pool
                # restart (or degradation to serial) must steer new
                # dispatches, not just retries.
                pool = self._pool_handle()
                window = (self.jobs * SPECULATION * batch_size
                          if pool is not None else 1)
                while not exhausted and len(pending) < window:
                    task = next(tasks, _MISS)
                    if task is _MISS:
                        exhausted = True
                        break
                    entry, open_batch = self._dispatch(
                        task, pool, open_batch, batch_size, inflight
                    )
                    pending.append(entry)
                if open_batch is not None:
                    self._submit_batch(open_batch)
                    open_batch = None
                if not pending:
                    return
                yield self._resolve(pending.popleft(), inflight, obs)
                consumed += 1
                if (pool is not None and batch_size < BATCH
                        and consumed >= 2 * window):
                    batch_size *= 2
        finally:
            discarded = 0
            while pending:
                entry = pending.popleft()
                if entry[0] == "batch":
                    discarded += 1
                    if entry[2].future is not None:
                        entry[2].future.cancel()
            if discarded:
                self.stats.speculation_discarded += discarded

    def _dispatch(self, task, pool, open_batch, batch_size, inflight):
        """Route one task to cache / a pool batch / inline execution.

        A task whose key is already *in flight* (an identical earlier
        task was dispatched but not yet consumed — campaigns often
        repeat one plan) is not executed again: it resolves from the
        cache entry its predecessor stores on consumption, which always
        happens first because results resolve in dispatch order.
        """
        if task.key is not None:
            if task.key in inflight:
                return ("dup", task, None, None), open_batch
            entry = self.cache.get(task.key)
            if not RunCache.is_miss(entry):
                return ("hit", task, entry, None), open_batch
            inflight.add(task.key)
        if pool is not None and task.header is not None:
            if open_batch is not None and (
                    open_batch.header != task.header
                    or len(open_batch.items) >= batch_size):
                self._submit_batch(open_batch)
                open_batch = None
            if open_batch is None:
                open_batch = _Batch(task.header)
            index = len(open_batch.items)
            open_batch.items.append(task.item)
            return ("batch", task, open_batch, index), open_batch
        return ("inline", task, None, None), open_batch

    def _submit_batch(self, batch):
        """Ship *batch* to the pool; a failed submit resolves inline.

        Submission can fail when the pool broke since dispatch (worker
        crash) — the batch then carries no future and
        :meth:`_batch_result` executes it in-process when consumed.
        """
        pool = self._pool_handle()
        if pool is None:
            batch.future = None
            return
        try:
            batch.future = pool.submit(_worker_run, *batch.header,
                                       batch.items)
            batch.pool = pool
        except Exception as exc:
            batch.future = None
            self._note_batch_error("submit", exc)
            self._recycle_pool(kill=False, only_if=pool)

    def _resolve(self, entry, inflight=(), obs=None):
        if obs is None:
            obs = get_obs()
        # Liveness signal for the campaign supervisor: a stream that
        # keeps resolving attempts is not stalled (see
        # repro.runtime.checkpoint).
        checkpoint.get_supervisor().beat("executor")
        kind, task, payload, index = entry
        if kind == "dup":
            # The identical in-flight predecessor resolved (and stored)
            # before us — dispatch order is resolution order.  Fall back
            # to inline execution if the entry was evicted meanwhile.
            payload = self.cache.get(task.key)
            kind = "inline" if RunCache.is_miss(payload) else "hit"
        if kind == "hit":
            duration = payload["duration"]
            self.stats.saved_seconds += duration
            self._sync_cache_stats()
            # The cache stores no span buffer; synthesize the run span so
            # the trace keeps one per consumed run either way.
            obs.tracer.record_complete(
                "interp.run", duration,
                {"cached": True, "backend": task.backend})
            return task.done(payload["value"], duration, None, True)
        if kind == "batch":
            pid, results = self._batch_result(payload)
            duration, value, obs_payload = results[index]
            self.stats.pool_runs += 1
            self.stats.worker_pids[pid] += 1
            obs.merge_payload(obs_payload)
        else:
            started = time.perf_counter()
            # Inline calls execute under the current obs, so their spans
            # and metrics land in the campaign's buffers directly.
            value = task.fn(task.subject, *task.args)
            duration = time.perf_counter() - started
            pid = None
            self.stats.inline_runs += 1
        self.stats.busy_seconds += duration
        if task.key is not None:
            self.cache.put(task.key, {"value": value,
                                      "duration": duration})
            if isinstance(inflight, set):
                inflight.discard(task.key)
        self._sync_cache_stats()
        return task.done(value, duration, pid, False)

    def _sync_cache_stats(self):
        if self.cache is None:
            return
        self.stats.cache_hits_memory = self.cache.hits_memory
        self.stats.cache_hits_disk = self.cache.hits_disk
        self.stats.cache_misses = self.cache.misses
        self.stats.cache_stores = self.cache.stores
        self.stats.cache_corrupt_dropped = self.cache.corrupt_dropped


__all__ = [
    "BaselineRunResult",
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
