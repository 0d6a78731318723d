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
  plan order*, so consumers replay exactly the decision sequence the
  sequential code path takes.  Determinism contract: **the same plan
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
import io
import os
import pickle
import sys
import tempfile
import time
import traceback as traceback_module
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

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


def _run_key(program, plan, config):
    plan_fp = fingerprint_plan(plan)
    if plan_fp is None:
        return None
    return hashlib.sha256("|".join((
        "run", str(CACHE_FORMAT_VERSION), fingerprint_program(program),
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

#: Per-worker memo: program fingerprint -> unpickled Program.  Pool
#: workers serve many attempts against few programs; unpickling a
#: ~100 KB program once per worker instead of once per task matters.
_WORKER_PROGRAMS = {}

#: Per-worker memo: tool fingerprint -> reconstructed baseline tool
#: (reconstruction compiles the workload, so it is amortized likewise).
_WORKER_TOOLS = {}


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


def _worker_run_plans(program_fp, program_blob, config_blob, collect_obs,
                      plan_blobs):
    """Execute a batch of plans against one program on a pool worker.

    Batching amortizes the dominant dispatch costs — shipping the
    ~100 KB program blob and paying one future round-trip — over many
    short runs; per-run results keep their own durations (and, when
    *collect_obs* is set, their own span/metric payloads).
    """
    resilience.worker_entry_faults()
    program = _WORKER_PROGRAMS.get(program_fp)
    if program is None:
        program = pickle.loads(program_blob)
        _WORKER_PROGRAMS[program_fp] = program
    config = pickle.loads(config_blob)
    results = []
    for plan_blob in plan_blobs:
        plan = pickle.loads(plan_blob)
        results.append(_collected(
            lambda: execute_plan(program, plan, config), collect_obs
        ))
    return os.getpid(), results


def _baseline_execute(tool, plan, run_seed):
    """Run one baseline attempt on *tool*; return value with deltas.

    Counter and predicate contributions are measured as before/after
    deltas so speculative attempts executed on a long-lived worker tool
    never leak into results of other attempts.  The predicate registry
    (metadata written via ``setdefault``, never read during runs) is
    rolled back afterwards, so every run reports the *full* predicate
    set it observed regardless of what ran on this tool before — the
    consumer's in-order ``setdefault`` merge then reproduces the
    sequential registry exactly, contents and insertion order both.
    """
    events0 = tool.events_observed
    samples0 = tool.samples_taken
    retired0 = tool.retired_total
    predicates = getattr(tool, "_predicates", None)
    known = frozenset(predicates) if predicates is not None else None
    failed, observation = tool._run_once(plan, run_seed)
    new_predicates = {}
    if predicates is not None:
        new_predicates = {key: value for key, value in predicates.items()
                          if key not in known}
        for key in new_predicates:
            del predicates[key]
    return {
        "failed": failed,
        "observation": observation,
        "events": tool.events_observed - events0,
        "samples": tool.samples_taken - samples0,
        "retired": tool.retired_total - retired0,
        "predicates": new_predicates,
    }


def _worker_run_baselines(tool_fp, tool_blob, collect_obs, calls):
    """Execute a batch of ``(plan_blob, run_seed)`` baseline attempts.

    Safe to batch because :func:`_baseline_execute` reports before/after
    deltas and rolls the predicate registry back after each attempt —
    every attempt's contribution is independent of its batch-mates.
    """
    resilience.worker_entry_faults()
    tool = _WORKER_TOOLS.get(tool_fp)
    if tool is None:
        tool_class, workload, kwargs = pickle.loads(tool_blob)
        tool = tool_class(workload, **kwargs)
        _WORKER_TOOLS[tool_fp] = tool
    results = []
    for plan_blob, run_seed in calls:
        plan = pickle.loads(plan_blob)
        results.append(_collected(
            lambda: _baseline_execute(tool, plan, run_seed), collect_obs
        ))
    return os.getpid(), results


# ----------------------------------------------------------------------
# Executor statistics
# ----------------------------------------------------------------------

@dataclass
class ExecutorStats:
    """Observable record of what one executor did.

    ``busy_seconds`` sums the execution time of fresh runs;
    ``saved_seconds`` sums the recorded execution time of cache
    replays; their sum estimates what a cold sequential pass would
    have cost.
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
    worker_pids: set = field(default_factory=set)
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
    """One schedulable unit inside the ordered pipeline.

    Pool-eligible tasks describe themselves in batchable form: tasks
    sharing a ``batch_group`` are submitted together as one pool call
    ``batch_fn(*batch_header, [batch_item, ...])``, so the (large)
    shared header is shipped once per batch, not once per run.
    """

    tag: object                    # opaque, handed back to the consumer
    key: str = None                # cache key (None = uncacheable)
    batch_fn: object = None        # pool entry point (None = inline only)
    batch_group: object = None     # hashable; equal => may share a batch
    batch_header: tuple = None     # shared leading args (blobs)
    batch_item: object = None      # this task's per-run argument
    inline_call: object = None     # () -> value, runs in-process
    wrap: object = None            # value, duration, pid, cached -> result
    backend: str = None            # VM execution backend of the run


class _Batch:
    """A group of batchable tasks submitted as one pool call.

    ``result`` memoizes the resolved ``(pid, results)`` payload so the
    retry logic in :meth:`CampaignExecutor._batch_result` runs at most
    once per batch, however many tasks consume it.
    """

    __slots__ = ("fn", "group", "header", "items", "future", "result",
                 "pool")

    def __init__(self, fn, group, header):
        self.fn = fn
        self.group = group
        self.header = header
        self.items = []
        self.future = None
        self.result = None
        self.pool = None               # the pool the future belongs to


class CampaignExecutor:
    """Runs campaign attempts in parallel, in plan order, with caching.

    ``jobs`` is the worker-process count (1 = in-process execution, the
    cache still applies).  ``cache`` enables the run cache; ``cache_dir``
    selects the on-disk layer (``None`` with ``cache=True`` keeps a
    memory-only cache; pass :data:`DEFAULT_CACHE_DIR` — the CLI default
    — for cross-invocation reuse).

    The executor is a context manager; :meth:`shutdown` releases the
    worker pool.  One executor can be shared across every tool and
    experiment driver of an invocation — that sharing is what lets one
    driver's runs serve another's cache lookups.

    ``speculation`` and ``batch`` bound the dispatch-ahead window:
    runs ship to workers in batches of up to ``batch`` (one program
    blob per batch, not per run), and at most
    ``jobs * speculation * batch`` attempts are in flight past the
    consumer.  The batch size ramps up from 1 as a campaign proves
    long, so short campaigns barely speculate.  Wall-clock gains from
    ``jobs`` require real CPU cores; the cache helps regardless.
    """

    def __init__(self, jobs=1, cache=True, cache_dir=None,
                 memory_capacity=4096, speculation=2, batch=16,
                 resilience_policy=None):
        self.jobs = max(1, int(jobs))
        self.cache = None
        if cache:
            directory = None
            if cache_dir is not None:
                directory = os.fspath(cache_dir)
            self.cache = RunCache(directory=directory,
                                  memory_capacity=memory_capacity)
        self.speculation = max(1, int(speculation))
        self.batch = max(1, int(batch))
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
            checkpoint.get_supervisor().note("pool-restart")
        if (self.stats.resilience.pool_restarts
                > self.resilience.max_pool_restarts
                and not self._degraded):
            self._degraded = True
            self.stats.resilience.degraded_serial = True
            checkpoint.get_supervisor().note("degraded-serial")
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
                            batch.fn, *batch.header, batch.items)
                        batch.pool = pool
                        rstats.retries += 1
                    except Exception:
                        batch.future = None
        # Out of retries (or no usable pool): run the batch here.
        rstats.inline_fallbacks += 1
        checkpoint.get_supervisor().note("inline-fallback")
        batch.result = batch.fn(*batch.header, batch.items)
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
        campaign order.  The passed *tool* is never mutated: fresh runs
        execute on per-worker (or executor-local) reconstructions and
        return counter/predicate deltas for the caller to apply.
        """
        tasks = (self._baseline_task(tool, plan, run_seed)
                 for plan, run_seed in plan_seeds)
        return self._pipeline(tasks)

    def stats_rows(self):
        """Rows describing this executor's activity so far."""
        self._sync_cache_stats()
        return self.stats.snapshot_rows()

    # -- task construction ---------------------------------------------

    @staticmethod
    def _pickle_blob(obj, memo_holder=None, attr=None):
        """Pickle *obj*, memoizing the blob on *memo_holder* when given."""
        if memo_holder is not None:
            blob = memo_holder.__dict__.get(attr)
            if blob is not None:
                return blob
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        if memo_holder is not None:
            memo_holder.__dict__[attr] = blob
        return blob

    def _note_unpicklable(self, stage, exc, note):
        """Record a pickling failure, keeping its traceback observable.

        The task still executes in-process and its outcome stands; the
        error/traceback ride along on the run result and in
        ``ResilienceStats.task_errors`` instead of being discarded.
        """
        self.stats.unpicklable_tasks += 1
        note["error"] = "%s: %s" % (type(exc).__name__, exc)
        note["traceback"] = traceback_module.format_exc()
        self.stats.resilience.note_task_error(
            stage, note["error"], note["traceback"])

    def _run_task(self, program, plan, config):
        key = None
        if self.cache is not None:
            key = _run_key(program, plan, config)
        collect_obs = get_obs().enabled
        batch_fn = batch_group = batch_header = batch_item = None
        note = {"error": None, "traceback": None}
        if self.jobs > 1:
            try:
                program_fp = fingerprint_program(program)
                program_blob = self._pickle_blob(
                    program, memo_holder=program, attr="_pickle_blob"
                )
                config_blob = self._pickle_blob(
                    config, memo_holder=config, attr="_pickle_blob"
                )
                batch_item = pickle.dumps(
                    plan, protocol=pickle.HIGHEST_PROTOCOL
                )
                batch_fn = _worker_run_plans
                batch_group = ("plan", program_fp, config_blob,
                               collect_obs)
                batch_header = (program_fp, program_blob, config_blob,
                                collect_obs)
            except Exception as exc:
                self._note_unpicklable("pickle:run", exc, note)
                batch_fn = None

        def inline_call():
            return execute_plan(program, plan, config)

        def wrap(value, duration, pid, cached):
            return plan, RunResult(
                status=value.status,
                hwop_counts=value.hwop_counts,
                hwop_broadcast=value.hwop_broadcast,
                duration=duration, worker_pid=pid, cached=cached,
                error=note["error"], traceback=note["traceback"],
            )

        return _Task(tag=plan, key=key, batch_fn=batch_fn,
                     batch_group=batch_group, batch_header=batch_header,
                     batch_item=batch_item, inline_call=inline_call,
                     wrap=wrap, backend=config.backend)

    def _baseline_fingerprint(self, tool):
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

    def _local_baseline_tool(self, tool):
        """An executor-owned clone of *tool* for in-process execution.

        Never the passed instance: all effects must flow through deltas
        so pooled, cached, and in-process attempts are interchangeable.
        """
        tools = self.__dict__.setdefault("_local_tools", {})
        fingerprint = self._baseline_fingerprint(tool)
        clone = tools.get(fingerprint)
        if clone is None:
            tool_class, workload, kwargs = tool._clone_spec()
            clone = tool_class(workload, **kwargs)
            tools[fingerprint] = clone
        return clone

    def _baseline_task(self, tool, plan, run_seed):
        tool_fp = self._baseline_fingerprint(tool)
        key = None
        if self.cache is not None:
            key = _baseline_key(tool_fp, plan, run_seed)
        collect_obs = get_obs().enabled
        batch_fn = batch_group = batch_header = batch_item = None
        note = {"error": None, "traceback": None}
        if self.jobs > 1:
            try:
                tool_blob = self._pickle_blob(
                    tool._clone_spec(), memo_holder=tool,
                    attr="_clone_blob",
                )
                plan_blob = pickle.dumps(
                    plan, protocol=pickle.HIGHEST_PROTOCOL
                )
                batch_fn = _worker_run_baselines
                batch_group = ("baseline", tool_fp, collect_obs)
                batch_header = (tool_fp, tool_blob, collect_obs)
                batch_item = (plan_blob, run_seed)
            except Exception as exc:
                self._note_unpicklable("pickle:baseline", exc, note)
                batch_fn = None

        def inline_call():
            return _baseline_execute(
                self._local_baseline_tool(tool), plan, run_seed
            )

        def wrap(value, duration, pid, cached):
            return run_seed, BaselineRunResult(
                failed=value["failed"],
                observation=value["observation"],
                events_observed=value["events"],
                samples_taken=value["samples"],
                retired=value["retired"],
                new_predicates=value["predicates"],
                duration=duration, worker_pid=pid, cached=cached,
                error=note["error"], traceback=note["traceback"],
            )

        return _Task(tag=run_seed, key=key, batch_fn=batch_fn,
                     batch_group=batch_group, batch_header=batch_header,
                     batch_item=batch_item, inline_call=inline_call,
                     wrap=wrap, backend=tool.machine_config.backend)

    # -- the ordered pipeline -------------------------------------------

    def _pipeline(self, tasks):
        """Yield each task's wrapped result, strictly in task order.

        When a pool is available, dispatches ahead of the consumer in a
        bounded window of ``jobs * speculation * batch_size`` tasks,
        grouping same-campaign tasks into pool batches (one submission
        carries one shared header plus up to ``batch_size`` per-run
        payloads).  ``batch_size`` ramps 1 → ``self.batch`` as the
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
                window = (self.jobs * self.speculation * batch_size
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
                if (pool is not None and batch_size < self.batch
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
        if pool is not None and task.batch_fn is not None:
            if open_batch is not None and (
                    open_batch.group != task.batch_group
                    or len(open_batch.items) >= batch_size):
                self._submit_batch(open_batch)
                open_batch = None
            if open_batch is None:
                open_batch = _Batch(task.batch_fn, task.batch_group,
                                    task.batch_header)
            index = len(open_batch.items)
            open_batch.items.append(task.batch_item)
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
            batch.future = pool.submit(batch.fn, *batch.header,
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
            return task.wrap(payload["value"], duration, None, True)
        if kind == "batch":
            pid, results = self._batch_result(payload)
            duration, value, obs_payload = results[index]
            self.stats.pool_runs += 1
            self.stats.worker_pids.add(pid)
            obs.merge_payload(obs_payload)
        else:
            started = time.perf_counter()
            # Inline calls execute under the current obs, so their spans
            # and metrics land in the campaign's buffers directly.
            value = task.inline_call()
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
        return task.wrap(value, duration, pid, False)

    def _sync_cache_stats(self):
        if self.cache is None:
            return
        self.stats.cache_hits_memory = self.cache.hits_memory
        self.stats.cache_hits_disk = self.cache.hits_disk
        self.stats.cache_misses = self.cache.misses
        self.stats.cache_stores = self.cache.stores
        self.stats.cache_corrupt_dropped = self.cache.corrupt_dropped


def build_executor(jobs=1, cache=False, cache_dir=DEFAULT_CACHE_DIR):
    """CLI-facing factory: an executor, or ``None`` for the legacy path.

    Returns ``None`` when neither parallelism nor caching is requested,
    so callers keep the zero-overhead sequential code path by default.
    """
    if jobs <= 1 and not cache:
        return None
    return CampaignExecutor(
        jobs=jobs, cache=cache,
        cache_dir=cache_dir if cache else None,
    )


__all__ = [
    "BaselineRunResult",
    "CampaignExecutor",
    "CACHE_FORMAT_VERSION",
    "DEFAULT_CACHE_DIR",
    "ExecutorStats",
    "RunCache",
    "RunResult",
    "build_executor",
    "fingerprint_config",
    "fingerprint_plan",
    "fingerprint_program",
    "fingerprint_workload",
]
