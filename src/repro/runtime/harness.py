"""Run campaigns: repeated executions with outcome classification.

The statistical tools need "N failure runs and M success runs" (the paper
uses 10+10 for LBRA/LCRA and 1000+1000 for CBI).  :func:`run_campaign`
drives a workload's run plans until the requested number of runs with the
right outcome have been observed, which mirrors production reality: a
failing input occasionally fails to manifest (concurrency bugs!) and is
then just another success run.

Determinism contract
--------------------

A campaign's plan stream is a pure function of the workload: the k-th
failing attempt always executes ``workload.failing_run_plan(k)``, and any
randomness lives inside the plan (schedulers seeded by k).  Each run's
outcome depends only on its (program, plan, config) triple.  Campaign
results are therefore **bit-identical no matter how runs are executed**:
sequentially in this process, fanned out across a worker pool, or
replayed from the run cache.  Passing a
:class:`~repro.runtime.executor.CampaignExecutor` via ``executor=``
changes wall-clock time, never results — parallel workers only
*speculate ahead* in the deterministic plan stream, and results are
consumed strictly in plan order so the stopping decisions replay the
sequential logic exactly.

Shortfall handling
------------------

A campaign can exhaust its attempt budget short of the requested outcome
counts (a "failing" input that stubbornly succeeds, or vice versa).
That used to be silent; ``on_shortfall`` now controls it: ``"warn"``
(default) emits a :class:`CampaignShortfallWarning`, ``"raise"`` raises
:class:`CampaignShortfallError`, ``"ignore"`` restores the old silence.
Both carry the structured counts so callers can react programmatically.
"""

import itertools
import warnings
from dataclasses import dataclass

from repro.machine.cpu import MachineConfig
from repro.obs import get_obs, use
from repro.obs.ledger import get_ledger
from repro.runtime import checkpoint as _checkpoint
from repro.runtime.executor import fingerprint_program
from repro.runtime.process import run_program


@dataclass
class RunRecord:
    """One executed run."""

    index: int
    status: object        # ExitStatus
    failed: bool
    plan: object          # RunPlan


@dataclass(frozen=True)
class ShortfallInfo:
    """Structured description of a campaign that missed its quotas."""

    workload_name: str
    want_failures: int
    got_failures: int
    want_successes: int
    got_successes: int
    attempts: int
    limit: int

    def describe(self):
        return (
            "campaign for %r exhausted %d/%d attempts with %d/%d "
            "failures and %d/%d successes" % (
                self.workload_name, self.attempts, self.limit,
                self.got_failures, self.want_failures,
                self.got_successes, self.want_successes,
            )
        )


@dataclass
class CampaignResult:
    """Outcome of a run campaign.

    Besides the collected runs, carries everything observable about how
    the campaign unfolded: ``shortfall`` (a :class:`ShortfallInfo`, or
    ``None`` when both quotas were met), ``executor_stats`` (the
    :class:`~repro.runtime.executor.ExecutorStats` of the executor in
    play, or ``None`` on the sequential path), and ``obs`` (the
    :class:`~repro.obs.Observability` whose span/metric buffers the
    campaign wrote into; the shared NULL bundle when disabled).
    """

    failures: list
    successes: list
    attempts: int
    shortfall: ShortfallInfo = None
    executor_stats: object = None
    obs: object = None
    #: stop reason ("run-budget"/"deadline") when the campaign was cut
    #: short by the active CampaignBudget, None otherwise (see
    #: repro.runtime.checkpoint); budget stops are expected, so they
    #: never warn/raise through ``on_shortfall``
    partial: str = None

    @property
    def all_runs(self):
        return self.failures + self.successes

    @property
    def met_quotas(self):
        return self.shortfall is None


class _CampaignShortfall:
    """Mixin carrying the structured shortfall description.

    ``detail`` optionally appends execution-layer context to the
    message — e.g. "the executor recorded N task errors" — so a
    shortfall caused by infrastructure failures, not workload behaviour,
    says so.
    """

    def __init__(self, workload_name, want_failures, got_failures,
                 want_successes, got_successes, attempts, limit,
                 detail=None):
        self.info = ShortfallInfo(
            workload_name, want_failures, got_failures,
            want_successes, got_successes, attempts, limit,
        )
        self.workload_name = workload_name
        self.want_failures = want_failures
        self.got_failures = got_failures
        self.want_successes = want_successes
        self.got_successes = got_successes
        self.attempts = attempts
        self.limit = limit
        self.detail = detail
        message = self.info.describe()
        if detail:
            message += "; " + detail
        super().__init__(message)


class CampaignShortfallError(_CampaignShortfall, RuntimeError):
    """The campaign hit its attempt cap short of the requested counts."""


class CampaignShortfallWarning(_CampaignShortfall, UserWarning):
    """Warning flavour of :class:`CampaignShortfallError`."""


def run_campaign(program, workload, *, want_failures, want_successes,
                 config=None, max_attempts=None, executor=None,
                 on_shortfall="warn", obs=None):
    """Execute *program* until the requested outcome counts are reached.

    Everything after ``workload`` is keyword-only; the old positional
    tail (``run_campaign(p, w, 10, 10)``) grew too easy to mis-order.

    Failing runs use ``workload.failing_run_plan``; once enough failures
    are collected, passing runs use ``workload.passing_run_plan``.  Runs
    whose outcome does not match their plan's intent are still recorded
    under their actual outcome (a "failing" plan that survives is a
    success run, exactly as in production).

    ``executor`` optionally supplies a
    :class:`~repro.runtime.executor.CampaignExecutor` that runs attempts
    on a worker pool and/or replays them from the run cache; results are
    identical to the sequential path (see the module docstring).

    ``on_shortfall`` — ``"warn"`` (default), ``"raise"``, or ``"ignore"``
    — controls what happens when the attempt cap is reached before the
    requested counts are (see the module docstring).

    ``obs`` — an :class:`~repro.obs.Observability` to record spans and
    metrics into for the duration of the campaign; defaults to whatever
    bundle is already current (the shared no-op one unless tracing was
    enabled), so instrumentation costs nothing when unused.
    """
    if on_shortfall not in ("warn", "raise", "ignore"):
        raise ValueError("on_shortfall must be 'warn', 'raise', or "
                         "'ignore', not %r" % (on_shortfall,))
    if obs is None:
        obs = get_obs()
    config = config or MachineConfig(num_cores=workload.num_cores)
    failures = []
    successes = []
    attempts = 0
    limit = max_attempts if max_attempts is not None else \
        (want_failures + want_successes) * 20 + 50
    stopped = {"reason": None}

    def consume(phase, plan_fn, quota_reached):
        nonlocal attempts
        runs = stream_runs(program, workload, plan_fn, config,
                           ("campaign", phase), executor=executor,
                           stopped=stopped)
        try:
            while not quota_reached() and attempts < limit:
                record = next(runs, None)
                if record is None:
                    break
                record.index = attempts
                if record.failed:
                    failures.append(record)
                    obs.counter("campaign.runs_failed").inc()
                else:
                    successes.append(record)
                    obs.counter("campaign.runs_succeeded").inc()
                attempts += 1
        finally:
            runs.close()

    # The whole campaign runs with *obs* installed so both execution
    # paths record into the campaign's buffers.
    with use(obs), obs.span("campaign", workload=workload.name):
        with obs.span("campaign.failing"):
            consume("failing", workload.failing_run_plan,
                    lambda: len(failures) >= want_failures)
        with obs.span("campaign.passing"):
            consume("passing", workload.passing_run_plan,
                    lambda: len(successes) >= want_successes)
    obs.counter("campaign.attempts").inc(attempts)

    shortfall = None
    short = (len(failures) < want_failures
             or len(successes) < want_successes)
    if short:
        shortfall = ShortfallInfo(
            workload.name, want_failures, len(failures),
            want_successes, len(successes), attempts, limit,
        )
        if stopped["reason"] is None:
            # A genuine shortfall; a budget/deadline stop is expected
            # degradation and reports through ``partial`` instead.
            obs.counter("campaign.shortfalls").inc()
            detail = _executor_detail(executor)
            if on_shortfall == "raise":
                raise CampaignShortfallError(*_astuple(shortfall),
                                             detail=detail)
            if on_shortfall == "warn":
                warnings.warn(
                    CampaignShortfallWarning(*_astuple(shortfall),
                                             detail=detail),
                    stacklevel=2)
        else:
            obs.counter("campaign.budget_stops").inc()

    result = CampaignResult(
        failures=failures[:want_failures] if want_failures else failures,
        successes=successes[:want_successes] if want_successes
        else successes,
        attempts=attempts,
        shortfall=shortfall,
        executor_stats=getattr(executor, "stats", None),
        obs=obs,
        partial=stopped["reason"],
    )
    get_ledger().record_campaign(workload=workload, result=result,
                                 backend=config.backend)
    return result


def _astuple(info):
    return (info.workload_name, info.want_failures, info.got_failures,
            info.want_successes, info.got_successes, info.attempts,
            info.limit)


def _executor_detail(executor):
    """Execution-layer context for a shortfall message, or ``None``.

    When the executor recorded task errors, a shortfall is likely
    infrastructure, not workload behaviour — say so and show the last
    preserved error so nobody has to rerun with a debugger attached.
    """
    stats = getattr(executor, "stats", None)
    resilience = getattr(stats, "resilience", None)
    if resilience is None or not resilience.task_errors:
        return None
    last = resilience.task_errors[-1]
    return ("%d executor task error(s) recorded; last (%s): %s"
            % (len(resilience.task_errors), last["stage"], last["error"]))


def stream_runs(program, workload, plan_fn, config, stream, *, stopped,
                key=(), start=0, executor=None):
    """Yield RunRecords for ``plan_fn(start), plan_fn(start+1), ...``.

    The one resumable campaign stream: :func:`run_campaign` and the
    LBRA/LCRA tools (:class:`~repro.core.lbra.DiagnosisToolBase`) both
    consume it.  The sequential path executes one plan per pull through
    :func:`~repro.runtime.process.run_program`; the executor path
    speculates ahead on the pool but still yields in plan order, so the
    caller's stopping logic sees the same sequence either way.

    When a checkpoint session is active (see
    :mod:`repro.runtime.checkpoint`), the stream journals each consumed
    outcome under ``<owner>.<phase>`` for *stream* = ``(owner, phase)``,
    fingerprinted over (owner, phase, program fingerprint,
    ``repr(config)``, workload token, ``*key``), and replays journaled
    records for free on resume — the plan stream is deterministic, so
    record k *is* the outcome of ``plan_fn(k)``.  Each fresh outcome is
    appended before it is yielded, making the stream resumable after a
    crash at any point.  Replayed records never charge the active
    campaign budget; fresh ones do, and when the budget reports
    exhaustion the stream ends early with the reason left in
    ``stopped["reason"]``.
    """
    budget = _checkpoint.get_budget()
    supervisor = _checkpoint.get_supervisor()
    session = _checkpoint.get_session()
    journal = None
    if session is not None:
        journal = session.journal(
            "%s.%s" % stream,
            _checkpoint.stream_fingerprint(
                *stream, fingerprint_program(program), repr(config),
                _checkpoint.workload_token(workload), *key),
        )

    def record(status, plan):
        return RunRecord(index=-1, status=status,
                         failed=workload.is_failure(status), plan=plan)

    def fresh(cursor):
        if executor is None:
            for k in itertools.count(cursor):
                plan = plan_fn(k)
                yield k, record(run_program(
                    program, args=plan.args,
                    scheduler=plan.make_scheduler(), config=config,
                    max_steps=plan.max_steps,
                    globals_setup=plan.globals_setup), plan)
        else:
            plans = (plan_fn(k) for k in itertools.count(cursor))
            for k, (plan, result) in enumerate(
                    executor.iter_runs(program, plans, config),
                    start=cursor):
                yield k, record(result.status, plan)

    cursor = start
    try:
        if journal is not None:
            for rec in journal.replay():
                cursor = rec["k"] + 1
                supervisor.beat("campaign")
                yield record(rec["status"], plan_fn(rec["k"]))
        source = fresh(cursor)
        try:
            while True:
                reason = budget.exhausted()
                if reason is not None:
                    stopped["reason"] = reason
                    return
                item = next(source, None)
                if item is None:
                    return
                k, run = item
                budget.charge()
                if journal is not None:
                    journal.append(k, run.failed, run.status)
                supervisor.beat("campaign")
                yield run
        finally:
            source.close()
    finally:
        if journal is not None:
            journal.close()
