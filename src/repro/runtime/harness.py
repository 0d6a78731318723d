"""Run campaigns: repeated executions with outcome classification.

The statistical tools need "N failure runs and M success runs" (the paper
uses 10+10 for LBRA/LCRA and 1000+1000 for CBI).  :func:`run_campaign`
drives a workload's run plans until the requested number of runs with the
right outcome have been observed, which mirrors production reality: a
failing input occasionally fails to manifest (concurrency bugs!) and is
then just another success run.

Every quota campaign — :func:`run_campaign`, LBRA/LCRA and the
CBI-family baselines — consumes one loop, :func:`durable_stream`.

Determinism contract
--------------------

A campaign's plan stream is a pure function of the workload: the k-th
failing attempt always executes ``workload.failing_run_plan(k)``, and any
randomness lives inside the plan (schedulers seeded by k).  Each run's
outcome depends only on its (program, plan, config) triple.  Campaign
results are therefore **bit-identical no matter how runs are executed**:
one at a time in this process, fanned out across a worker pool, or
replayed from the run cache.  Every campaign runs through a
:class:`~repro.runtime.executor.CampaignExecutor`, whose ``jobs`` and
``cache`` settings change wall-clock time, never results — parallel
workers only *speculate ahead* in the deterministic plan stream, and
results are consumed strictly in plan order so the stopping decisions
replay the same logic exactly.

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
from repro.obs import get_obs
from repro.obs.ledger import get_ledger
from repro.runtime import checkpoint as _checkpoint
from repro.runtime.executor import (
    CampaignExecutor,
    fingerprint_program,
    fingerprint_tool,
)


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
    ``None`` when both quotas were met) and ``executor_stats`` (the
    :class:`~repro.runtime.executor.ExecutorStats` of the executor that
    ran it).
    """

    failures: list
    successes: list
    attempts: int
    shortfall: ShortfallInfo = None
    executor_stats: object = None
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
                 on_shortfall="warn"):
    """Execute *program* until the requested outcome counts are reached.

    Everything after ``workload`` is keyword-only; the old positional
    tail (``run_campaign(p, w, 10, 10)``) grew too easy to mis-order.

    Failing runs use ``workload.failing_run_plan``; once enough failures
    are collected, passing runs use ``workload.passing_run_plan``.  Runs
    whose outcome does not match their plan's intent are still recorded
    under their actual outcome (a "failing" plan that survives is a
    success run, exactly as in production).

    ``executor`` is the :class:`~repro.runtime.executor.CampaignExecutor`
    that runs the attempts — on a worker pool and/or from its run cache;
    by default, a fresh ``CampaignExecutor()`` runs them in process,
    each distinct plan once, replaying repeats from memory.
    Results are the same either way (see the module docstring).

    ``on_shortfall`` — ``"warn"`` (default), ``"raise"``, or ``"ignore"``
    — controls what happens when the attempt cap is reached before the
    requested counts are (see the module docstring).

    Spans and metrics go to the current :class:`~repro.obs.Observability`
    (the shared no-op one unless tracing was enabled).
    """
    if on_shortfall not in ("warn", "raise", "ignore"):
        raise ValueError("on_shortfall must be 'warn', 'raise', or "
                         "'ignore', not %r" % (on_shortfall,))
    executor = executor or CampaignExecutor()
    mark = executor.stats.mark()
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
                           ("campaign", phase), executor, stopped=stopped)
        try:
            while not quota_reached() and attempts < limit:
                record = next(runs, None)
                if record is None:
                    break
                record.index = attempts
                (failures if record.failed else successes).append(record)
                attempts += 1
        finally:
            runs.close()

    with obs.span("campaign", workload=workload.name):
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
        executor_stats=executor.stats,
        partial=stopped["reason"],
    )
    get_ledger().record_campaign(
        workload=workload, result=result, backend=config.backend,
        executor=executor.stats.to_dict(since=mark))
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
    resilience = executor.stats.resilience
    if not resilience.task_errors:
        return None
    last = resilience.task_errors[-1]
    return ("%d executor task error(s) recorded; last (%s): %s"
            % (len(resilience.task_errors), last["stage"], last["error"]))


def durable_stream(stream, fingerprint, fresh, *, stopped, start=0):
    """The one campaign loop: yield ``(k, failed, value)`` from *start* on.

    ``fresh(cursor)`` generates the records of attempts ``cursor,
    cursor+1, ...`` in plan order.  Every record yielded beats the
    supervisor's ``"campaign"`` heartbeat and bumps
    ``campaign.runs_failed`` or ``campaign.runs_succeeded``.

    When a checkpoint session is active (see
    :mod:`repro.runtime.checkpoint`), the loop journals each consumed
    record under ``<owner>.<phase>`` for *stream* = ``(owner, phase)``,
    fingerprinted by ``fingerprint()`` (called only then, so nothing is
    hashed without a session), and replays journaled records for free on
    resume — the plan stream is deterministic, so record k *is* the
    outcome of attempt k.  Each fresh record is appended before it is
    yielded, making the stream resumable after a crash at any point.
    Replayed records never charge the active campaign budget; fresh ones
    do, and when the budget reports exhaustion the stream ends early
    with the reason left in ``stopped["reason"]``.
    """
    budget = _checkpoint.get_budget()
    supervisor = _checkpoint.get_supervisor()
    session = _checkpoint.get_session()
    counter = get_obs().counter
    journal = None
    if session is not None:
        journal = session.journal("%s.%s" % stream, fingerprint())

    cursor = start
    try:
        if journal is not None:
            for rec in journal.replay():
                cursor = rec["k"] + 1
                supervisor.beat("campaign")
                counter("campaign.runs_failed" if rec["failed"]
                        else "campaign.runs_succeeded").inc()
                yield rec["k"], rec["failed"], rec["status"]
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
                k, failed, value = item
                budget.charge()
                if journal is not None:
                    journal.append(k, failed, value)
                supervisor.beat("campaign")
                counter("campaign.runs_failed" if failed
                        else "campaign.runs_succeeded").inc()
                yield item
        finally:
            source.close()
    finally:
        if journal is not None:
            journal.close()


def stream_runs(program, workload, plan_fn, config, stream, executor, *,
                stopped, key=(), start=0):
    """Yield RunRecords for ``plan_fn(start), plan_fn(start+1), ...``.

    :func:`durable_stream` over plan runs on *executor*, for
    :func:`run_campaign` and the LBRA/LCRA tools; a repeated plan
    replays from the executor's run cache, and a pool speculates
    ahead, but records still come in plan order.  The journal
    fingerprint covers (owner, phase, program fingerprint,
    ``repr(config)``, workload token, ``*key``).
    """
    def fresh(cursor):
        plans = (plan_fn(k) for k in itertools.count(cursor))
        for k, (_plan, result) in enumerate(
                executor.iter_runs(program, plans, config), start=cursor):
            yield k, workload.is_failure(result.status), result.status

    def fingerprint():
        return _checkpoint.stream_fingerprint(
            *stream, fingerprint_program(program), repr(config),
            _checkpoint.workload_token(workload), *key)

    for k, failed, status in durable_stream(stream, fingerprint, fresh,
                                            stopped=stopped, start=start):
        yield RunRecord(index=-1, status=status, failed=failed,
                        plan=plan_fn(k))


def stream_baseline_runs(tool, plan_fn, phase, *, stopped, start):
    """Yield ``(k, failed, record)`` for a baseline campaign.

    :func:`durable_stream` over a CBI-family *tool*: attempt k runs
    ``plan_fn(k)`` with run seed k on ``tool.executor``, which derives
    its record from the plan's recording (see ``BaselineToolBase``),
    and the record is left for the caller to fold into *tool*.  The
    journal is keyed by phase, tool fingerprint, seed and *start*,
    because a passing phase starts where its failing phase stopped.
    """
    name = tool.tool_name.lower()

    def fresh(cursor):
        plan_seeds = ((plan_fn(k), k) for k in itertools.count(cursor))
        for k, record in tool.executor.iter_baseline_runs(tool,
                                                          plan_seeds):
            yield k, record["failed"], record

    def fingerprint():
        return _checkpoint.stream_fingerprint(
            name, phase, fingerprint_tool(tool), tool.seed, start)

    return durable_stream((name, phase), fingerprint, fresh,
                          stopped=stopped, start=start)
