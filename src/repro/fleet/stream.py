"""A deterministic simulated fleet of failing applications.

Production reality: a deployed population of applications emits failure
reports — each one an exit status plus the LBR/LCR ring snapshot the
paper's logging enhancement captured at the failure site.  This module
simulates that stream over the 31-bug corpus: a seeded mix of
applications, each failing under its own mixed workload/plan-seed
stream, in a deterministic interleaving.

Determinism contract (the fleet analogue of the campaign contract in
:mod:`repro.runtime.harness`): the report stream is a pure function of
``(population, seed)``.  Report *i* names its application via one
``random.Random(seed)`` draw; the application's k-th emission attempt
always executes ``failing_run_plan(k)``; attempts that do not manifest
the failure (concurrency bugs!) emit nothing and are simply skipped, as
in production.  Run outcomes depend only on the (program, plan, config)
triple, so the stream is bit-identical whether runs execute inline, on
a :class:`~repro.runtime.executor.CampaignExecutor` pool, or replay
from the shared run cache.

A :class:`FailureReport` carries the ground-truth application name —
in this simulation the corpus bug name — which downstream triage uses
for two distinct purposes: *dispatching* a reproduction campaign (a
fleet legitimately knows which application crashed) and *evaluating*
the diagnosis against the registered root cause.  Clustering itself
never reads it; that is the fault signature's job
(:mod:`repro.fleet.signature`).
"""

import hashlib
import random
import time
import warnings
from dataclasses import dataclass, field

from repro.bugs.registry import bug_names, get_bug
from repro.core.api import get_log_tool
from repro.obs import get_obs


@dataclass(frozen=True)
class StreamShortfall:
    """Structured description of a starved report stream.

    Mirrors the campaign-side
    :class:`~repro.runtime.harness.ShortfallInfo`: when the attempt cap
    trips before *want* reports manifested, the stream records what it
    actually delivered instead of silently under-delivering.
    """

    want: int
    got: int
    attempts: int
    limit: int

    def describe(self):
        return (
            "fleet stream exhausted %d/%d attempts with %d/%d "
            "reports manifested" % (
                self.attempts, self.limit, self.got, self.want,
            )
        )


class FleetShortfallWarning(UserWarning):
    """A fleet stream delivered fewer reports than requested."""


@dataclass
class FailureReport:
    """One failure report as a fleet member would ship it.

    ``program`` is the log-enhanced program the application runs — the
    fleet analogue of "binary + debug info", needed to decode ring
    entries into source events — and ``module`` the parsed source it
    was built from.  Both are shared across all reports of one
    application.
    """

    report_id: str        # stable short id
    app: str              # application (corpus bug) name
    ring: str             # "lbr" or "lcr" — the ring the app instruments
    plan_index: int       # k of the failing_run_plan stream
    status: object        # ExitStatus with profile snapshots
    program: object = field(repr=False, default=None)
    module: object = field(repr=False, default=None)


def _report_id(app, plan_index):
    token = "%s|%d" % (app, plan_index)
    return hashlib.sha256(token.encode()).hexdigest()[:12]


class FleetStream:
    """Generate failure reports from a seeded application mix.

    *population* is a sequence of corpus bug names (default: all 31,
    sorted); *seed* drives the application mix; *executor* optionally
    runs report executions on a worker pool / the shared run cache.
    Per-application log tooling follows the deployment rule the CLI
    uses: sequential applications instrument the LBR ring (LBRLOG),
    concurrency applications the LCR ring (LCRLOG).
    """

    #: emission attempts allowed per requested report before giving up
    #: (a stubbornly passing "failing" plan stream).
    ATTEMPT_FACTOR = 20

    def __init__(self, population=None, seed=0, executor=None):
        names = tuple(population) if population is not None \
            else tuple(sorted(bug_names()))
        if not names:
            raise ValueError("fleet population is empty")
        self.population = names
        self.seed = seed
        self.executor = executor
        self._rng = random.Random(seed)
        self._apps = {}               # name -> (workload, tool, ring)
        self._cursors = {}            # name -> next plan index
        #: :class:`StreamShortfall` of the most recent starved
        #: :meth:`reports` sweep, or ``None`` when it delivered in full
        self.shortfall = None

    def _app(self, name):
        """The (workload, log tool, ring) of one application, built once."""
        entry = self._apps.get(name)
        if entry is None:
            workload = get_bug(name)
            ring = "lbr" if workload.category == "sequential" else "lcr"
            tool = get_log_tool(ring + "log")(
                workload, toggling=True, executor=self.executor,
            )
            entry = (workload, tool, ring)
            self._apps[name] = entry
        return entry

    def program_for(self, app):
        """The log-enhanced program reports of *app* decode against."""
        return self._app(app)[1].program

    def reports(self, n):
        """Yield the next *n* failure reports, lazily.

        Telemetry: each yielded report advances the logical clock by
        one tick (report ingest is a deterministic progress point — the
        stream is a pure function of ``(population, seed)``, so the
        clock is jobs-invariant) and lands in the ``fleet.reports``
        counter.  Every emission attempt — manifesting or not —
        feeds the ``stage.attempt.seconds`` timing sketch; the
        ``stage.ingest.seconds`` sketch gets the true per-report
        generation latency (all attempt time accumulated since the
        previous report), so skipped attempts don't skew the ``obs
        watch`` latency panel.

        If the attempt cap trips first, the sweep is recorded as a
        :class:`StreamShortfall` on :attr:`shortfall`, counted under
        ``fleet.stream.shortfall``, and surfaced as a
        :class:`FleetShortfallWarning` — the fleet analogue of a
        campaign's shortfall report — instead of silently yielding
        fewer than *n* reports.
        """
        obs = get_obs()
        metrics = obs.metrics
        produced = 0
        attempts = 0
        pending_seconds = 0.0
        limit = n * self.ATTEMPT_FACTOR + 50
        self.shortfall = None
        while produced < n and attempts < limit:
            name = self.population[
                self._rng.randrange(len(self.population))]
            workload, tool, ring = self._app(name)
            k = self._cursors.get(name, 0)
            self._cursors[name] = k + 1
            attempts += 1
            metrics.counter("fleet.stream.attempts").inc()
            started = time.perf_counter()
            status = tool.run_plan(workload.failing_run_plan(k))
            elapsed = time.perf_counter() - started
            metrics.sketch("stage.attempt.seconds",
                           timing=True).observe(elapsed)
            pending_seconds += elapsed
            if not workload.is_failure(status):
                # The failing input happened not to manifest: a fleet
                # member emits nothing for a successful run.
                continue
            produced += 1
            metrics.tick()
            metrics.counter("fleet.reports").inc()
            metrics.sketch("stage.ingest.seconds",
                           timing=True).observe(pending_seconds)
            pending_seconds = 0.0
            yield FailureReport(
                report_id=_report_id(name, k),
                app=name,
                ring=ring,
                plan_index=k,
                status=status,
                program=tool.program,
                module=tool.module,
            )
        if produced < n:
            self.shortfall = StreamShortfall(
                want=n, got=produced, attempts=attempts, limit=limit,
            )
            metrics.counter("fleet.stream.shortfall").inc()
            warnings.warn(self.shortfall.describe(),
                          FleetShortfallWarning, stacklevel=2)

    def generate(self, n):
        """The next *n* failure reports, as a list."""
        return list(self.reports(n))


__all__ = [
    "FailureReport",
    "FleetShortfallWarning",
    "FleetStream",
    "StreamShortfall",
]
