"""Shared campaign machinery for the CBI-family baselines."""

import time
from dataclasses import dataclass, field

from repro.baselines.scoring import liblit_rank, rank_of_line
from repro.compiler.frontend import compile_module
from repro.core.api import confidence_summary, validate_options
from repro.machine.cpu import MachineConfig
from repro.obs import get_obs, use
from repro.obs.ledger import get_ledger
from repro.runtime import checkpoint as _checkpoint
from repro.runtime.process import execute_plan


@dataclass
class BaselineDiagnosis:
    """Result of one baseline diagnosis campaign."""

    ranked: list
    n_failures: int
    n_successes: int
    tool: str
    #: instrumentation cost counters for the overhead model
    events_observed: int = 0
    samples_taken: int = 0
    retired_total: int = 0
    notes: dict = field(default_factory=dict)
    #: True when the campaign was stopped by a deadline/run budget
    #: before both quotas were met (see repro.runtime.checkpoint)
    partial: bool = False
    stop_reason: str = None
    n_failures_requested: int = 0
    n_successes_requested: int = 0

    def confidence(self):
        """Evidence-quality summary (see :func:`confidence_summary`)."""
        return confidence_summary(
            self.n_failures,
            self.n_failures_requested or self.n_failures,
            self.n_successes,
            self.n_successes_requested or self.n_successes,
            self.ranked,
        )

    def best(self):
        return self.ranked[0] if self.ranked else None

    def top(self, n=5):
        return self.ranked[:n]

    def rank_of_line(self, lines, detail_suffix=None):
        """Dense rank of the best predicate on one of *lines*."""
        return rank_of_line(self.ranked, lines, detail_suffix)

    def describe(self, n=5):
        lines = ["%s diagnosis (%d failing, %d passing runs)"
                 % (self.tool, self.n_failures, self.n_successes)]
        if self.partial:
            confidence = self.confidence()
            lines.append(
                "  PARTIAL (%s): %d/%d failing and %d/%d passing runs "
                "collected; confidence %s" % (
                    self.stop_reason,
                    self.n_failures,
                    self.n_failures_requested or self.n_failures,
                    self.n_successes,
                    self.n_successes_requested or self.n_successes,
                    confidence["level"],
                ))
        lines.extend("  %s" % p for p in self.top(n))
        return "\n".join(lines)


class BaselineToolBase:
    """Runs campaigns over an uninstrumented (plain) program build.

    Subclasses implement :meth:`attach` (install observers for one run,
    returning a callable that yields the run's RunObservation) and
    :meth:`predicate_info`.

    Constructor keywords are validated against the class's ``OPTIONS``
    mapping (see :func:`repro.core.api.validate_options`); subclasses
    extend it with their behavioural parameters (sampling rate, sample
    period, …), and unknown keywords raise :class:`TypeError` listing
    the accepted set.  The merged options stay readable on
    ``self.options``.
    """

    tool_name = "baseline"

    #: accepted constructor options and their defaults
    OPTIONS = {"seed": 0, "executor": None, "obs": None}

    def __init__(self, workload, **options):
        self.options = validate_options(type(self).__name__,
                                        self.OPTIONS, options)
        self.workload = workload
        self.seed = self.options["seed"]
        #: optional CampaignExecutor — campaign runs then execute on
        #: worker-side reconstructions of this tool (see _clone_spec)
        #: and flow back as counter/predicate deltas; results are
        #: identical to the sequential path.
        self.executor = self.options.get("executor")
        #: optional Observability pinned for run_diagnosis (default:
        #: whatever bundle is current at diagnosis time)
        self.obs = self.options.get("obs")
        self.program = compile_module(workload.build_module(),
                                      toggling=False)
        self.machine_config = MachineConfig(num_cores=workload.num_cores)
        self.events_observed = 0
        self.samples_taken = 0
        self.retired_total = 0

    # -- subclass hooks --------------------------------------------------

    def attach(self, machine, run_seed):
        """Install observers on *machine*; return finish(failed) -> obs."""
        raise NotImplementedError

    def predicate_info(self):
        """Return predicate id -> (site, function, line, detail)."""
        raise NotImplementedError

    def _clone_spec(self):
        """``(class, workload, kwargs)`` rebuilding an equivalent tool.

        Used by the campaign executor to reconstruct this tool inside
        worker processes; subclasses adding behavioural parameters must
        extend the kwargs so clones sample and observe identically.
        """
        return type(self), self.workload, {"seed": self.seed}

    # -- campaign ---------------------------------------------------------

    def _run_once(self, plan, run_seed):
        finishers = []
        status = execute_plan(
            self.program, plan, self.machine_config,
            attach=lambda machine: finishers.append(
                self.attach(machine, run_seed)),
        ).status
        self.retired_total += status.retired
        failed = self.workload.is_failure(status)
        return failed, finishers[0](failed)

    def _absorb(self, result):
        """Apply one consumed run's counter/predicate deltas."""
        self.events_observed += result.events_observed
        self.samples_taken += result.samples_taken
        self.retired_total += result.retired
        predicates = getattr(self, "_predicates", None)
        if predicates is not None:
            for key, value in result.new_predicates.items():
                predicates.setdefault(key, value)

    def run_diagnosis(self, n_failures=1000, n_successes=1000,
                      max_attempts=None):
        """Collect runs until the outcome quotas are met, then rank.

        With an executor attached, attempts fan out across its
        worker pool (and replay from its run cache) but are consumed
        strictly in attempt order, so counts, observations, and the
        predicate registry are bit-identical to the sequential path.
        The finished diagnosis is recorded in the current run ledger
        (:mod:`repro.obs.ledger`; a no-op unless one is installed).
        """
        obs = self.obs if self.obs is not None else get_obs()
        started = time.perf_counter()
        with use(obs), obs.span("diagnose." + self.tool_name.lower(),
                                workload=self.workload.name):
            diagnosis = self._run_diagnosis(obs, n_failures, n_successes,
                                            max_attempts)
        params = {name: value for name, value in self.options.items()
                  if name not in ("executor", "obs", "seed")}
        params.update(n_failures=n_failures, n_successes=n_successes)
        get_ledger().record_diagnosis(
            tool=self.tool_name.lower(),
            workload=self.workload,
            raw=diagnosis,
            seed=self.seed,
            params=params,
            wall_seconds=time.perf_counter() - started,
            executor=self.executor,
            backend=self.machine_config.backend,
        )
        return diagnosis

    def _run_diagnosis(self, obs, n_failures, n_successes, max_attempts):
        cap = max_attempts if max_attempts is not None else \
            (n_failures + n_successes) * 5 + 100
        budget = _checkpoint.get_budget()
        supervisor = _checkpoint.get_supervisor()
        observations = []
        failures = 0
        successes = 0
        attempt = 0
        stopped = {"reason": None}

        def within_budget():
            # Checked before each fresh execution: a deadline/run-budget
            # stop ends the campaign cleanly with a partial result.
            reason = budget.exhausted()
            if reason is not None:
                stopped["reason"] = reason
                return False
            return True

        def consume(plan_of, quota_open):
            nonlocal failures, successes, attempt

            def record(failed):
                nonlocal failures, successes, attempt
                if failed:
                    failures += 1
                    obs.counter("campaign.runs_failed").inc()
                else:
                    successes += 1
                    obs.counter("campaign.runs_succeeded").inc()
                attempt += 1
                budget.charge()
                supervisor.beat("campaign")

            if self.executor is None:
                while quota_open() and attempt < cap and within_budget():
                    plan = plan_of(attempt + self.seed)
                    failed, observation = self._run_once(
                        plan, attempt + self.seed
                    )
                    observations.append(observation)
                    record(failed)
                return

            def plan_seeds():
                k = attempt
                while True:
                    yield plan_of(k + self.seed), k + self.seed
                    k += 1

            runs = self.executor.iter_baseline_runs(self, plan_seeds())
            try:
                while quota_open() and attempt < cap and within_budget():
                    _seed, result = next(runs)
                    self._absorb(result)
                    observations.append(result.observation)
                    record(result.failed)
            finally:
                runs.close()

        with obs.span("collect.failures", want=n_failures):
            consume(self.workload.failing_run_plan,
                    lambda: failures < n_failures)
        with obs.span("collect.successes", want=n_successes):
            consume(self.workload.passing_run_plan,
                    lambda: successes < n_successes)
        with obs.span("rank"):
            ranked = liblit_rank(observations, self.predicate_info())
        return BaselineDiagnosis(
            ranked=ranked,
            n_failures=failures,
            n_successes=successes,
            tool=self.tool_name,
            events_observed=self.events_observed,
            samples_taken=self.samples_taken,
            retired_total=self.retired_total,
            partial=stopped["reason"] is not None,
            stop_reason=stopped["reason"],
            n_failures_requested=n_failures,
            n_successes_requested=n_successes,
        )
