"""Shared campaign machinery for the CBI-family baselines."""

import time
from dataclasses import dataclass, field

from repro.baselines.scoring import liblit_rank, rank_of_line
from repro.compiler.frontend import compile_module
from repro.core.api import confidence_summary, validate_options
from repro.machine.cpu import MachineConfig
from repro.obs import get_obs
from repro.obs.ledger import get_ledger
from repro.runtime.executor import CampaignExecutor
from repro.runtime.harness import stream_baseline_runs
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


def _rebuild_tool(tool_class, workload, kwargs):
    return tool_class(workload, **kwargs)


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
    OPTIONS = {"seed": 0, "executor": None}

    def __init__(self, workload, **options):
        self.options = validate_options(type(self).__name__,
                                        self.OPTIONS, options)
        self.workload = workload
        self.seed = self.options["seed"]
        #: the CampaignExecutor campaign runs go through (default: in
        #: process, no cache) — on worker-side reconstructions of this
        #: tool (see _clone_spec) or on this tool, flowing back as
        #: counter/predicate deltas; results are identical either way.
        self.executor = self.options.get("executor") or CampaignExecutor()
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
        """``(class, workload, kwargs)`` rebuilding an equivalent tool:
        every option but the executor.

        Used by the campaign executor to reconstruct this tool inside
        worker processes, so clones sample and observe identically.
        """
        return type(self), self.workload, {
            name: value for name, value in self.options.items()
            if name != "executor"}

    def __reduce__(self):
        # A tool pickles as its clone: the receiver — a pool worker —
        # rebuilds an equivalent fresh tool (counters and predicate
        # registry empty, a default executor) instead of copying it.
        return _rebuild_tool, self._clone_spec()

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
        """Apply one consumed run's counter/predicate deltas.

        Fresh, pooled, cached and journal-replayed runs all land here.
        """
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

        Each phase is one journaled, budgeted campaign stream
        (:func:`repro.runtime.harness.stream_baseline_runs`) on this
        tool's executor: attempts may fan out across its worker pool
        (and replay from its run cache) but are consumed strictly in
        attempt order, so counts, observations, and the predicate
        registry are the same at any worker count.  The diagnosis and
        its campaign's executor activity are recorded in the current
        run ledger (:mod:`repro.obs.ledger`; a no-op unless installed).
        """
        obs = get_obs()
        mark = self.executor.stats.mark()
        started = time.perf_counter()
        with obs.span("diagnose." + self.tool_name.lower(),
                      workload=self.workload.name):
            diagnosis = self._run_diagnosis(obs, n_failures, n_successes,
                                            max_attempts)
        params = {name: value for name, value in self.options.items()
                  if name not in ("executor", "seed")}
        params.update(n_failures=n_failures, n_successes=n_successes)
        get_ledger().record_diagnosis(
            tool=self.tool_name.lower(),
            workload=self.workload,
            raw=diagnosis,
            seed=self.seed,
            params=params,
            wall_seconds=time.perf_counter() - started,
            executor=self.executor.stats.to_dict(since=mark),
            backend=self.machine_config.backend,
        )
        return diagnosis

    def _run_diagnosis(self, obs, n_failures, n_successes, max_attempts):
        cap = max_attempts if max_attempts is not None else \
            (n_failures + n_successes) * 5 + 100
        observations = []
        failures = 0
        stopped = {"reason": None}

        def consume(plan_of, phase, quota_open):
            nonlocal failures
            runs = stream_baseline_runs(self, plan_of, phase,
                                        stopped=stopped,
                                        start=len(observations) + self.seed)
            try:
                while quota_open() and len(observations) < cap:
                    item = next(runs, None)
                    if item is None:
                        break
                    _k, failed, result = item
                    self._absorb(result)
                    observations.append(result.observation)
                    if failed:
                        failures += 1
            finally:
                runs.close()

        with obs.span("collect.failures", want=n_failures):
            consume(self.workload.failing_run_plan, "failing",
                    lambda: failures < n_failures)
        with obs.span("collect.successes", want=n_successes):
            consume(self.workload.passing_run_plan, "passing",
                    lambda: len(observations) - failures < n_successes)
        with obs.span("rank"):
            ranked = liblit_rank(observations, self.predicate_info())
        return BaselineDiagnosis(
            ranked=ranked,
            n_failures=failures,
            n_successes=len(observations) - failures,
            tool=self.tool_name,
            events_observed=self.events_observed,
            samples_taken=self.samples_taken,
            retired_total=self.retired_total,
            partial=stopped["reason"] is not None,
            stop_reason=stopped["reason"],
            n_failures_requested=n_failures,
            n_successes_requested=n_successes,
        )
