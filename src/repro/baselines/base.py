"""Shared campaign machinery for the CBI-family baselines."""

from collections import namedtuple
from dataclasses import dataclass, field

from repro.baselines.scoring import RunObservation, liblit_rank, rank_of_line
from repro.compiler.frontend import compile_module
from repro.core.api import (
    DiagnosisResult,
    recorded_diagnosis,
    validate_options,
)
from repro.machine.cpu import MachineConfig
from repro.runtime.executor import CampaignExecutor
from repro.runtime.harness import stream_baseline_runs
from repro.runtime.process import execute_plan


@dataclass
class BaselineDiagnosis(DiagnosisResult):
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

    @property
    def runs_used(self):
        return {"failures": self.n_failures, "successes": self.n_successes}

    @property
    def campaign_detail(self):
        return {"events_observed": self.events_observed,
                "samples_taken": self.samples_taken,
                "retired_total": self.retired_total}

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


#: One recorded execution of a plan: its outcome, the instructions it
#: retired, and the tool's event stream (see
#: :meth:`BaselineToolBase.record_events`).
Recording = namedtuple("Recording", "failed retired events")


def run_record(recording, true_predicates, observed_sites, events=0,
               samples=0, predicates=None):
    """A baseline run's record, as :meth:`BaselineToolBase.derive`
    returns it: the run's :class:`~repro.baselines.scoring.RunObservation`,
    the instrumented events and samples it counted, the predicates it
    registered, and ``failed`` and ``retired`` from *recording*."""
    return {
        "observation": RunObservation(
            failed=recording.failed,
            true_predicates=frozenset(true_predicates),
            observed_sites=frozenset(observed_sites),
        ),
        "events": events,
        "samples": samples,
        "predicates": predicates if predicates is not None else {},
        "failed": recording.failed,
        "retired": recording.retired,
    }


class BaselineToolBase:
    """Runs campaigns over an uninstrumented (plain) program build.

    The plan alone fixes a run; the run seed reaches only the sampling.
    So a run is two steps.  :meth:`_record` executes a plan once with
    the subclass's :meth:`record_events` observers installed and keeps
    the whole event stream as a :data:`Recording`; the subclass's
    :meth:`derive` then computes the record of the run with a given run
    seed from that recording, as :func:`run_record` builds it.
    Neither step writes to the tool, so a recording is a pure function
    of (tool, plan) and a record of (tool, plan, run seed): the
    executor keys recordings by (tool, plan) and derives each
    attempt's record where the campaign consumes it, and
    :meth:`_absorb` is the one place a record touches the tool.
    Subclasses whose predicates are not discovered during runs
    override :meth:`predicate_info`.

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
        #: process, each distinct plan recorded once), or None for a
        #: tool whose OPTIONS take none
        self.executor = ((self.options["executor"] or CampaignExecutor())
                         if "executor" in self.OPTIONS else None)
        self.program = compile_module(workload.build_module(),
                                      toggling=False)
        self.machine_config = MachineConfig(num_cores=workload.num_cores)
        self.events_observed = 0
        self.samples_taken = 0
        self.retired_total = 0
        self._predicates = {}

    # -- subclass hooks --------------------------------------------------

    def record_events(self, machine, events):
        """Install observers on *machine* that append this tool's events
        to the list *events*, in the order the run produces them."""
        raise NotImplementedError

    def derive(self, recording, run_seed):
        """The :func:`run_record` of the run with run seed *run_seed*
        over the execution *recording* holds."""
        raise NotImplementedError

    def predicate_info(self):
        """Return predicate id -> (site, function, line, detail): by
        default, the predicates the consumed runs registered."""
        return dict(self._predicates)

    def _clone_spec(self):
        """``(class, workload, kwargs)`` rebuilding an equivalent tool:
        every option but the executor.

        :func:`~repro.runtime.executor.fingerprint_tool` keys run-cache
        recordings and checkpoint journals on it, so two tools that
        sample and observe identically share them.
        """
        return type(self), self.workload, {
            name: value for name, value in self.options.items()
            if name != "executor"}

    # -- campaign ---------------------------------------------------------

    def _record(self, plan):
        """Execute *plan* once with :meth:`record_events` installed and
        return its :data:`Recording`.

        Writes nothing to the tool, so a recording can serve every tool
        with the same fingerprint.
        """
        events = []
        status = execute_plan(
            self.program, plan, self.machine_config,
            attach=lambda machine: self.record_events(machine, events),
        ).status
        return Recording(self.workload.is_failure(status), status.retired,
                         events)

    def _run_once(self, plan, run_seed):
        """The record of one run of *plan* with run seed *run_seed*,
        recorded and derived in process."""
        return self.derive(self._record(plan), run_seed)

    def _absorb(self, record):
        """Fold one consumed run's *record* into this tool: add its
        counters and merge its predicates in consumption order.

        Fresh, cached and journal-replayed records all land here, in
        plan order, so the registry's contents and order do not depend
        on where a record came from.
        """
        self.events_observed += record["events"]
        self.samples_taken += record["samples"]
        self.retired_total += record["retired"]
        for key, value in record["predicates"].items():
            self._predicates.setdefault(key, value)

    def run_diagnosis(self, n_failures=1000, n_successes=1000,
                      max_attempts=None):
        """Collect runs until the outcome quotas are met, then rank.

        Each phase is one journaled, budgeted campaign stream
        (:func:`repro.runtime.harness.stream_baseline_runs`) on this
        tool's executor: attempts may replay from its run cache but are
        consumed strictly in attempt order, so counts, observations, and
        the predicate registry are the same at any cache state.  The
        campaign runs in
        the envelope every tool shares
        (:func:`repro.core.api.recorded_diagnosis`), which records it in
        the current run ledger.
        """
        params = {name: value for name, value in self.options.items()
                  if name not in ("executor", "seed")}
        params.update(n_failures=n_failures, n_successes=n_successes)
        return recorded_diagnosis(
            self, self.tool_name.lower(), params,
            lambda obs: self._run_diagnosis(obs, n_failures, n_successes,
                                            max_attempts))

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
                    _k, failed, record = item
                    self._absorb(record)
                    observations.append(record["observation"])
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
