"""LBRA — automatic failure diagnosis from LBR records (Section 5.2).

LBRA compares LBR snapshots collected at the failure site during failure
runs against snapshots collected at the matched *success logging site*
during success runs, and ranks events by the harmonic mean of prediction
precision and recall.  Both success-profiling schemes are implemented:

* ``reactive`` (default) — ship the program with plain LBRLOG; after the
  first failure, add the success logging site matching the observed
  failure location and collect success profiles from then on.  Works for
  segmentation faults.
* ``proactive`` — instrument every success site before release.  Higher
  overhead, no redeployment, but cannot cover failures at unexpected
  locations (segfaults), exactly as the paper notes.
"""

import time
from dataclasses import dataclass, field

from repro.compiler.frontend import compile_module
from repro.lang.transform import ReactiveTarget, enhance_logging
from repro.machine.cpu import MachineConfig
from repro.obs import get_obs, use
from repro.obs.ledger import get_ledger
from repro.runtime.harness import stream_runs
from repro.core.api import confidence_summary, validate_options
from repro.core.profiles import (
    SUCCESS_SITE_KINDS,
    dominant_failure_site,
    extract_profile,
    site_by_id,
    sites_of,
)
from repro.core.statistics import (
    branch_on_lines,
    coherence_on_lines,
    rank_of_event,
    rank_predictors,
)


class DiagnosisError(Exception):
    """Raised when diagnosis cannot proceed (no profiles, bad scheme)."""


@dataclass
class Diagnosis:
    """Result of one LBRA/LCRA diagnosis."""

    ranked: list                    # PredictorScore, best first
    failure_site: object            # LoggingSite
    success_site: object            # LoggingSite or None
    n_failure_profiles: int
    n_success_profiles: int
    scheme: str
    ring: str
    failing_statuses: list = field(default_factory=list)
    passing_statuses: list = field(default_factory=list)
    #: the RunProfiles the ranking was computed from, in arrival order —
    #: consumers that re-aggregate incrementally (the fleet triage
    #: convergence view, see :mod:`repro.fleet.triage`) replay these
    #: instead of re-running the campaign
    failure_profiles: list = field(default_factory=list)
    success_profiles: list = field(default_factory=list)
    #: True when the campaign was stopped by a deadline/run budget
    #: before both quotas were met (see repro.runtime.checkpoint);
    #: ``stop_reason`` is "deadline" or "run-budget", and the requested
    #: counts let :meth:`confidence` grade the collected evidence.
    partial: bool = False
    stop_reason: str = None
    n_failures_requested: int = 0
    n_successes_requested: int = 0

    def confidence(self):
        """Evidence-quality summary (see :func:`confidence_summary`)."""
        return confidence_summary(
            self.n_failure_profiles,
            self.n_failures_requested or self.n_failure_profiles,
            self.n_success_profiles,
            self.n_successes_requested or self.n_success_profiles,
            self.ranked,
        )

    def top(self, n=5):
        """Return the best *n* predictor scores."""
        return self.ranked[:n]

    def best(self):
        """Return the single best predictor, or ``None``."""
        return self.ranked[0] if self.ranked else None

    def rank_of(self, predicate):
        """Dense rank of the best event satisfying *predicate*, or None."""
        return rank_of_event(self.ranked, predicate)

    def rank_of_line(self, lines, outcome=None):
        """Dense rank of the best branch event on one of *lines*."""
        return self.rank_of(branch_on_lines(lines, outcome))

    def rank_of_coherence(self, lines, state_tags=None):
        """Dense rank of the best coherence event on one of *lines*;
        empty or ``None`` *state_tags* match every coherence state."""
        return self.rank_of(coherence_on_lines(lines, state_tags))

    def describe(self, n=5):
        lines = ["%s diagnosis (%s scheme) @ %s" % (
            self.ring.upper() + "A", self.scheme, self.failure_site,
        )]
        if self.partial:
            confidence = self.confidence()
            lines.append(
                "  PARTIAL (%s): %d/%d failure and %d/%d success "
                "profiles collected; confidence %s" % (
                    self.stop_reason,
                    self.n_failure_profiles,
                    self.n_failures_requested or self.n_failure_profiles,
                    self.n_success_profiles,
                    self.n_successes_requested or self.n_success_profiles,
                    confidence["level"],
                ))
        lines.extend("  %s" % score for score in self.top(n))
        return "\n".join(lines)


class DiagnosisToolBase:
    """Shared LBRA/LCRA orchestration.

    Constructor keywords are validated against the class's ``OPTIONS``
    mapping (see :func:`repro.core.api.validate_options`): an option a
    tool does not take — ``lcr_selector`` on the LBR-based tool, say —
    raises :class:`TypeError` listing the accepted set instead of being
    silently ignored.

    ``executor`` optionally supplies a
    :class:`~repro.runtime.executor.CampaignExecutor`; campaign runs
    then execute on its worker pool and/or replay from its run cache.
    Results are bit-identical to the sequential path — runs are consumed
    strictly in plan order, so the stopping logic below replays the same
    decisions regardless of worker count.

    ``obs`` optionally pins an :class:`~repro.obs.Observability` that
    :meth:`run_diagnosis` installs for its duration; by default the
    currently installed bundle is used (the shared no-op one unless
    tracing was enabled).  ``seed`` offsets the campaign's plan streams,
    giving statistically independent repetitions of one diagnosis.
    """

    ring = None
    tool_name = "tool"

    #: accepted constructor options and their defaults
    OPTIONS = {
        "scheme": "reactive",
        "toggling": True,
        "executor": None,
        "obs": None,
        "seed": 0,
    }

    def __init__(self, workload, **options):
        options = validate_options(type(self).__name__, self.OPTIONS,
                                   options)
        scheme = options["scheme"]
        if scheme not in ("reactive", "proactive"):
            raise ValueError("unknown scheme %r" % (scheme,))
        self.workload = workload
        self.scheme = scheme
        self.toggling = options["toggling"]
        self.lcr_selector = options.get("lcr_selector", 2)
        self.executor = options["executor"]
        self.obs = options["obs"]
        self.seed = options["seed"]
        self.machine_config = MachineConfig(num_cores=workload.num_cores)
        #: stop reason when the active CampaignBudget cut a stream short
        self._stopped = {"reason": None}
        self._module = workload.build_module()
        self.failure_program = self._build_program(
            success_scheme="proactive" if scheme == "proactive" else "none",
        )

    # ------------------------------------------------------------------
    # Program construction
    # ------------------------------------------------------------------

    def _build_program(self, success_scheme, reactive_target=None):
        enhanced = enhance_logging(
            self._module,
            log_functions=self.workload.log_functions,
            rings=(self.ring,),
            lcr_selector=self.lcr_selector,
            success_scheme=success_scheme,
            reactive_target=reactive_target,
        )
        return compile_module(enhanced, toggling=self.toggling)

    # ------------------------------------------------------------------
    # Campaigns
    # ------------------------------------------------------------------

    def _runs(self, program, plan_fn, stream):
        """This tool's resumable *stream* of runs, from ``plan_fn(seed)``.

        See :func:`repro.runtime.harness.stream_runs`: journaled as
        ``<tool>.<stream>`` and keyed by the seed, with a budget stop
        left in ``self._stopped["reason"]``.
        """
        return stream_runs(
            program, self.workload, plan_fn, self.machine_config,
            (self.tool_name, stream), key=(self.seed,), start=self.seed,
            executor=self.executor, stopped=self._stopped)

    def _collect_failures(self, program, n_failures, max_attempts):
        statuses = []
        k = 0
        obs = get_obs()
        runs = self._runs(program, self.workload.failing_run_plan,
                          "failing")
        try:
            while len(statuses) < n_failures and k < max_attempts:
                run = next(runs, None)
                if run is None:
                    break
                if run.failed:
                    statuses.append(run.status)
                    obs.counter("campaign.runs_failed").inc()
                else:
                    obs.counter("campaign.runs_succeeded").inc()
                k += 1
        finally:
            runs.close()
        if len(statuses) < n_failures and self._stopped["reason"] is None:
            raise DiagnosisError(
                "only %d/%d failure runs manifested in %d attempts"
                % (len(statuses), n_failures, k)
            )
        return statuses

    def _collect_success_profiles(self, program, success_site_ids,
                                  n_successes, max_attempts):
        profiles = []
        statuses = []
        k = 0
        obs = get_obs()
        runs = self._runs(program, self.workload.passing_run_plan,
                          "passing")
        try:
            while len(profiles) < n_successes and k < max_attempts:
                run = next(runs, None)
                if run is None:
                    break
                k += 1
                if run.failed:
                    obs.counter("campaign.runs_failed").inc()
                    continue
                obs.counter("campaign.runs_succeeded").inc()
                profile = extract_profile(
                    program, run.status, self.ring,
                    site_kinds=SUCCESS_SITE_KINDS,
                    site_ids=success_site_ids,
                    outcome="success", run_index=k,
                )
                if profile is not None:
                    profiles.append(profile)
                    statuses.append(run.status)
        finally:
            runs.close()
        return profiles, statuses

    # ------------------------------------------------------------------
    # Diagnosis
    # ------------------------------------------------------------------

    def run_diagnosis(self, n_failures=10, n_successes=10,
                      max_attempts=None):
        """Run the full campaign and return a :class:`Diagnosis`.

        Runs under this tool's ``obs`` when one was given, the
        currently installed one otherwise, tagging the phases
        ``diagnose.<tool>`` → ``collect.failures`` / ``collect.successes``
        / ``rank``.  The finished diagnosis is recorded in the current
        run ledger (:mod:`repro.obs.ledger`; a no-op unless one is
        installed).
        """
        obs = self.obs if self.obs is not None else get_obs()
        started = time.perf_counter()
        with use(obs), obs.span("diagnose." + self.tool_name,
                                workload=self.workload.name,
                                scheme=self.scheme):
            diagnosis = self._run_diagnosis(obs, n_failures, n_successes,
                                            max_attempts)
        get_ledger().record_diagnosis(
            tool=self.tool_name,
            workload=self.workload,
            raw=diagnosis,
            seed=self.seed,
            params={"scheme": self.scheme, "toggling": self.toggling,
                    "n_failures": n_failures, "n_successes": n_successes},
            wall_seconds=time.perf_counter() - started,
            executor=self.executor,
            backend=self.machine_config.backend,
        )
        return diagnosis

    def _run_diagnosis(self, obs, n_failures, n_successes, max_attempts):
        cap = max_attempts if max_attempts is not None else \
            (n_failures + n_successes) * 20 + 50
        self._stopped["reason"] = None
        with obs.span("collect.failures", want=n_failures):
            failing = self._collect_failures(
                self.failure_program, n_failures, cap
            )
        failure_profiles = []
        for index, status in enumerate(failing):
            profile = extract_profile(
                self.failure_program, status, self.ring, run_index=index,
            )
            if profile is not None:
                failure_profiles.append(profile)
        if not failure_profiles:
            if self._stopped["reason"] is not None:
                # Budget ran out before a single failure manifested:
                # report the (empty) evidence instead of raising.
                return self._partial_diagnosis(
                    failing, n_failures, n_successes)
            raise DiagnosisError("no failure-site profiles collected")
        dominant = dominant_failure_site(
            self.failure_program, failing, self.ring
        )
        failure_site = site_by_id(self.failure_program, dominant)
        failure_profiles = [p for p in failure_profiles
                            if p.site_id == dominant]

        if self.scheme == "reactive":
            success_program, success_sites = self._reactive_success_program(
                failure_site, failing[0]
            )
        else:
            success_program = self.failure_program
            success_sites = self._proactive_success_sites(failure_site)
        with obs.span("collect.successes", want=n_successes):
            success_profiles, passing = self._collect_success_profiles(
                success_program, success_sites, n_successes, cap
            )
        with obs.span("rank"):
            ranked = rank_predictors(failure_profiles, success_profiles)
        success_site = site_by_id(success_program, min(success_sites)) \
            if success_sites else None
        return Diagnosis(
            ranked=ranked,
            failure_site=failure_site,
            success_site=success_site,
            n_failure_profiles=len(failure_profiles),
            n_success_profiles=len(success_profiles),
            scheme=self.scheme,
            ring=self.ring,
            failing_statuses=failing,
            passing_statuses=passing,
            failure_profiles=failure_profiles,
            success_profiles=success_profiles,
            partial=self._stopped["reason"] is not None,
            stop_reason=self._stopped["reason"],
            n_failures_requested=n_failures,
            n_successes_requested=n_successes,
        )

    def _partial_diagnosis(self, failing, n_failures, n_successes):
        """An honest empty result for a budget-stopped campaign."""
        return Diagnosis(
            ranked=[],
            failure_site=None,
            success_site=None,
            n_failure_profiles=0,
            n_success_profiles=0,
            scheme=self.scheme,
            ring=self.ring,
            failing_statuses=failing,
            passing_statuses=[],
            partial=True,
            stop_reason=self._stopped["reason"],
            n_failures_requested=n_failures,
            n_successes_requested=n_successes,
        )

    def diagnose_all(self, n_failures_per_site=8, n_successes=8,
                     max_attempts=None):
        """Diagnose *every* failure the workload exhibits, separately.

        Section 5.3, "Multiple failures": large software fails for many
        reasons; since each failure-run profile identifies its failure
        site, profiles are grouped by site and each group is diagnosed
        on its own.  Returns a dict mapping failure-site id to its
        :class:`Diagnosis`.

        Failing runs keep being drawn from ``failing_run_plan`` until
        every observed site has *n_failures_per_site* profiles (or the
        attempt budget runs out), so workloads whose failing plans
        rotate through several bugs are handled naturally.
        """
        obs = self.obs if self.obs is not None else get_obs()
        with use(obs), obs.span("diagnose_all." + self.tool_name,
                                workload=self.workload.name):
            return self._diagnose_all(n_failures_per_site, n_successes,
                                      max_attempts)

    def _diagnose_all(self, n_failures_per_site, n_successes,
                      max_attempts):
        cap = max_attempts if max_attempts is not None else \
            n_failures_per_site * 40 + 100
        self._stopped["reason"] = None
        by_site = {}
        statuses_by_site = {}
        attempts = 0
        runs = self._runs(self.failure_program,
                          self.workload.failing_run_plan, "failing")
        while attempts < cap:
            run = next(runs, None)
            if run is None:
                break
            attempts += 1
            if not run.failed:
                continue
            profile = extract_profile(
                self.failure_program, run.status, self.ring,
                run_index=attempts,
            )
            if profile is None:
                continue
            bucket = by_site.setdefault(profile.site_id, [])
            statuses_by_site.setdefault(profile.site_id, []) \
                .append(run.status)
            if len(bucket) < n_failures_per_site:
                bucket.append(profile)
            if by_site and all(len(b) >= n_failures_per_site
                               for b in by_site.values()) \
                    and attempts >= 2 * n_failures_per_site:
                break
        runs.close()
        diagnoses = {}
        for site_id, profiles in by_site.items():
            failure_site = site_by_id(self.failure_program, site_id)
            first = statuses_by_site[site_id][0]
            try:
                if self.scheme == "reactive":
                    program, success_sites = \
                        self._reactive_success_program(failure_site,
                                                       first)
                else:
                    program = self.failure_program
                    success_sites = \
                        self._proactive_success_sites(failure_site)
                success_profiles, passing = \
                    self._collect_success_profiles(
                        program, success_sites, n_successes, cap
                    )
            except DiagnosisError:
                success_profiles, passing = [], []
            diagnoses[site_id] = Diagnosis(
                ranked=rank_predictors(profiles, success_profiles),
                failure_site=failure_site,
                success_site=None,
                n_failure_profiles=len(profiles),
                n_success_profiles=len(success_profiles),
                scheme=self.scheme,
                ring=self.ring,
                failing_statuses=statuses_by_site[site_id],
                passing_statuses=passing,
                partial=self._stopped["reason"] is not None,
                stop_reason=self._stopped["reason"],
                n_failures_requested=n_failures_per_site,
                n_successes_requested=n_successes,
            )
        return diagnoses

    def _reactive_success_program(self, failure_site, first_failure):
        if failure_site.kind == "segv-handler":
            fault = first_failure.fault
            location = self.failure_program.debug_info.location_at(fault.pc)
            if location is None:
                raise DiagnosisError(
                    "cannot locate faulting statement at 0x%x" % fault.pc
                )
            target = ReactiveTarget(kind="segv", function=location.function,
                                    line=location.line)
        else:
            target = ReactiveTarget(kind="log", function=failure_site.function,
                                    line=failure_site.line)
        program = self._build_program(
            success_scheme="reactive", reactive_target=target
        )
        site_ids = {
            site.site_id for site in sites_of(program)
            if site.kind == "success"
        }
        if not site_ids:
            raise DiagnosisError(
                "reactive transformation produced no success site for %s"
                % (target,)
            )
        return program, site_ids

    def _proactive_success_sites(self, failure_site):
        if failure_site.kind == "segv-handler":
            raise DiagnosisError(
                "the proactive scheme cannot cover failures at unexpected "
                "locations (segmentation faults); use the reactive scheme"
            )
        site_ids = {
            site.site_id for site in sites_of(self.failure_program)
            if site.kind == "success"
            and site.paired_failure_site == failure_site.site_id
        }
        if not site_ids:
            # Fall back to success sites in the same function (unguarded
            # logging calls have no Figure 8 pairing).
            site_ids = {
                site.site_id for site in sites_of(self.failure_program)
                if site.kind == "success"
                and site.function == failure_site.function
            }
        if not site_ids:
            raise DiagnosisError(
                "no proactive success site pairs with %s" % (failure_site,)
            )
        return site_ids


class LbraTool(DiagnosisToolBase):
    """LBRA: automatic diagnosis of sequential-bug failures.

    Accepts the shared tool options only — in particular it rejects
    ``lcr_selector``, which configures the *coherence* ring LBRA never
    reads (pass it to :class:`~repro.core.lcra.LcraTool` instead).
    """

    ring = "lbr"
    tool_name = "lbra"


__all__ = ["Diagnosis", "DiagnosisError", "DiagnosisToolBase", "LbraTool"]
