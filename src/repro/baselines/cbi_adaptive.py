"""CBI-adaptive — adaptive bug isolation (Arumuga Nainar & Liblit).

Section 8 of the paper: "CBI-adaptive iteratively changes sampling
locations based on the failure location and the diagnosis results from
earlier iterations.  Without knowing the exact control-flow leading to
failures, CBI-adaptive needs hundreds of iterations and evaluates about
40% of all program predicates before it finishes failure diagnosis."

The reimplementation: predicates (conditional-branch sites) are
instrumented *fully* but only a small active set at a time.  The first
wave is the function containing the failure; each further iteration —
which in production means shipping a new binary and waiting for
failures to recur — expands one hop outward along the static call
graph.  Diagnosis finishes when a conclusive predictor emerges.

The contrast with LBRA is structural: the LBR hands over the exact
control flow leading to the failure in the very first failure report,
so no iterative search is needed at all.
"""

from dataclasses import dataclass, field

from repro.baselines.base import BaselineToolBase
from repro.baselines.scoring import RunObservation, liblit_rank, rank_of_line
from repro.isa.instructions import Opcode
from repro.runtime.process import execute_plan

#: A predictor is conclusive when it separates the populations this
#: clearly (Increase threshold) with this much support.
CONCLUSIVE_INCREASE = 0.3
CONCLUSIVE_SUPPORT = 0.6


@dataclass
class AdaptiveOutcome:
    """Result of an adaptive-isolation campaign."""

    ranked: list
    iterations: int
    predicates_total: int
    predicates_evaluated: int
    converged: bool
    wave_functions: list = field(default_factory=list)

    @property
    def fraction_evaluated(self):
        if self.predicates_total == 0:
            return 0.0
        return self.predicates_evaluated / self.predicates_total

    def rank_of_line(self, lines):
        return rank_of_line(self.ranked, lines)


class CbiAdaptiveTool(BaselineToolBase):
    """Adaptive predicate selection over one workload.

    Accepts no ``executor`` option: iterations are inherently
    sequential — each wave's predicate set depends on the previous
    wave's diagnosis, so runs cannot be speculated ahead.
    """

    tool_name = "CBI-adaptive"

    OPTIONS = {"seed": 0, "obs": None, "runs_per_iteration": 20}

    def __init__(self, workload, **options):
        super().__init__(workload, **options)
        self.runs_per_iteration = self.options["runs_per_iteration"]
        self._sites_by_function = self._index_sites()
        self._call_graph = self._build_call_graph()
        self._active_sites = set()

    # ------------------------------------------------------------------
    # Static structure
    # ------------------------------------------------------------------

    def _index_sites(self):
        """function name -> set of conditional-branch site ids."""
        sites = {}
        for instr in self.program.instructions:
            if instr.opcode not in (Opcode.JZ, Opcode.JNZ):
                continue
            branch = self.program.debug_info.branch_at(instr.address)
            if branch is None or branch.outcome is None:
                continue
            sites.setdefault(branch.location.function, set()) \
                .add(branch.branch_id)
        return sites

    def _build_call_graph(self):
        """Undirected adjacency over functions (callers + callees)."""
        graph = {name: set() for name in self.program.functions}
        for instr in self.program.instructions:
            if instr.opcode is not Opcode.CALL:
                continue
            caller = self.program.function_at(instr.address)
            callee = self.program.function_at(instr.target)
            if caller is None or callee is None:
                continue
            graph[caller.name].add(callee.name)
            graph[callee.name].add(caller.name)
        return graph

    def _failure_function(self):
        """Find where the workload fails (one observed failure report)."""
        for k in range(20):
            status = execute_plan(self.program,
                                  self.workload.failing_run_plan(k),
                                  self.machine_config).status
            if not self.workload.is_failure(status):
                continue
            if status.fault is not None:
                location = self.program.debug_info.location_at(
                    status.fault.pc
                )
                if location is not None:
                    return location.function
            break
        # Fall back to the functions calling the logging functions.
        log_entries = {
            self.program.function_named(name).entry
            for name in self.workload.log_functions
            if name in self.program.functions
        }
        for instr in self.program.instructions:
            if instr.opcode is Opcode.CALL and instr.target in log_entries:
                function = self.program.function_at(instr.address)
                if function is not None:
                    return function.name
        return self.program.entry

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def attach(self, machine, run_seed):
        active = self._active_sites
        tags = {
            instr.address: self.program.debug_info.branches[instr.address]
            for instr in self.program.instructions
            if instr.opcode in (Opcode.JZ, Opcode.JNZ)
            and instr.address in self.program.debug_info.branches
        }
        true_predicates = set()
        observed_sites = set()

        def observer(thread, instr, taken, target):
            tag = tags.get(instr.address)
            if tag is None or tag.branch_id not in active:
                return
            self.events_observed += 1
            outcome = tag.outcome if taken else (not tag.outcome)
            true_predicates.add(tag.branch_id
                                + ("=T" if outcome else "=F"))
            observed_sites.add(tag.branch_id)

        machine.branch_observers.append(observer)

        def finish(failed):
            return RunObservation(
                failed=failed,
                true_predicates=frozenset(true_predicates),
                observed_sites=frozenset(observed_sites),
            )

        return finish

    def predicate_info(self):
        info = {}
        for function, sites in self._sites_by_function.items():
            for site in sites:
                line = int(site.split(":")[1].split("#")[0])
                for suffix in ("=T", "=F"):
                    info[site + suffix] = (site, function, line, suffix)
        return info

    # ------------------------------------------------------------------
    # The adaptive loop
    # ------------------------------------------------------------------

    def _expansion_waves(self, start_function):
        """Yield function names in BFS order from the failure function."""
        seen = {start_function}
        frontier = [start_function]
        while frontier:
            for name in frontier:
                yield name
            next_frontier = []
            for name in frontier:
                for neighbor in sorted(self._call_graph.get(name, ())):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier

    def run_diagnosis(self, max_iterations=50):
        """Run the adaptive campaign; returns an AdaptiveOutcome."""
        from repro.obs import get_obs, use

        obs = self.obs if self.obs is not None else get_obs()
        with use(obs), obs.span("diagnose.cbi-adaptive",
                                workload=self.workload.name):
            return self._run_adaptive(obs, max_iterations)

    def _run_adaptive(self, obs, max_iterations):
        total_sites = sum(len(s) for s in
                          self._sites_by_function.values())
        waves = self._expansion_waves(self._failure_function())
        observations = []
        ranked = []
        self._active_sites = set()
        iterations = 0
        converged = False
        wave_functions = []
        for function in waves:
            new_sites = self._sites_by_function.get(function, set())
            self._active_sites |= new_sites
            wave_functions.append(function)
            if not self._active_sites:
                continue
            iterations += 1
            # One iteration = one redeployment: fresh runs with the
            # current predicate set fully instrumented.
            with obs.span("iteration", n=iterations, function=function):
                for k in range(self.runs_per_iteration):
                    failed, observation = self._run_once(
                        self.workload.failing_run_plan(k), k
                    )
                    observations.append(observation)
                    failed, observation = self._run_once(
                        self.workload.passing_run_plan(k), k
                    )
                    observations.append(observation)
                ranked = liblit_rank(observations,
                                     self.predicate_info())
            if self._is_conclusive(ranked, observations):
                converged = True
                break
            if iterations >= max_iterations:
                break
        return AdaptiveOutcome(
            ranked=ranked,
            iterations=iterations,
            predicates_total=total_sites,
            predicates_evaluated=len(self._active_sites),
            converged=converged,
            wave_functions=wave_functions,
        )

    @staticmethod
    def _is_conclusive(ranked, observations):
        if not ranked:
            return False
        failures = sum(1 for o in observations if o.failed)
        best = ranked[0]
        return (best.increase >= CONCLUSIVE_INCREASE
                and best.failure_true >= CONCLUSIVE_SUPPORT * failures
                and best.success_true == 0)
