"""PBI — production-run bug isolation via hardware performance counters.

Reimplementation of the paper's own prior work (Arulraj et al., ASPLOS
2013), the strongest baseline for concurrency failures: coherence events
counted by the PMU are sampled through counter-overflow interrupts, and
each sample contributes a ``(pc, access, observed MESI state)``
predicate.  Because the PMU samples every core, PBI observes
failure-predicting events even in non-failure threads (it diagnoses the
MySQL1 WRW violation that LCR, read only from the failure thread, cannot)
— at the price of needing failures to occur hundreds of times.
"""

from repro.baselines.base import BaselineToolBase
from repro.baselines.scoring import RunObservation

#: Default counter-overflow sampling period, in coherence events.
DEFAULT_SAMPLE_PERIOD = 100
#: Modeled cost, in retired instructions, of one overflow interrupt.
#: Scaled to the simulator's short runs: the miniatures retire a few
#: thousand instructions where real benchmarks retire billions, so the
#: absolute interrupt cost is shrunk proportionally to keep the modeled
#: overhead fraction representative.
INTERRUPT_COST = 50.0


class PbiTool(BaselineToolBase):
    """PBI over one workload."""

    tool_name = "PBI"

    OPTIONS = dict(BaselineToolBase.OPTIONS,
                   sample_period=DEFAULT_SAMPLE_PERIOD)

    def __init__(self, workload, **options):
        super().__init__(workload, **options)
        self.sample_period = self.options["sample_period"]
        self._predicates = {}

    def attach(self, machine, run_seed):
        true_predicates = set()
        observed_sites = set()
        debug = self.program.debug_info
        predicates = self._predicates

        def hook(pc, access, state):
            self.samples_taken += 1
            location = debug.location_at(pc)
            if location is None:
                return
            site = "%s:%s" % (location, access.value)
            predicate_id = "%s:%s@%s" % (site, access.value, state.letter)
            true_predicates.add(predicate_id)
            observed_sites.add(site)
            predicates.setdefault(
                predicate_id,
                (site, location.function, location.line,
                 "%s@%s" % (access.value, state.letter)),
            )

        # Stagger the first overflow per core so samples do not align.
        for index, core in enumerate(machine.cores):
            core.counters.set_sample_hook(self.sample_period, hook)
            core.counters._sample_countdown = 1 + (
                (run_seed + index * 7) % self.sample_period
            )

        def finish(failed):
            for core in machine.cores:
                self.events_observed += core.counters.total()
            return RunObservation(
                failed=failed,
                true_predicates=frozenset(true_predicates),
                observed_sites=frozenset(observed_sites),
            )

        return finish

    def predicate_info(self):
        return dict(self._predicates)

    def estimated_overhead(self):
        """Modeled overhead: counting is free; interrupts cost."""
        if self.retired_total == 0:
            return 0.0
        return INTERRUPT_COST * self.samples_taken / self.retired_total
