"""CBI — cooperative bug isolation with sampled branch predicates.

Reimplementation of the baseline of Liblit et al. the paper compares
against: every source-level conditional branch is a predicate site; the
instrumentation observes outcomes with geometric 1/100 sampling; the
Failure/Context/Increase/Importance model ranks predicates.

Two fidelity notes from the paper's evaluation:

* CBI's source-level instrumentation supports C but not C++ applications
  (Table 6 reports "N/A" for Cppcheck and PBZIP) — reproduced via the
  workload's ``language`` attribute;
* CBI pays the sampling infrastructure cost on every branch, modeled by
  :func:`estimated_overhead` (the paper measures ≈15% mean, up to 43%).
"""

from repro.baselines.base import BaselineToolBase
from repro.baselines.sampling import DEFAULT_SAMPLING_RATE, GeometricSampler
from repro.isa.instructions import Opcode

#: Modeled cost, in retired instructions, of CBI's instrumentation at one
#: executed branch site (countdown fast path plus the surrounding
#: bookkeeping CBI compiles in).  Calibrated so that, at the simulator's
#: instruction mix, CBI's modeled overhead lands in the ~15% mean the
#: paper measures (Section 7.2).
CHECK_COST = 7.0
#: Modeled cost of taking one sample (slow path: record + countdown reset).
SAMPLE_COST = 20.0


class BaselineUnsupportedError(Exception):
    """The baseline cannot be applied to this workload."""


class CbiTool(BaselineToolBase):
    """CBI with branch predicates over one workload."""

    tool_name = "CBI"

    OPTIONS = dict(BaselineToolBase.OPTIONS,
                   sampling_rate=DEFAULT_SAMPLING_RATE)

    def __init__(self, workload, **options):
        if workload.language == "cpp":
            raise BaselineUnsupportedError(
                "CBI's instrumentation framework does not support C++ "
                "applications (%s)" % workload.name
            )
        super().__init__(workload, **options)
        self.sampling_rate = self.options["sampling_rate"]
        self._conditional_tags = {
            instr.address: self.program.debug_info.branches[instr.address]
            for instr in self.program.instructions
            if instr.opcode in (Opcode.JZ, Opcode.JNZ)
            and instr.address in self.program.debug_info.branches
            and self.program.debug_info.branches[instr.address].outcome
            is not None
        }

    def attach(self, machine, run_seed):
        from repro.baselines.scoring import RunObservation

        sampler = GeometricSampler(rate=self.sampling_rate,
                                   seed=(self.seed, run_seed).__hash__())
        true_predicates = set()
        observed_sites = set()
        tags = self._conditional_tags

        def observer(thread, instr, taken, target):
            tag = tags.get(instr.address)
            if tag is None:
                return
            self.events_observed += 1
            if not sampler.should_sample():
                return
            outcome = tag.outcome if taken else (not tag.outcome)
            suffix = "=T" if outcome else "=F"
            true_predicates.add(tag.branch_id + suffix)
            observed_sites.add(tag.branch_id)

        machine.branch_observers.append(observer)

        def finish(failed):
            self.samples_taken += sampler.samples
            return RunObservation(
                failed=failed,
                true_predicates=frozenset(true_predicates),
                observed_sites=frozenset(observed_sites),
            )

        return finish

    def predicate_info(self):
        info = {}
        for tag in self._conditional_tags.values():
            for outcome, suffix in ((True, "=T"), (False, "=F")):
                info[tag.branch_id + suffix] = (
                    tag.branch_id,
                    tag.location.function,
                    tag.location.line,
                    suffix,
                )
        return info

    def estimated_overhead(self):
        """Modeled run-time overhead fraction of CBI's instrumentation."""
        if self.retired_total == 0:
            return 0.0
        cost = CHECK_COST * self.events_observed \
            + SAMPLE_COST * self.samples_taken
        return cost / self.retired_total
