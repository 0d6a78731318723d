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

from repro.baselines.base import BaselineToolBase, run_record
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


def branch_events(tags):
    """branch address -> the event a tagged conditional branch records
    when taken and when not taken: ``(predicate id, site id)``, where
    the predicate says which way the branch's source condition went."""
    events = {}
    for address, tag in tags.items():
        true, false = tag.branch_id + "=T", tag.branch_id + "=F"
        taken, fallthrough = (true, false) if tag.outcome else (false, true)
        events[address] = ((taken, tag.branch_id),
                           (fallthrough, tag.branch_id))
    return events


def record_branches(machine, table, events):
    """Append to *events*, in order, the :func:`branch_events` entry of
    each branch in *table* that *machine* executes."""
    def observer(thread, instr, taken, target):
        pair = table.get(instr.address)
        if pair is not None:
            events.append(pair[0] if taken else pair[1])

    machine.branch_observers.append(observer)


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
        self._branch_events = branch_events(self._conditional_tags)

    def record_events(self, machine, events):
        record_branches(machine, self._branch_events, events)

    def derive(self, recording, run_seed):
        sampler = GeometricSampler(rate=self.sampling_rate,
                                   seed=(self.seed, run_seed).__hash__())
        events = recording.events
        sampled = [events[i] for i in sampler.positions(len(events))]
        return run_record(recording,
                          [predicate for predicate, _site in sampled],
                          [site for _predicate, site in sampled],
                          events=len(events), samples=len(sampled))

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
