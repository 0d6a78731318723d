"""CCI — cooperative concurrency-bug isolation.

Reimplementation of the CCI-Prev scheme: for every sampled access to
potentially shared memory, the predicate records whether the *previous*
access to the same location came from a different thread.  Maintaining
the previous-accessor shadow state on every access (sampled or not) is
what makes software CCI so expensive — the paper cites up to 10x
slowdowns; :func:`estimated_overhead` models that cost.
"""

from repro.baselines.base import BaselineToolBase, run_record
from repro.baselines.sampling import DEFAULT_SAMPLING_RATE, GeometricSampler
from repro.isa.layout import STACK_REGION_BASE

#: Modeled cost, in retired instructions, of maintaining the
#: previous-accessor shadow state at one shared-memory access (hash
#: lookup + synchronization on the shadow table).
SHADOW_COST = 18.0
#: Modeled extra cost of recording one sample.
SAMPLE_COST = 25.0


class CciTool(BaselineToolBase):
    """CCI-Prev over one workload."""

    tool_name = "CCI"

    OPTIONS = dict(BaselineToolBase.OPTIONS,
                   sampling_rate=DEFAULT_SAMPLING_RATE)

    def __init__(self, workload, **options):
        super().__init__(workload, **options)
        self.sampling_rate = self.options["sampling_rate"]

    def record_events(self, machine, events):
        last_accessor = {}

        def observer(thread, pc, access, state, address):
            # CCI instruments potentially shared memory only (stack
            # locations are thread-private).
            if address >= STACK_REGION_BASE:
                return
            # The shadow state is kept on every access, sampled or not,
            # so whether the access is remote does not depend on the
            # sampling: it is recorded here.
            previous = last_accessor.get(address)
            last_accessor[address] = thread.tid
            events.append((pc, access,
                           previous is not None and previous != thread.tid))

        machine.coherence_observers.append(observer)

    def derive(self, recording, run_seed):
        sampler = GeometricSampler(rate=self.sampling_rate,
                                   seed=(self.seed, run_seed).__hash__())
        true_predicates = set()
        observed_sites = set()
        debug = self.program.debug_info
        predicates = {}
        events = recording.events
        samples = 0
        for index in sampler.positions(len(events)):
            samples += 1
            pc, access, remote = events[index]
            location = debug.location_at(pc)
            if location is None:
                continue
            site = "%s:%s" % (location, access.value)
            predicate_id = "%s:%s" % (site, "remote" if remote else "local")
            true_predicates.add(predicate_id)
            observed_sites.add(site)
            for flavor in ("remote", "local"):
                predicates.setdefault(
                    "%s:%s" % (site, flavor),
                    (site, location.function, location.line, flavor),
                )
        return run_record(recording, true_predicates, observed_sites,
                          events=len(events), samples=samples,
                          predicates=predicates)

    def estimated_overhead(self):
        """Modeled run-time overhead fraction of CCI's instrumentation."""
        if self.retired_total == 0:
            return 0.0
        cost = SHADOW_COST * self.events_observed \
            + SAMPLE_COST * self.samples_taken
        return cost / self.retired_total
