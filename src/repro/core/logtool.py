"""Shared machinery for the LBRLOG and LCRLOG tools."""

from dataclasses import dataclass

from repro.compiler.frontend import compile_module
from repro.lang.transform import enhance_logging
from repro.machine.cpu import MachineConfig
from repro.runtime.executor import CampaignExecutor
from repro.core.profiles import (
    FAILURE_SITE_KINDS,
    extract_profile,
    site_by_id,
)


@dataclass
class DecodedEntry:
    """One ring entry decoded against debug info."""

    position: int         # 1 = latest
    entry: object         # LbrEntry or LcrEntry
    event: object         # Event

    @property
    def line(self):
        return self.event.line

    @property
    def function(self):
        return self.event.function

    def __str__(self):
        return "[%2d] %s" % (self.position, self.event)


class LogToolBase:
    """Builds the log-enhanced program for a workload and runs it."""

    #: "lbr" or "lcr" — set by subclasses.
    ring = None

    def __init__(self, workload, toggling=True, lcr_selector=2,
                 register_segv_handler=True, ring_capacity=16,
                 executor=None):
        self.workload = workload
        self.toggling = toggling
        #: the CampaignExecutor runs go through (default: in process,
        #: no cache; results are identical — see repro.runtime.executor)
        self.executor = executor or CampaignExecutor()
        module = workload.build_module()
        enhanced = enhance_logging(
            module,
            log_functions=workload.log_functions,
            rings=(self.ring,),
            lcr_selector=lcr_selector,
            register_segv_handler=register_segv_handler,
        )
        self.program = compile_module(enhanced, toggling=toggling)
        self.machine_config = MachineConfig(
            num_cores=workload.num_cores,
            lbr_capacity=ring_capacity,
            lcr_capacity=ring_capacity,
        )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run_plan(self, plan):
        """Execute one :class:`RunPlan` against the enhanced program."""
        return self.executor.run_one(self.program, plan,
                                     self.machine_config).status

    def run_failing(self, k=0):
        """Execute the workload's k-th failing run plan."""
        return self.run_plan(self.workload.failing_run_plan(k))

    def run_passing(self, k=0):
        """Execute the workload's k-th passing run plan."""
        return self.run_plan(self.workload.passing_run_plan(k))

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def failure_snapshot(self, status):
        """Return (RunProfile, LoggingSite) for the run's failure profile,
        or (None, None) when the run never hit a failure site."""
        profile = extract_profile(
            self.program, status, self.ring,
            site_kinds=FAILURE_SITE_KINDS,
        )
        if profile is None:
            return None, None
        return profile, site_by_id(self.program, profile.site_id)

    def decode(self, profile):
        """Turn a RunProfile into positioned :class:`DecodedEntry` rows."""
        return [
            DecodedEntry(position=index + 1,
                         entry=profile.snapshot.entries[index],
                         event=profile.events[index])
            for index in range(len(profile.events))
        ]


def build_plain_program(workload, toggling=False):
    """Compile the workload *without* log enhancement (overhead baseline)."""
    return compile_module(workload.build_module(), toggling=toggling)
