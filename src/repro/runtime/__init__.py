"""Process running and experiment harness utilities.

* :mod:`repro.runtime.process` — build a fresh machine and run one program;
* :mod:`repro.runtime.workload` — the protocol connecting applications
  (the bug suite) to the diagnosis tools: how to build the program, how to
  drive failing and passing runs, and how to recognize a failure;
* :mod:`repro.runtime.harness` — run campaigns (N failing + M passing
  runs) and collect statuses/profiles;
* :mod:`repro.runtime.executor` — run campaign attempts in plan order
  and memoize finished runs in a content-addressed cache;
* :mod:`repro.runtime.resilience` — the fault-injection harness and the
  advisory file lock that keep the cache and the journals whole under
  crashes;
* :mod:`repro.runtime.checkpoint` — durable campaigns: crash-safe
  checkpoint journals with deterministic resume, the campaign
  supervisor/watchdog, and deadline/run-budget graceful degradation.
"""

from repro.runtime.process import PlanOutcome, execute_plan, run_program
from repro.runtime.workload import RunPlan, Workload
from repro.runtime.harness import (
    CampaignResult,
    CampaignShortfallError,
    CampaignShortfallWarning,
    RunRecord,
    ShortfallInfo,
    run_campaign,
)
from repro.runtime.executor import (
    CampaignExecutor,
    ExecutorStats,
    RunCache,
)
from repro.runtime.resilience import (
    FaultError,
    FaultPlan,
    FaultSpecError,
    FileLock,
    fault_point,
    use_plan,
)
from repro.runtime.checkpoint import (
    RESUMABLE_EXIT_CODE,
    CampaignBudget,
    CampaignInterrupted,
    CampaignSupervisor,
    CheckpointError,
    CheckpointJournal,
    CheckpointSession,
    use_budget,
    use_session,
    use_supervisor,
)

__all__ = [
    "CampaignBudget",
    "CampaignExecutor",
    "CampaignInterrupted",
    "CampaignResult",
    "CampaignShortfallError",
    "CampaignShortfallWarning",
    "CampaignSupervisor",
    "CheckpointError",
    "CheckpointJournal",
    "CheckpointSession",
    "ExecutorStats",
    "FaultError",
    "FaultPlan",
    "FaultSpecError",
    "FileLock",
    "PlanOutcome",
    "RESUMABLE_EXIT_CODE",
    "RunCache",
    "RunPlan",
    "RunRecord",
    "ShortfallInfo",
    "Workload",
    "execute_plan",
    "fault_point",
    "run_campaign",
    "run_program",
    "use_budget",
    "use_plan",
    "use_session",
    "use_supervisor",
]
