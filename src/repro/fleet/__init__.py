"""Fleet-scale failure triage (ROADMAP item 1).

The paper diagnoses production-run failures; a production deployment
never sees "one known bug per campaign" — it sees a stream of failure
reports from a fleet of machines running a mixed population of
applications and bugs.  This package is the production front half:

* :mod:`repro.fleet.stream` — a deterministic simulated report stream:
  failure reports (exit status + LBR/LCR ring snapshots at the failure
  site) drawn from a seeded mix of the 31 corpus bugs under mixed
  workloads/plan seeds;
* :mod:`repro.fleet.signature` — the *fault signature*: a stable
  hash/shape over the ring contents near the failure, the failure
  site, and the exit status — the dedup/triage key;
* :mod:`repro.fleet.aggregate` — incremental rank aggregation: per-event
  contingency counts updated O(1) per arriving run, ranks snapshotted
  on demand, so convergence is observable run by run instead of only at
  batch end;
* :mod:`repro.fleet.triage` — clustering by signature and one diagnosis
  campaign per cluster, dispatched through the pluggable tool registry
  (:func:`repro.core.api.get_tool`) over the shared
  :class:`~repro.runtime.executor.CampaignExecutor` and recorded in the
  run ledger.

Everything is deterministic given the stream seed: ``repro triage
--reports 500`` renders byte-for-byte the same table — and appends
ledger entries with the same content-keyed ids — on either VM backend
and at any cache state.  See ``docs/fleet.md``.
"""

from repro.fleet.signature import FaultSignature, extract_signature
from repro.fleet.stream import (
    FailureReport,
    FleetShortfallWarning,
    FleetStream,
    StreamShortfall,
)
from repro.fleet.triage import TriageResult, triage_reports

__all__ = [
    "FailureReport",
    "FaultSignature",
    "FleetShortfallWarning",
    "FleetStream",
    "StreamShortfall",
    "TriageResult",
    "extract_signature",
    "triage_reports",
]
