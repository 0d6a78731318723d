"""Cluster failure reports by fault signature and diagnose each once.

The triage pipeline, mirroring the production flow sketched in
Section 7 of the paper (collect failure reports → sample → diagnose):

1. extract the :class:`~repro.fleet.signature.FaultSignature` of every
   incoming report and group reports by signature digest — the
   clustering never reads the ground-truth label;
2. for each cluster, dispatch one diagnosis campaign through the
   pluggable tool registry (:func:`repro.core.api.get_tool`): LBR-ring
   reports go to ``lbra``, LCR-ring reports to ``lcra``.  All clusters
   share one :class:`~repro.runtime.executor.CampaignExecutor`, so two
   signatures of one application reuse each other's cached runs;
3. replay each campaign's profiles (in arrival order — failures then
   successes, exactly as the campaign collected them) through an
   :class:`~repro.fleet.aggregate.IncrementalRanker`, snapshotting the
   rank of the true root cause after every run: the convergence curve;
4. record one content-keyed ledger entry per cluster (kind
   ``"triage"``, workload ``sig:<digest>``) plus a fleet summary entry,
   so ``repro obs trends --view convergence`` tracks per-signature
   convergence across invocations.

Determinism: cluster membership is a pure function of the reports;
clusters are diagnosed in (size-descending, digest) order with
campaign seed 0; every ledger field is deterministic.  The whole
pipeline therefore produces the same table and the same ledger entry
ids on either VM backend and at any cache state.
"""

import time
from dataclasses import dataclass, field

from repro.bugs.registry import get_bug
from repro.core.api import get_tool
from repro.core.lbra import DiagnosisError
from repro.core.statistics import branch_on_lines, coherence_on_lines
from repro.experiments.report import ExperimentResult, traced
from repro.fleet.aggregate import IncrementalRanker
from repro.fleet.signature import (
    DEFAULT_DEPTH,
    DEFAULT_GRANULARITY,
    extract_signature,
)
from repro.obs import get_obs
from repro.obs.ledger import get_ledger
from repro.obs.timeseries import build_snapshot, publish_snapshot
from repro.obs.watch import DEFAULT_INTERVAL
from repro.runtime.executor import CampaignExecutor

#: ring kind -> registered diagnosis tool dispatched for its clusters.
RING_TOOLS = {"lbr": "lbra", "lcr": "lcra"}


@dataclass
class SignatureCluster:
    """One signature's reports plus its diagnosis campaign outcome."""

    signature: object                 # FaultSignature
    reports: list                     # FailureReports, arrival order
    tool: str = None                  # registry name dispatched
    diagnosis: object = None          # DiagnosisReport (None on error)
    error: str = None                 # DiagnosisError text, if any
    #: (runs_seen, rank-of-true-cause) after each arriving profile
    convergence: list = field(default_factory=list)
    true_rank: int = None             # final rank (label known)
    runs_to_rank1: int = None         # runs until rank 1 *and stays 1*

    @property
    def digest(self):
        return self.signature.digest

    @property
    def app(self):
        return self.reports[0].app

    @property
    def ring(self):
        return self.reports[0].ring

    @property
    def size(self):
        return len(self.reports)

    def top_event(self):
        """The best-ranked predictor event id, or ``None``."""
        if self.diagnosis is None or not self.diagnosis.ranked:
            return None
        return self.diagnosis.ranked[0]["event_id"]


def _true_cause_predicate(workload):
    """Event predicate for the registered root cause of *workload*.

    Built as :meth:`Diagnosis.rank_of_line` (sequential: root-cause
    branch, any outcome — Table 6 semantics) and
    :meth:`Diagnosis.rank_of_coherence` (concurrency: FPE coherence
    classes on the root-cause lines — Table 7 semantics) build theirs.
    """
    if workload.category == "concurrency":
        return coherence_on_lines(workload.root_cause_lines,
                                  workload.fpe_state_tags)
    return branch_on_lines(workload.root_cause_lines)


def _replay_convergence(cluster, workload):
    """Populate the cluster's convergence curve from its campaign.

    Replays the retained profiles through an incremental ranker in the
    order the campaign collected them; the final snapshot equals the
    batch ranking by construction (asserted in tests/fleet).

    Telemetry: each replayed run is a deterministic progress point —
    one logical-clock tick, one ``fleet.runs`` count, and one
    ``fleet.rank_of_true_cause.<digest>`` gauge sample — so the
    per-signature convergence trajectory is a deterministic series.
    """
    metrics = get_obs().metrics
    raw = cluster.diagnosis.raw
    predicate = _true_cause_predicate(workload)
    ranker = IncrementalRanker()
    curve = []
    rank_series = metrics.gauge(
        "fleet.rank_of_true_cause.%s" % cluster.digest)
    runs_series = metrics.counter("fleet.runs")
    for profile in list(raw.failure_profiles) + list(raw.success_profiles):
        ranker.add(profile)
        rank = ranker.rank_of(predicate)
        metrics.tick()
        runs_series.inc()
        rank_series.set(rank)
        curve.append((ranker.runs_seen, rank))
    cluster.convergence = curve
    cluster.true_rank = curve[-1][1] if curve else None
    # Convergence point: the earliest prefix after which the true cause
    # holds rank 1 through the end of the campaign.
    runs_to_rank1 = None
    for runs_seen, rank in reversed(curve):
        if rank == 1:
            runs_to_rank1 = runs_seen
        else:
            break
    cluster.runs_to_rank1 = runs_to_rank1
    metrics.gauge(
        "fleet.runs_to_rank1.%s" % cluster.digest).set(runs_to_rank1)


def cluster_reports(reports, depth=DEFAULT_DEPTH,
                    granularity=DEFAULT_GRANULARITY):
    """Group *reports* into :class:`SignatureCluster`\\ s by signature.

    Returns clusters sorted by (size descending, digest) — the
    dispatch and display order.
    """
    clusters = {}
    for report in reports:
        signature = extract_signature(
            report.program, report.status, report.ring,
            depth=depth, granularity=granularity,
        )
        cluster = clusters.get(signature.digest)
        if cluster is None:
            cluster = SignatureCluster(signature=signature, reports=[])
            clusters[signature.digest] = cluster
        cluster.reports.append(report)
    return sorted(clusters.values(),
                  key=lambda c: (-c.size, c.digest))


@dataclass
class TriageResult:
    """Outcome of one triage pass over a report stream."""

    n_reports: int
    clusters: list                    # SignatureClusters, display order
    seed: int = None                  # stream seed, for the ledger
    params: dict = field(default_factory=dict)
    snapshot_published: bool = False  # the final snapshot landed

    @property
    def n_clusters(self):
        return len(self.clusters)

    def labeled(self):
        """Clusters whose true-cause rank is known (label available)."""
        return [c for c in self.clusters if c.true_rank is not None]

    def rank1(self):
        """Labeled clusters whose true cause is ranked #1."""
        return [c for c in self.clusters if c.true_rank == 1]

    def table(self):
        """Render the per-cluster triage table."""
        rows = []
        for cluster in self.clusters:
            dispatched = 0
            if cluster.diagnosis is not None:
                runs = cluster.diagnosis.runs_used
                dispatched = runs["failures"] + runs["successes"]
            rows.append([
                cluster.digest,
                cluster.app,
                cluster.ring,
                cluster.size,
                cluster.tool or "-",
                dispatched,
                cluster.top_event() or
                (cluster.error and "error: %s" % cluster.error) or "-",
                cluster.true_rank if cluster.true_rank is not None
                else "-",
                cluster.runs_to_rank1 if cluster.runs_to_rank1 is not None
                else "-",
            ])
        labeled = self.labeled()
        notes = [
            "%d reports clustered into %d signatures"
            % (self.n_reports, self.n_clusters),
            "true root cause ranked #1 for %d/%d labeled clusters"
            % (len(self.rank1()), len(labeled)),
            "rank1@ = campaign runs until the true cause reaches rank 1 "
            "and keeps it",
        ]
        return ExperimentResult(
            name="triage",
            headers=["signature", "app", "ring", "reports", "tool",
                     "runs", "top predictor", "true rank", "rank1@"],
            rows=rows,
            title="Fleet triage by fault signature",
            notes=notes,
        )


def _diagnose_cluster(cluster, runs, executor, obs):
    """Dispatch one cluster's diagnosis campaign via the registry."""
    workload = get_bug(cluster.app)
    tool_name = RING_TOOLS[cluster.ring]
    cluster.tool = tool_name
    adapter = get_tool(tool_name)(
        workload, executor=executor, scheme="reactive", seed=0,
    )
    # The reports ran the tool's reactive failure program, built from
    # the module the stream parsed: reuse both.
    adapter.tool.failure_program = cluster.reports[0].program
    adapter.tool.module = cluster.reports[0].module
    try:
        with obs.timer("stage.campaign.seconds"):
            cluster.diagnosis = adapter.run_diagnosis(runs, runs)
    except DiagnosisError as error:
        cluster.error = str(error)
        obs.counter("fleet.triage.campaign_errors").inc()
        return
    obs.counter("fleet.triage.campaigns").inc()
    with obs.timer("stage.replay.seconds"):
        _replay_convergence(cluster, workload)


def _record_cluster(cluster, result):
    """Append one content-keyed ledger entry for a diagnosed cluster."""
    quality = None
    runs = None
    if cluster.diagnosis is not None:
        quality = {
            "true_rank": cluster.true_rank,
            "runs_to_rank1": cluster.runs_to_rank1,
            "top_predictor": cluster.top_event(),
            "convergence": [list(point) for point in cluster.convergence],
        }
        runs = dict(cluster.diagnosis.runs_used)
        backend = cluster.diagnosis.campaign.get("backend")
    else:
        quality = {"error": cluster.error}
        backend = None
    return get_ledger().append(
        kind="triage",
        tool=cluster.tool,
        workload="sig:%s" % cluster.digest,
        seed=result.seed,
        params=dict(result.params, app=cluster.app, ring=cluster.ring,
                    reports=cluster.size),
        quality=quality,
        runs=runs,
        backend=backend,
        timings={},
    )


@traced("triage")
def triage_reports(reports, runs=10, depth=DEFAULT_DEPTH,
                   granularity=DEFAULT_GRANULARITY, executor=None,
                   seed=None, snapshot_path=None):
    """Triage *reports*: cluster by signature, diagnose each cluster.

    *runs* is the per-cluster campaign size (failure and success runs
    each); *executor* (default: a fresh ``CampaignExecutor()``) is
    shared across all clusters so their campaigns draw from one run
    cache.  Returns a :class:`TriageResult`.

    When *snapshot_path* is given, a telemetry snapshot is published
    atomically there once up front, after a diagnosed cluster when at
    least ``DEFAULT_INTERVAL`` seconds (``repro obs watch``'s default
    poll) have passed since the last publication, and marked
    ``complete`` at the end — the live feed ``repro obs watch`` tails.
    Publication is best-effort; ``TriageResult.snapshot_published``
    says whether the final, complete snapshot landed.
    """
    executor = executor or CampaignExecutor()
    obs = get_obs()
    metrics = obs.metrics
    reports = list(reports)
    started = time.perf_counter()
    with obs.span("triage.cluster", reports=len(reports)), \
            metrics.timer("stage.cluster.seconds"):
        clusters = cluster_reports(reports, depth=depth,
                                   granularity=granularity)
    metrics.counter("fleet.triage.reports").inc(len(reports))
    metrics.counter("fleet.triage.clusters").inc(len(clusters))
    metrics.gauge("fleet.clusters").set(len(clusters))
    result = TriageResult(
        n_reports=len(reports),
        clusters=clusters,
        seed=seed,
        params={"runs": runs, "depth": depth,
                "granularity": granularity},
    )

    published_at = None

    def publish(done, complete=False):
        # Each rename onto the previous snapshot can cost tens of
        # milliseconds of filesystem writeback, so intermediate frames
        # go out no faster than a watcher polls for them.
        nonlocal published_at
        if not snapshot_path:
            return False
        now = time.perf_counter()
        if not complete and published_at is not None \
                and now - published_at < DEFAULT_INTERVAL:
            return False
        published_at = now
        return publish_snapshot(snapshot_path, build_snapshot(
            metrics,
            fleet={"reports": result.n_reports,
                   "clusters": result.n_clusters,
                   "diagnosed": done},
            executor=executor.stats.to_dict(),
            wall={"elapsed_seconds": round(now - started, 6)},
            complete=complete,
        ))

    publish(0)
    for done, cluster in enumerate(clusters, 1):
        with obs.span("triage.campaign", signature=cluster.digest,
                      app=cluster.app):
            _diagnose_cluster(cluster, runs, executor, obs)
        with metrics.timer("stage.record.seconds"):
            _record_cluster(cluster, result)
        publish(done)
    labeled = result.labeled()
    get_ledger().append(
        kind="triage",
        tool=None,
        workload="fleet",
        seed=seed,
        params=result.params,
        quality={
            "reports": result.n_reports,
            "clusters": result.n_clusters,
            "labeled": len(labeled),
            "rank1": len(result.rank1()),
        },
        runs={"campaigns": sum(1 for c in clusters if c.diagnosis)},
        timings={"triage_seconds": time.perf_counter() - started},
    )
    result.snapshot_published = publish(len(clusters), complete=True)
    return result


__all__ = [
    "RING_TOOLS",
    "SignatureCluster",
    "TriageResult",
    "cluster_reports",
    "triage_reports",
]
