"""Benchmarks fleet triage: the 500-report mixed-bug acceptance run.

One timed pass over the full production pipeline — generate a mixed
stream of failure reports from all 31 corpus bugs, cluster by fault
signature, and dispatch one diagnosis campaign per cluster through the
tool registry on a shared, disk-cached executor.  The assertions pin the
fleet-scale quality contract:

* exactly one cluster per distinct application in the stream (no
  cross-bug merges at the default depth/granularity);
* the true root cause ranks #1 for every bug the single-bug Table 6/7
  campaigns diagnose at rank 1 (23 of 31: Table 6 scores 16 of 20
  sequential bugs — the four ``X n*`` rows only find a *related*
  branch — and Table 7 diagnoses 7 of 11 concurrency bugs);
* a second triage pass over the same stream replays the first pass's
  runs from the executor cache.

``REPRO_FLEET_REPORTS`` shrinks the stream for a quick smoke pass
(default 500, the acceptance setting; small streams may not draw
every bug, so the contract is asserted per application covered).
"""

import os

from conftest import run_once

from repro.fleet import FleetStream, triage_reports
from repro.runtime.executor import CampaignExecutor

#: Bugs the paper's own single-bug campaigns cannot place at rank 1:
#: Table 6's ``X n*`` rows (only a root-cause-*related* branch found)
#: and Table 7's four undiagnosed concurrency failures.
NOT_RANK1_SINGLE_BUG = {
    "apache2", "cppcheck1", "ln", "tac",              # Table 6  X n*
    "apache5", "cherokee", "mozilla-js2", "mysql1",   # Table 7  -
}


def fleet_reports():
    return int(os.environ.get("REPRO_FLEET_REPORTS", "500"))


def test_fleet_triage_500_reports(benchmark, tmp_path, save_result):
    reports = FleetStream(seed=0).generate(fleet_reports())

    executor = CampaignExecutor(cache=True, cache_dir=tmp_path / "cache")
    result = run_once(
        benchmark,
        lambda: triage_reports(reports, runs=10, executor=executor,
                               seed=0),
    )
    save_result(result.table())

    # One cluster per application, no cross-bug merges.
    assert result.n_clusters == len({r.app for r in reports})
    for cluster in result.clusters:
        assert len({r.app for r in cluster.reports}) == 1

    # Quality floor: every bug the Table 6/7 single-bug campaigns
    # place at rank 1 must also reach rank 1 under fleet triage.
    for cluster in result.clusters:
        if cluster.app not in NOT_RANK1_SINGLE_BUG:
            assert cluster.true_rank == 1, cluster.app

    # A second pass re-diagnoses entirely from the run cache.
    before = executor.stats.cache_hits
    again = triage_reports(reports, runs=10, executor=executor, seed=0)
    assert executor.stats.cache_hits > before
    assert [c.true_rank for c in again.clusters] \
        == [c.true_rank for c in result.clusters]
