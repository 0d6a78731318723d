"""Telemetry overhead on fleet triage.

The metrics registry (:mod:`repro.obs.timeseries`) rides the same
switch as the rest of observability: disabled (the default) it must
cost nothing, and *enabled* it must stay cheap — counter windows,
gauge points, and sketch observations are O(1) dict work on a stream
that is dominated by campaign replay.  This benchmark pins the enabled
side: a 200-report triage with a collecting obs (clock ticks, stage
timers, per-signature convergence series all live) must finish within
``REPRO_TELEMETRY_OVERHEAD_BOUND`` (default 3%) of the same triage with
telemetry off.
"""

import os
import time

from conftest import run_once

from repro.fleet import FleetStream, triage_reports
from repro.obs import Observability, use

REPORTS = 200
RUNS = 3


def _reports():
    stream = FleetStream(population=["sort", "apache1"], seed=3)
    return stream.generate(REPORTS)


def _timed(fn):
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def test_enabled_telemetry_overhead_is_bounded(benchmark):
    bound = float(
        os.environ.get("REPRO_TELEMETRY_OVERHEAD_BOUND", "0.03"))
    reports = _reports()

    def disabled_run():
        triage_reports(reports, runs=RUNS, seed=3)

    def enabled_run():
        with use(Observability()) as obs:
            triage_reports(reports, runs=RUNS, seed=3)
        return obs

    disabled_run()                                 # warm imports/caches
    # Interleave the variants so clock drift hits both; compare bests.
    disabled = enabled = None
    for _ in range(7):
        sample = _timed(disabled_run)
        disabled = sample if disabled is None else min(disabled, sample)
        sample = _timed(enabled_run)
        enabled = sample if enabled is None else min(enabled, sample)
    run_once(benchmark, disabled_run)              # report wall-clock

    assert enabled <= disabled * (1.0 + bound), (
        "telemetry-enabled triage took %.4fs vs %.4fs disabled "
        "(bound %.0f%%)" % (enabled, disabled, 100.0 * bound)
    )


def test_enabled_telemetry_actually_streams(benchmark):
    def enabled_run():
        # Generate inside the obs context: ingest ticks fire as the
        # stream is consumed, replay ticks as campaigns re-run.
        with use(Observability()) as obs:
            triage_reports(_reports(), runs=RUNS, seed=3)
        return obs

    obs = run_once(benchmark, enabled_run)
    metrics = obs.metrics
    # One tick per report ingested + one per replayed campaign run.
    assert metrics.now > REPORTS
    assert metrics.counter("fleet.reports").total == REPORTS
    assert metrics.sketch("stage.campaign.seconds").count > 0
    ranks = [name for name in metrics.to_dict()["gauges"]
             if name.startswith("fleet.rank_of_true_cause.")]
    assert len(ranks) == 2            # one convergence series per bug
