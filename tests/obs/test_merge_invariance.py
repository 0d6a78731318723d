"""Cross-worker metrics merge invariance.

Worker metric buffers merged back into the consumer must equal a serial
run's: the same clock, counters, gauge points and non-timing sketches,
and wall-clock timing sketches that observed as many events.  These
tests pin that contract on the snapshot documents of a 200-report
triage stream and of the experiment drivers (table5, table7)."""

import io
import json

import pytest

from repro.cli import main
from repro.obs.timeseries import read_snapshot


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def deterministic_projection(path):
    """The jobs-invariant part of the snapshot at *path*, at full
    precision: the clock, every counter, gauge and non-timing sketch,
    and the count of each timing sketch (the timings differ; how many
    events they observed must not)."""
    snapshot = read_snapshot(str(path))
    series = snapshot["series"]
    return {
        "clock": snapshot["clock"],
        "windowed": series["windowed"],
        "gauges": series["gauges"],
        "sketches": {
            name: summary["count"] if summary["timing"] else summary
            for name, summary in series["sketches"].items()
        },
    }


@pytest.fixture(scope="module")
def triage_pair(tmp_path_factory):
    """The same 200-report stream triaged at --jobs 1 and --jobs 4.

    Each pass gets its own run cache: a *shared* cache would let the
    second pass replay the first's runs, and cached runs are never
    re-observed — merge invariance is a jobs contract at equal cache
    state, not a cache contract."""
    root = tmp_path_factory.mktemp("merge")
    snapshots = {}
    for jobs in ("1", "4"):
        snapshot = root / ("snap%s.json" % jobs)
        code, _ = run_cli(
            "triage", "--reports", "200", "--seed", "3", "--runs", "3",
            "--bugs", "sort", "apache1", "--jobs", jobs,
            "--cache", "--cache-dir", str(root / ("cache%s" % jobs)),
            "--no-ledger", "--snapshot-out", str(snapshot),
        )
        assert code == 0
        snapshots[jobs] = snapshot
    return snapshots


def test_200_report_export_bodies_are_byte_identical(triage_pair):
    """The headline check in bytes: the deterministic projection of a
    200-report triage snapshot, encoded as ``publish_snapshot`` encodes
    a snapshot (sorted-key JSON), is byte-identical under --jobs.  Bytes
    also catch drift that equality forgives, such as a count written as
    200.0 on one side and 200 on the other."""
    bodies = {jobs: json.dumps(deterministic_projection(path), sort_keys=True)
              for jobs, path in triage_pair.items()}
    assert bodies["1"] == bodies["4"]
    reports = json.loads(bodies["1"])["windowed"]["fleet.reports"]["total"]
    assert reports == 200 and isinstance(reports, int)


def test_200_report_deterministic_series_identical(triage_pair):
    """The headline acceptance check: every deterministic series of a
    200-report triage snapshot is invariant under --jobs; only timing
    values and the executor/wall sections may differ."""
    projection = deterministic_projection(triage_pair["1"])
    assert projection == deterministic_projection(triage_pair["4"])
    assert projection["windowed"]["fleet.reports"]["total"] == 200
    # The jobs-dependent part is honest about being jobs-dependent.
    assert read_snapshot(str(triage_pair["1"]))["executor"]["jobs"] == 1
    assert read_snapshot(str(triage_pair["4"]))["executor"]["jobs"] == 4


@pytest.mark.parametrize("table", ["table5", "table7"])
def test_experiment_metrics_merge_matches_serial(table, tmp_path):
    """N pool workers' obs buffers, merged, equal the serial run's.

    table5 is all-static (its merge is the empty-payload edge case);
    table7 drives real campaigns through pool workers, so its machine.*
    counters and sketches round-trip through worker payloads."""
    projections = {}
    for jobs in ("1", "2"):
        path = tmp_path / ("%s-j%s.json" % (table, jobs))
        code, _ = run_cli(
            "experiment", table, "--jobs", jobs, "--no-ledger",
            "--cache", "--cache-dir", str(tmp_path / ("cache" + jobs)),
            "--metrics-out", str(path),
        )
        assert code == 0
        projections[jobs] = deterministic_projection(path)
    assert projections["1"] == projections["2"]
    if table == "table7":                 # real work crossed the pool
        sketches = projections["1"]["sketches"]
        assert sketches["machine.run_retired"]["count"] > 0
        assert sketches["machine.run_seconds"] > 0


@pytest.mark.parametrize("bug, tool, runs", [
    ("sort", "cbi", "60"), ("mysql1", "cci", "40"), ("apache4", "pbi", "40"),
])
def test_baseline_campaign_metrics_merge_matches_serial(
        bug, tool, runs, tmp_path, monkeypatch):
    """A baseline campaign records each distinct plan once, wherever it
    runs: its deterministic series, ``machine.runs`` included, are the
    same at --jobs 1 and 2, and ``machine.runs`` is the number of
    distinct plans the campaign consumed."""
    from repro.bugs.registry import get_bug
    from repro.runtime.executor import fingerprint_plan

    # At --jobs 1 a campaign builds each attempt's plan when it consumes
    # the attempt, so the plans built are the plans consumed.
    consumed = set()
    workload_class = type(get_bug(bug))
    for name in ("failing_run_plan", "passing_run_plan"):
        def building(self, k, plan_of=getattr(workload_class, name)):
            plan = plan_of(self, k)
            consumed.add(fingerprint_plan(plan))
            return plan
        monkeypatch.setattr(workload_class, name, building)

    projections = {}
    for jobs in ("1", "2"):
        path = tmp_path / ("%s-j%s.json" % (tool, jobs))
        code, _ = run_cli(
            "diagnose", bug, "--tool", tool, "--runs", runs,
            "--jobs", jobs, "--no-ledger", "--metrics-out", str(path),
        )
        assert code == 0
        projections[jobs] = deterministic_projection(path)
        if jobs == "1":
            distinct = len(consumed)
    assert projections["1"] == projections["2"]
    assert 0 < distinct < 2 * int(runs)
    assert projections["1"]["windowed"]["machine.runs"]["total"] == distinct
