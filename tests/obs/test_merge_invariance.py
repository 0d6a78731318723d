"""Cross-worker metrics merge invariance.

Worker metric buffers merged back into the consumer must be
byte-identical to a serial run: same counters, same sketch populations,
same exported OpenMetrics body.  These tests pin that contract on a
200-report triage stream and on the experiment drivers (table5,
table7)."""

import io

import pytest

from repro.cli import main
from repro.obs.timeseries import read_snapshot


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def _export(snapshot=None, ledger=None):
    argv = ["obs", "export"]
    if snapshot is not None:
        argv += ["--snapshot", str(snapshot)]
    if ledger is not None:
        argv += ["--ledger-dir", str(ledger)]
    code, text = run_cli(*argv)
    assert code == 0
    return text


@pytest.fixture(scope="module")
def triage_pair(tmp_path_factory):
    """The same 200-report stream triaged at --jobs 1 and --jobs 4.

    Each pass gets its own run cache: a *shared* cache would let the
    second pass replay the first's runs, and cached runs are never
    re-observed — merge invariance is a jobs contract at equal cache
    state, not a cache contract."""
    root = tmp_path_factory.mktemp("merge")
    paths = {}
    for jobs in ("1", "4"):
        snapshot = root / ("snap%s.json" % jobs)
        ledger = root / ("ledger%s" % jobs)
        code, _ = run_cli(
            "triage", "--reports", "200", "--seed", "3", "--runs", "3",
            "--bugs", "sort", "apache1", "--jobs", jobs,
            "--cache", "--cache-dir", str(root / ("cache%s" % jobs)),
            "--ledger-dir", str(ledger),
            "--snapshot-out", str(snapshot),
        )
        assert code == 0
        paths[jobs] = {"snapshot": snapshot, "ledger": ledger}
    return paths


def test_200_report_export_bodies_are_byte_identical(triage_pair):
    """The headline acceptance check: the exported OpenMetrics body of
    a 200-report triage is invariant under --jobs."""
    body1 = _export(snapshot=triage_pair["1"]["snapshot"])
    body4 = _export(snapshot=triage_pair["4"]["snapshot"])
    assert body1 == body4
    assert "repro_fleet_reports_total 200" in body1


def test_200_report_ledger_exports_are_byte_identical(triage_pair):
    """Rebuilding the snapshot from the ledger (a second, independent
    merge of the per-invocation timeseries payloads) agrees too."""
    body1 = _export(ledger=triage_pair["1"]["ledger"])
    body4 = _export(ledger=triage_pair["4"]["ledger"])
    assert body1 == body4
    assert body1 == _export(snapshot=triage_pair["1"]["snapshot"])


def test_200_report_deterministic_series_identical(triage_pair):
    """Below the export surface: every non-timing series in the
    snapshot — clock, windowed buckets, gauge points, score sketches —
    is identical; only timing sketches and the executor/wall sections
    may differ."""
    snap1 = read_snapshot(str(triage_pair["1"]["snapshot"]))
    snap4 = read_snapshot(str(triage_pair["4"]["snapshot"]))
    assert snap1["clock"] == snap4["clock"]
    assert snap1["series"]["windowed"] == snap4["series"]["windowed"]
    assert snap1["series"]["gauges"] == snap4["series"]["gauges"]
    sketches1 = {name: summary for name, summary
                 in snap1["series"]["sketches"].items()
                 if not summary.get("timing")}
    sketches4 = {name: summary for name, summary
                 in snap4["series"]["sketches"].items()
                 if not summary.get("timing")}
    assert sketches1 == sketches4
    # The jobs-dependent part is honest about being jobs-dependent.
    assert snap1["executor"]["jobs"] == 1
    assert snap4["executor"]["jobs"] == 4


def _deterministic_metrics(path):
    """The jobs-invariant projection of a --metrics-out snapshot: its
    exported body, plus the population of each wall-clock timing sketch
    (the timings differ; how many runs they observed must not)."""
    sketches = read_snapshot(str(path))["series"]["sketches"]
    populations = {name: summary["count"]
                   for name, summary in sketches.items()
                   if summary["timing"]}
    return _export(snapshot=path), populations


@pytest.mark.parametrize("table", ["table5", "table7"])
def test_experiment_metrics_merge_matches_serial(table, tmp_path):
    """N pool workers' obs buffers, merged, equal the serial run's.

    table5 is all-static (its merge is the empty-payload edge case);
    table7 drives real campaigns through pool workers, so its machine.*
    counters and sketches round-trip through worker payloads."""
    dumps = {}
    for jobs in ("1", "2"):
        path = tmp_path / ("%s-j%s.json" % (table, jobs))
        code, _ = run_cli(
            "experiment", table, "--jobs", jobs, "--no-ledger",
            "--cache", "--cache-dir", str(tmp_path / ("cache" + jobs)),
            "--metrics-out", str(path),
        )
        assert code == 0
        dumps[jobs] = _deterministic_metrics(path)
    assert dumps["1"] == dumps["2"]
    if table == "table7":                 # real work crossed the pool
        body, populations = dumps["1"]
        assert "repro_machine_run_retired_count 0" not in body
        assert "repro_machine_run_retired_count" in body
        assert populations["machine.run_seconds"] > 0
