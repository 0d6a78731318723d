"""What the deterministic part of a metrics snapshot counts.

The deterministic projection of a snapshot — the logical clock, every
counter, gauge and non-timing sketch, and the count of each timing
sketch — is the part that reads the same on every run of a command.
These tests pin what it counts on a 200-report triage stream, on an
experiment driver and on baseline campaigns."""

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
    """The deterministic part of the snapshot at *path*, at full
    precision: the clock, every counter, gauge and non-timing sketch,
    and the count of each timing sketch (the timings differ from run to
    run; how many events they observed must not)."""
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


def test_200_report_snapshot_counts_every_report_as_an_int(tmp_path):
    """Encoded as ``publish_snapshot`` encodes a snapshot (sorted-key
    JSON), the projection of a 200-report triage counts 200 reports,
    written as an int: bytes catch drift that equality forgives, such
    as a count written as 200.0."""
    snapshot = tmp_path / "snapshot.json"
    code, _ = run_cli(
        "triage", "--reports", "200", "--seed", "3", "--runs", "3",
        "--bugs", "sort", "apache1", "--no-ledger",
        "--snapshot-out", str(snapshot),
    )
    assert code == 0
    body = json.dumps(deterministic_projection(snapshot), sort_keys=True)
    reports = json.loads(body)["windowed"]["fleet.reports"]["total"]
    assert reports == 200 and isinstance(reports, int)


def test_table7_metrics_observe_every_executed_run(tmp_path):
    """table7 drives real campaigns, so its machine.* sketches observe
    each run the command executed."""
    path = tmp_path / "table7.json"
    code, _ = run_cli("experiment", "table7", "--no-ledger",
                      "--metrics-out", str(path))
    assert code == 0
    projection = deterministic_projection(path)
    runs = projection["windowed"]["machine.runs"]["total"]
    sketches = projection["sketches"]
    assert runs > 0
    assert sketches["machine.run_retired"]["count"] == runs
    assert sketches["machine.run_seconds"] == runs


@pytest.mark.parametrize("bug, tool, runs", [
    ("sort", "cbi", "60"), ("mysql1", "cci", "40"), ("apache4", "pbi", "40"),
])
def test_baseline_campaign_records_each_plan_once(
        bug, tool, runs, tmp_path, monkeypatch):
    """A baseline campaign records each distinct plan once:
    ``machine.runs`` is the number of distinct plans the campaign
    consumed."""
    from repro.bugs.registry import get_bug
    from repro.runtime.executor import fingerprint_plan

    # A campaign builds each attempt's plan when it consumes the
    # attempt, so the plans built are the plans consumed.
    consumed = set()
    workload_class = type(get_bug(bug))
    for name in ("failing_run_plan", "passing_run_plan"):
        def building(self, k, plan_of=getattr(workload_class, name)):
            plan = plan_of(self, k)
            consumed.add(fingerprint_plan(plan))
            return plan
        monkeypatch.setattr(workload_class, name, building)

    path = tmp_path / ("%s.json" % tool)
    code, _ = run_cli(
        "diagnose", bug, "--tool", tool, "--runs", runs,
        "--no-ledger", "--metrics-out", str(path),
    )
    assert code == 0
    distinct = len(consumed)
    assert 0 < distinct < 2 * int(runs)
    projection = deterministic_projection(path)
    assert projection["windowed"]["machine.runs"]["total"] == distinct
