"""End-to-end tests for `repro obs watch`, the snapshot publication of
`repro triage --snapshot-out` and `--metrics-out`, and the torn-trace
tolerance of `repro obs report`."""

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.obs import Observability, use
from repro.obs.ledger import Ledger
from repro.obs.timeseries import Metrics, build_snapshot, \
    publish_snapshot, read_snapshot
from repro.obs.watch import render_dashboard, sparkline, watch


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


TRIAGE = ("triage", "--reports", "8", "--seed", "3", "--runs", "3",
          "--bugs", "sort", "apache1")


@pytest.fixture(scope="module")
def published(tmp_path_factory):
    """One triage run with a published snapshot + ledger, shared."""
    root = tmp_path_factory.mktemp("telemetry")
    snapshot = root / "snap.json"
    ledger = root / "ledger"
    code, text = run_cli(*TRIAGE, "--ledger-dir", str(ledger),
                         "--snapshot-out", str(snapshot))
    assert code == 0
    assert "telemetry snapshot published" in text
    return {"snapshot": snapshot, "ledger": ledger}


# -- sparklines / dashboard --------------------------------------------

def test_sparkline_scales_to_levels():
    assert sparkline([0, 1]) == "▁█"
    assert sparkline([5, 5, 5]) == "▁▁▁"
    assert sparkline([]) == ""
    assert sparkline([None, 1])[0] == " "


def test_render_dashboard_sections():
    metrics = Metrics()
    for _ in range(5):
        metrics.tick()
        metrics.counter("fleet.reports").inc()
    metrics.gauge("fleet.rank_of_true_cause.abcd1234").set(1)
    with metrics.timer("stage.cluster.seconds"):
        pass
    frame = render_dashboard(build_snapshot(
        metrics, fleet={"reports": 5}, executor={"attempts": 20},
        complete=False))
    assert "running" in frame
    assert "abcd1234" in frame
    assert "stage.cluster.seconds" in frame
    assert "executor" in frame and "attempts=20" in frame


def test_render_dashboard_names_counters_in_full():
    """Counters sharing a last name segment stay distinguishable."""
    metrics = Metrics()
    metrics.counter("machine.runs").inc(40)
    metrics.counter("fleet.runs").inc(7)
    frame = render_dashboard(build_snapshot(metrics))
    rows = {line.split()[0]: line.split()[1]
            for line in frame.splitlines() if "total" in line}
    assert rows == {"fleet.runs": "7", "machine.runs": "40"}


# -- watch --------------------------------------------------------------

def test_watch_once_renders_a_frame(published):
    code, text = run_cli("obs", "watch", str(published["snapshot"]),
                         "--once")
    assert code == 0
    assert "repro fleet telemetry — complete" in text
    assert "convergence" in text


def test_watch_once_missing_file_exits_2(tmp_path):
    code, text = run_cli("obs", "watch", str(tmp_path / "none.json"),
                         "--once")
    assert code == 2
    assert "no snapshot" in text


def test_watch_rejects_non_snapshot(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text("{\"foo\": 1}\n")
    code, text = run_cli("obs", "watch", str(path), "--once")
    assert code == 2
    assert "not a telemetry snapshot" in text


@pytest.mark.parametrize("interval", ["0", "-1", "nan", "inf", "soon"])
def test_watch_rejects_a_non_positive_interval(interval, capsys):
    """Caught at parse time: `watch` adds the interval to its wait and
    sleeps it, so 0 would spin forever and a negative value raise."""
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["obs", "watch", "snap.json",
                                   "--interval", interval])
    assert exit_info.value.code == 2
    assert "poll interval must be finite seconds greater than 0" \
        in capsys.readouterr().err
    assert build_parser().parse_args(
        ["obs", "watch", "snap.json", "--interval", "0.25"]).interval \
        == 0.25


def test_watch_live_stops_on_complete(tmp_path):
    path = tmp_path / "live.json"
    metrics = Metrics()
    metrics.tick()
    publish_snapshot(str(path), build_snapshot(metrics, complete=True))
    out = io.StringIO()
    code = watch(str(path), out, interval=0.01, clear=False)
    assert code == 0
    assert "complete" in out.getvalue()


# -- snapshot files ----------------------------------------------------

def test_no_ledger_entry_carries_a_metrics_buffer(published):
    """The snapshot is the one at-rest form of the metrics registry:
    with observability on, no ledger entry holds a copy of it."""
    entries = Ledger(published["ledger"]).entries()
    assert {e["kind"] for e in entries} >= {"diagnosis", "triage"}
    assert ("triage", "fleet") in {(e["kind"], e["workload"])
                                   for e in entries}
    assert [e for e in entries if "obs" in e] == []


def test_metrics_out_snapshot_feeds_watch(tmp_path):
    """`--metrics-out` writes the snapshot document, so every reader of
    `--snapshot-out` files reads it too."""
    path = tmp_path / "metrics.json"
    code, _ = run_cli("run", "sort", "--metrics-out", str(path))
    assert code == 0
    series = read_snapshot(str(path))["series"]
    assert series["windowed"]["machine.runs"]["total"] == 1
    assert series["sketches"]["machine.run_retired"]["count"] == 1
    assert series["sketches"]["machine.run_seconds"]["timing"]
    code, frame = run_cli("obs", "watch", str(path), "--once")
    assert code == 0
    assert "machine.runs" in frame


@pytest.mark.parametrize("flag", ["--snapshot-out", "--metrics-out"])
def test_unwritable_snapshot_is_reported_and_fails(tmp_path, flag):
    """A final snapshot that does not land is one line naming the path
    and exit status 1; the triage table still prints."""
    blocker = tmp_path / "afile"
    blocker.write_text("")
    target = str(blocker / "snap.json")
    code, text = run_cli("triage", "--reports", "4", "--seed", "0",
                         "--bugs", "sort", "tac", "--no-ledger",
                         flag, target)
    assert code == 1
    assert "Fleet triage by fault signature" in text
    assert [line for line in text.splitlines() if target in line] \
        == ["could not write the snapshot to %s" % target]
    assert "published" not in text


# -- torn-trace tolerance of `repro obs report` -------------------------

def _trace_records():
    obs = Observability()
    with use(obs):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
    return obs.tracer.records


def test_obs_report_tolerates_a_torn_tail(tmp_path):
    path = tmp_path / "trace.jsonl"
    lines = [json.dumps(r, sort_keys=True) for r in _trace_records()]
    # Simulate a writer killed mid-export: half of the last line lands.
    torn = "\n".join(lines[:-1]) + "\n" + lines[-1][:len(lines[-1]) // 2]
    path.write_text(torn)
    code, text = run_cli("obs", "report", str(path))
    assert code == 0
    assert "Trace report" in text
    assert "skipped 1 torn/corrupt line" in text


def test_obs_report_tolerates_corrupt_interior_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    lines = [json.dumps(r, sort_keys=True) for r in _trace_records()]
    lines.insert(1, "{broken json")
    path.write_text("\n".join(lines) + "\n")
    code, text = run_cli("obs", "report", str(path))
    assert code == 0
    assert "skipped 1 torn/corrupt line" in text


def test_obs_report_still_rejects_non_jsonl(tmp_path):
    path = tmp_path / "not-a-trace.txt"
    path.write_text("this is not json\nnot even close\n")
    code, text = run_cli("obs", "report", str(path))
    assert code == 2
    assert "not a span trace" in text
