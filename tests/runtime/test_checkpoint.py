"""Durable-campaign tests: journals, budgets, supervisor, signals.

The checkpoint contract under test: a campaign stream resumed from its
journal consumes *exactly* the sequence an uninterrupted run would —
replayed records first, fresh executions from the cursor — so results
are byte-identical; budgets stop campaigns cleanly with a partial
result instead of raising; the supervisor notices silence; SIGTERM
unwinds through ``finally`` paths as an exception.
"""

import json
import signal
import threading
import types
import warnings

import pytest

from repro.baselines.cbi import CbiTool
from repro.bugs.registry import get_bug
from repro.compiler import compile_source
from repro.obs import Observability, use as use_obs
from repro.obs.ledger import Ledger, render_trends, use as use_ledger
from repro.runtime import checkpoint, resilience
from repro.runtime.checkpoint import (
    CampaignBudget,
    CampaignInterrupted,
    CampaignSupervisor,
    CheckpointError,
    CheckpointJournal,
    CheckpointSession,
    graceful_signals,
    list_sessions,
    normalize_argv,
    session_id_for,
    stream_fingerprint,
    use_budget,
    use_session,
    use_supervisor,
)
from repro.runtime.harness import run_campaign
from repro.runtime.resilience import FaultPlan, use_plan

from tests.runtime.test_executor import _campaign_signature
from tests.runtime.test_process_and_harness import SOURCE, Thresholdy


@pytest.fixture(autouse=True)
def _no_ambient_plan(monkeypatch):
    monkeypatch.delenv(resilience.FAULTS_ENV, raising=False)
    monkeypatch.delenv(resilience.FAULTS_STATE_ENV, raising=False)
    resilience.reset_plan_cache()
    yield
    resilience.reset_plan_cache()


# ----------------------------------------------------------------------
# Argv normalization and session identity
# ----------------------------------------------------------------------

def test_normalize_argv_strips_volatile_flags():
    argv = ["diagnose", "sort", "--runs", "5",
            "--inject-faults", "worker-crash:1", "--fault-seed", "3",
            "--checkpoint", "--checkpoint-dir", "/tmp/x", "--resume"]
    assert normalize_argv(argv) == ["diagnose", "sort", "--runs", "5"]


def test_normalize_argv_handles_inline_form():
    argv = ["diagnose", "sort", "--inject-faults=worker-crash:1",
            "--checkpoint-dir=/tmp/x", "--runs", "5"]
    assert normalize_argv(argv) == ["diagnose", "sort", "--runs", "5"]


def test_session_id_invariant_under_chaos_and_checkpoint_flags():
    base = ["diagnose", "sort", "--runs", "5"]
    noisy = base + ["--checkpoint", "--checkpoint-dir", "ck",
                    "--inject-faults", "ledger-write-torn!kill:1"]
    assert session_id_for(base) == session_id_for(noisy)
    assert session_id_for(base) != session_id_for(base + ["--jobs", "4"])


def test_stream_fingerprint_depends_on_every_part():
    a = stream_fingerprint("campaign", "failing", "prog", "cfg")
    assert a == stream_fingerprint("campaign", "failing", "prog", "cfg")
    assert a != stream_fingerprint("campaign", "passing", "prog", "cfg")
    assert a != stream_fingerprint("campaign", "failing", "prog2", "cfg")


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------

def _journal(tmp_path, fingerprint="f" * 64):
    return CheckpointJournal(str(tmp_path / "stream.jsonl"),
                             "test.stream", fingerprint)


def test_journal_round_trip(tmp_path):
    journal = _journal(tmp_path)
    assert journal.replay() == []
    journal.append(0, True, {"exit": 1})
    journal.append(1, False, {"exit": 0})
    journal.close()

    again = _journal(tmp_path)
    records = again.replay()
    assert [(r["k"], r["failed"]) for r in records] == [(0, True),
                                                        (1, False)]
    assert records[0]["status"] == {"exit": 1}
    again.append(2, True, {"exit": 1})
    again.close()
    assert len(_journal(tmp_path).replay()) == 3


def test_journal_quarantines_torn_tail(tmp_path):
    journal = _journal(tmp_path)
    journal.append(0, True, {"exit": 1})
    journal.close()
    with open(journal.path, "a") as handle:
        handle.write('{"k": 1, "failed": tru')   # killed mid-write

    again = _journal(tmp_path)
    records = again.replay()
    assert [r["k"] for r in records] == [0]
    with open(again.quarantine_path) as handle:
        assert "tru" in handle.read()
    # The journal stays appendable after recovery.
    again.append(1, False, {"exit": 0})
    again.close()
    assert len(_journal(tmp_path).replay()) == 2


def test_journal_ignores_and_overwrites_foreign_fingerprint(tmp_path):
    journal = _journal(tmp_path, fingerprint="a" * 64)
    journal.append(0, True, {"exit": 1})
    journal.close()

    other = CheckpointJournal(journal.path, "test.stream", "b" * 64)
    assert other.replay() == []
    other.append(0, False, {"exit": 0})
    other.close()
    # The first append under the new fingerprint rewrote the file, so
    # the stale stream's records can never replay into this one.
    with open(journal.path) as handle:
        header = json.loads(handle.readline())
    assert header["fingerprint"] == "b" * 64
    assert _journal(tmp_path, "a" * 64).replay() == []
    records = CheckpointJournal(journal.path, "test.stream",
                                "b" * 64).replay()
    assert [(r["k"], r["failed"]) for r in records] == [(0, False)]


def test_journal_truncates_at_first_bad_record(tmp_path):
    # Two separate group commits (close drains the batch buffer), so
    # the file carries header + two batch lines.
    journal = _journal(tmp_path)
    journal.append(0, True, {"exit": 1})
    journal.close()
    journal = _journal(tmp_path)
    journal.replay()
    journal.append(1, False, {"exit": 0})
    journal.close()
    lines = open(journal.path).read().splitlines()
    assert len(lines) == 3
    lines[2] = '{"k0": 1, "n": 1, "batch": "!!notbase64!!"}'
    with open(journal.path, "w") as handle:
        handle.write("\n".join(lines) + "\n")

    again = _journal(tmp_path)
    assert [r["k"] for r in again.replay()] == [0]
    # The bad suffix was truncated so later appends follow good records.
    again.append(1, False, {"exit": 0})
    again.close()
    assert [r["k"] for r in _journal(tmp_path).replay()] == [0, 1]


def test_journal_read_error_fault_restarts_stream(tmp_path):
    journal = _journal(tmp_path)
    journal.append(0, True, {"exit": 1})
    journal.close()
    plan = FaultPlan.parse("checkpoint-read-error:1")
    with use_plan(plan):
        assert _journal(tmp_path).replay() == []


def test_journal_write_error_fault_disables_journal(tmp_path, capsys):
    plan = FaultPlan.parse("checkpoint-write-error:1")
    journal = _journal(tmp_path)
    with use_plan(plan):
        journal.append(0, True, {"exit": 1})
    assert journal.disabled
    journal.append(1, False, {"exit": 0})   # silently skipped
    journal.close()
    assert _journal(tmp_path).replay() == []
    assert "journal" in capsys.readouterr().err


def test_journal_write_torn_fault_leaves_recoverable_tail(tmp_path):
    plan = FaultPlan.parse("checkpoint-write-torn:1:1")
    journal = _journal(tmp_path)
    with use_plan(plan):
        journal.append(0, True, {"exit": 1})
        with pytest.raises(resilience.FaultError):
            journal.append(1, False, {"exit": 0})
    journal.close()
    records = _journal(tmp_path).replay()
    assert [r["k"] for r in records] == [0]


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------

def test_session_create_load_and_complete(tmp_path):
    root = str(tmp_path / "ck")
    argv = ["diagnose", "sort", "--runs", "5", "--checkpoint"]
    session = CheckpointSession.create(root, argv)
    assert session.argv == ["diagnose", "sort", "--runs", "5"]

    loaded = CheckpointSession.load(root, session.session_id)
    assert loaded.argv == session.argv
    assert [info["session_id"] for info in list_sessions(root)] \
        == [session.session_id]

    session.mark_complete()
    assert list_sessions(root) == []
    with pytest.raises(CheckpointError):
        CheckpointSession.load(root, session.session_id)


def test_session_create_is_idempotent(tmp_path):
    root = str(tmp_path / "ck")
    first = CheckpointSession.create(root, ["diagnose", "sort"])
    second = CheckpointSession.create(root, ["diagnose", "sort"])
    assert first.session_id == second.session_id
    assert len(list_sessions(root)) == 1


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------

def test_budget_validation():
    with pytest.raises(ValueError):
        CampaignBudget(run_budget=-1)
    with pytest.raises(ValueError):
        CampaignBudget(deadline=0)
    with pytest.raises(ValueError):
        CampaignBudget(deadline=-2.5)


def test_run_budget_exhaustion():
    budget = CampaignBudget(run_budget=2).start()
    assert budget.exhausted() is None
    budget.charge()
    assert budget.exhausted() is None
    budget.charge()
    assert budget.exhausted() == "run-budget"


def test_deadline_exhaustion(monkeypatch):
    clock = {"now": 100.0}
    monkeypatch.setattr(checkpoint.time, "monotonic",
                        lambda: clock["now"])
    budget = CampaignBudget(deadline=5.0).start()
    assert budget.exhausted() is None
    clock["now"] = 104.9
    assert budget.exhausted() is None
    clock["now"] = 105.0
    assert budget.exhausted() == "deadline"


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------

def test_supervisor_validation():
    with pytest.raises(ValueError):
        CampaignSupervisor(stall_timeout=0)
    with pytest.raises(ValueError):
        CampaignSupervisor(stall_timeout=-1)


def test_supervisor_detects_stale_heartbeat(monkeypatch, capsys):
    supervisor = CampaignSupervisor(stall_timeout=10.0)
    clock = {"now": 1000.0}
    monkeypatch.setattr(checkpoint.time, "monotonic",
                        lambda: clock["now"])
    supervisor.beat("campaign")
    assert supervisor.check() == []
    clock["now"] += 11.0
    stalled = supervisor.check()
    assert stalled == ["campaign"]
    assert supervisor.stalls == 1
    assert "no heartbeat" in capsys.readouterr().err
    supervisor.beat("campaign")
    assert supervisor.check() == []


def test_supervisor_stall_fault_forces_escalation(tmp_path, capsys):
    supervisor = CampaignSupervisor(stall_timeout=100.0)
    supervisor.beat("campaign")
    plan = FaultPlan.parse("supervisor-stall:1")
    with use_plan(plan):
        assert supervisor.check() == ["forced"]
    assert supervisor.stalls == 1
    assert "no heartbeat" in capsys.readouterr().err


def test_supervisor_monitor_thread_lifecycle():
    supervisor = CampaignSupervisor(stall_timeout=60.0,
                                    poll_interval=0.01)
    supervisor.start()
    assert any(t.name == "repro-supervisor"
               for t in threading.enumerate())
    supervisor.stop()
    assert not any(t.name == "repro-supervisor"
                   for t in threading.enumerate())


# ----------------------------------------------------------------------
# Signals
# ----------------------------------------------------------------------

def test_graceful_signals_converts_sigterm():
    before = signal.getsignal(signal.SIGTERM)
    with pytest.raises(CampaignInterrupted):
        with graceful_signals():
            signal.raise_signal(signal.SIGTERM)
    # The previous disposition is restored on exit.
    assert signal.getsignal(signal.SIGTERM) is before


def _sigterm(*_args):
    signal.raise_signal(signal.SIGTERM)


def test_sigterm_during_a_disk_cache_read_keeps_the_entry(tmp_path,
                                                          monkeypatch):
    # The signal must not pass for a corrupt entry: no eviction, no
    # miss, no drop counted.
    from repro.runtime import executor

    key = "ab" * 32
    executor.RunCache(directory=str(tmp_path)).put(
        key, {"value": 1, "duration": 0.5})
    path = tmp_path / key[:2] / (key + ".pkl")
    cache = executor.RunCache(directory=str(tmp_path))
    monkeypatch.setattr(executor, "fault_point", _sigterm)
    with pytest.raises(CampaignInterrupted):
        with graceful_signals():
            cache.get(key)
    assert path.exists()
    assert cache.corrupt_dropped == 0


def test_sigterm_during_a_journal_replay_keeps_the_journal(tmp_path,
                                                           monkeypatch):
    # The signal must not pass for a bad line: replay must not truncate
    # the journal the signal was meant to preserve.
    journal = _journal(tmp_path)
    for k in range(16):
        journal.append(k, k % 3 == 0, {"exit": k % 3})
    journal.close()
    with open(journal.path, "rb") as handle:
        before = handle.read()
    monkeypatch.setattr(checkpoint, "base64",
                        types.SimpleNamespace(b64decode=_sigterm))
    with pytest.raises(CampaignInterrupted):
        with graceful_signals():
            _journal(tmp_path).replay()
    with open(journal.path, "rb") as handle:
        assert handle.read() == before


# ----------------------------------------------------------------------
# run_campaign integration: journal replay and budget stops
# ----------------------------------------------------------------------

def _session(tmp_path):
    return CheckpointSession.create(str(tmp_path / "ck"),
                                    ["test", "campaign"])


def test_campaign_journal_resume_is_identical(tmp_path):
    program = compile_source(SOURCE)
    workload = Thresholdy()
    baseline = run_campaign(program, workload, want_failures=3,
                            want_successes=4, on_shortfall="raise")

    session = _session(tmp_path)
    with use_session(session):
        first = run_campaign(program, workload, want_failures=3,
                             want_successes=4, on_shortfall="raise")
    session.close()
    assert _campaign_signature(first) == _campaign_signature(baseline)

    # Simulate a crash partway: drop the tail of every journal, then
    # resume — replayed prefix + fresh suffix must equal the baseline.
    for journal in session._journals:
        lines = open(journal.path).read().splitlines(keepends=True)
        if len(lines) > 2:
            with open(journal.path, "w") as handle:
                handle.writelines(lines[:2])
    resumed_session = CheckpointSession.create(str(tmp_path / "ck"),
                                               ["test", "campaign"])
    with use_session(resumed_session):
        resumed = run_campaign(program, workload, want_failures=3,
                               want_successes=4, on_shortfall="raise")
    resumed_session.close()
    assert _campaign_signature(resumed) == _campaign_signature(baseline)
    assert any(journal.replayed for journal in resumed_session._journals)


def test_campaign_run_budget_partial(tmp_path):
    program = compile_source(SOURCE)
    workload = Thresholdy()
    with use_budget(CampaignBudget(run_budget=2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # budget stops never warn
            result = run_campaign(program, workload, want_failures=3,
                                  want_successes=4)
    assert result.partial == "run-budget"
    assert result.attempts == 2
    assert result.shortfall is not None


def test_campaign_replays_are_free_under_budget(tmp_path):
    program = compile_source(SOURCE)
    workload = Thresholdy()
    session = _session(tmp_path)
    with use_session(session):
        complete = run_campaign(program, workload, want_failures=3,
                                want_successes=4, on_shortfall="raise")
    session.close()

    # Resume with a budget smaller than the campaign: every consumed
    # run replays from the journal, so the budget never bites.
    resumed_session = CheckpointSession.create(str(tmp_path / "ck"),
                                               ["test", "campaign"])
    with use_session(resumed_session), \
            use_budget(CampaignBudget(run_budget=1)):
        resumed = run_campaign(program, workload, want_failures=3,
                               want_successes=4, on_shortfall="raise")
    resumed_session.close()
    assert resumed.partial is None
    assert _campaign_signature(resumed) == _campaign_signature(complete)


def test_campaign_budget_stop_recorded_in_ledger(tmp_path):
    program = compile_source(SOURCE)
    workload = Thresholdy()
    ledger = Ledger(str(tmp_path / "ledger"))
    with use_ledger(ledger), use_budget(CampaignBudget(run_budget=2)):
        run_campaign(program, workload, want_failures=3,
                     want_successes=4)
    entry = ledger.entries()[-1]
    assert entry["runs"]["partial"] == "run-budget"


# ----------------------------------------------------------------------
# Baseline campaigns: the same journal, keyed by the start cursor
# ----------------------------------------------------------------------

def _cbi(runs):
    """A CBI ``sort`` diagnosis at *runs* + *runs*, as comparable rows.

    Sampling at 0.3 (not the default 1/100) so ranked rows exist.
    """
    tool = CbiTool(get_bug("sort"), sampling_rate=0.3)
    diagnosis = tool.run_diagnosis(n_failures=runs, n_successes=runs)
    return {
        "ranked": [repr(predicate) for predicate in diagnosis.ranked],
        "runs": (diagnosis.n_failures, diagnosis.n_successes),
        "partial": diagnosis.partial,
        "events_observed": tool.events_observed,
        "samples_taken": tool.samples_taken,
        "retired_total": tool.retired_total,
    }


def test_baseline_replays_are_free_under_budget(tmp_path):
    session = _session(tmp_path)
    with use_session(session):
        complete = _cbi(30)
    session.close()
    assert complete["ranked"]

    # Resume with a budget of zero fresh runs: every consumed run
    # replays from the journal, so the budget never bites.
    resumed_session = CheckpointSession.create(str(tmp_path / "ck"),
                                               ["test", "campaign"])
    with use_session(resumed_session), \
            use_budget(CampaignBudget(run_budget=0)):
        resumed = _cbi(30)
    resumed_session.close()
    assert resumed == complete
    assert not resumed["partial"]
    assert sum(journal.replayed
               for journal in resumed_session._journals) == 60


def test_baseline_campaigns_of_different_quotas_in_one_session(tmp_path):
    # The passing phase starts at the failing phase's attempt count, so
    # a journal keyed without that cursor would replay the 20-run
    # campaign's passing records into the 35-run campaign.
    expected = [_cbi(20), _cbi(35)]
    session = _session(tmp_path)
    with use_session(session):
        got = [_cbi(20), _cbi(35)]
    session.close()
    assert got == expected
    assert all(row["ranked"] for row in got)


# ----------------------------------------------------------------------
# Partial diagnoses in the ledger and trends
# ----------------------------------------------------------------------

class _FakeDiagnosis:
    ranked = ()
    runs_used = {"failures": 0, "successes": 0}

    def __init__(self, partial):
        self.ranked = []
        self.partial = partial
        self.stop_reason = "run-budget" if partial else None

    def confidence(self):
        return {"level": "low", "score": 0.1, "evidence": 0.2,
                "separation": 0.5, "events_ranked": 0,
                "failures": {"got": 1, "want": 5},
                "successes": {"got": 0, "want": 5}}


def test_partial_diagnosis_quality_and_trends(tmp_path):
    ledger = Ledger(str(tmp_path / "ledger"))
    workload = Thresholdy()
    ledger.record_diagnosis(tool="lbra", workload=workload,
                            raw=_FakeDiagnosis(partial=False),
                            wall_seconds=1.0)
    ledger.record_diagnosis(tool="lbra", workload=workload,
                            raw=_FakeDiagnosis(partial=True),
                            wall_seconds=1.0)
    entries = ledger.entries()
    assert "partial" not in entries[0]["quality"]
    assert entries[1]["quality"]["partial"] is True
    assert entries[1]["quality"]["stop_reason"] == "run-budget"
    assert entries[1]["quality"]["confidence"]["level"] == "low"

    text, code = render_trends(ledger)
    assert "[partial:low]" in text
    assert code == 0   # a partial entry is never a rank regression
