"""Chaos tests: the pipeline under injected crashes, hangs, and torn I/O.

The resilience contract under test: every fault class changes wall-
clock time and :class:`ResilienceStats`, **never results** — a campaign
run under injected worker crashes, hangs, torn ledger writes, or
corrupt cache pickles is bit-identical to the fault-free run.
"""

import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile

import pytest

from repro.compiler import compile_source
from repro.obs import Observability, use as use_obs
from repro.obs.ledger import Ledger
from repro.runtime import resilience
from repro.runtime.executor import CampaignExecutor, RunCache
from repro.runtime.harness import run_campaign
from repro.runtime.resilience import (
    FaultError,
    FaultPlan,
    FaultSpecError,
    FileLock,
    ResiliencePolicy,
    use_plan,
)
from repro.runtime.workload import RunPlan

from tests.runtime.test_cli import run_cli
from tests.runtime.test_executor import DistinctPlans, _campaign_signature
from tests.runtime.test_process_and_harness import SOURCE, Thresholdy


@pytest.fixture(autouse=True)
def _no_ambient_plan(monkeypatch):
    """Tests control the active plan explicitly; never inherit one."""
    monkeypatch.delenv(resilience.FAULTS_ENV, raising=False)
    monkeypatch.delenv(resilience.FAULTS_STATE_ENV, raising=False)
    resilience.reset_plan_cache()
    yield
    resilience.reset_plan_cache()


def _fast_policy(**overrides):
    defaults = dict(task_timeout=20.0, max_retries=2, backoff_base=0.01,
                    max_pool_restarts=3)
    defaults.update(overrides)
    return ResiliencePolicy(**defaults)


# ----------------------------------------------------------------------
# FaultPlan mechanics
# ----------------------------------------------------------------------

def test_fault_plan_parse_and_roundtrip():
    plan = FaultPlan.parse("worker-crash, ledger-write-torn:2:1", seed=7)
    assert plan.sites["worker-crash"].times == 1
    assert plan.sites["worker-crash"].skip == 0
    assert plan.sites["ledger-write-torn"].times == 2
    assert plan.sites["ledger-write-torn"].skip == 1
    replayed = FaultPlan.parse(plan.describe_spec(), seed=7)
    assert replayed.describe_spec() == plan.describe_spec()


def test_fault_plan_rejects_garbage():
    with pytest.raises(FaultSpecError):
        FaultPlan.parse("no-such-site:1")
    with pytest.raises(FaultSpecError):
        FaultPlan.parse("worker-crash:x")
    with pytest.raises(FaultSpecError):
        FaultPlan.parse("")
    with pytest.raises(FaultSpecError):
        FaultPlan.parse("worker-crash:1:2:3")


def test_fault_plan_kill_modifier_parse_and_roundtrip():
    plan = FaultPlan.parse("ledger-write-torn!kill:1:2, worker-crash")
    assert plan.sites["ledger-write-torn"].kill
    assert plan.sites["ledger-write-torn"].times == 1
    assert plan.sites["ledger-write-torn"].skip == 2
    assert not plan.sites["worker-crash"].kill
    spec = plan.describe_spec()
    assert "ledger-write-torn!kill:1:2" in spec
    assert FaultPlan.parse(spec).describe_spec() == spec


def test_fault_plan_rejects_bad_modifier():
    with pytest.raises(FaultSpecError):
        FaultPlan.parse("worker-crash!explode:1")
    with pytest.raises(FaultSpecError):
        FaultPlan.parse("!kill:1")


def test_resilience_policy_validation():
    with pytest.raises(ValueError):
        ResiliencePolicy(task_timeout=0)
    with pytest.raises(ValueError):
        ResiliencePolicy(task_timeout=-5.0)
    with pytest.raises(ValueError):
        ResiliencePolicy(max_retries=-1)
    with pytest.raises(ValueError):
        ResiliencePolicy(max_pool_restarts=-1)
    with pytest.raises(ValueError):
        ResiliencePolicy(backoff_base=-0.1)
    with pytest.raises(ValueError):
        ResiliencePolicy(backoff_factor=0.5)
    # None disables the timeout; the rest of the defaults are valid.
    ResiliencePolicy(task_timeout=None)


def test_seeded_skip_is_deterministic_and_seed_sensitive():
    one = FaultPlan.parse("cache-read-error:1:?", seed=1)
    same = FaultPlan.parse("cache-read-error:1:?", seed=1)
    assert one.sites == same.sites
    skips = {FaultPlan.parse("cache-read-error:1:?", seed=s)
             .sites["cache-read-error"].skip for s in range(16)}
    assert len(skips) > 1           # the seed actually moves the skip


def test_should_fire_window_semantics():
    plan = FaultPlan.parse("cache-read-error:2:1")
    fired = [plan.should_fire("cache-read-error") for _ in range(5)]
    assert fired == [False, True, True, False, False]


def test_shared_state_dir_counts_across_instances(tmp_path):
    # Two plan instances simulating two processes of one invocation:
    # the single scheduled firing is consumed exactly once globally.
    a = FaultPlan.parse("cache-read-error:1", state_dir=tmp_path)
    b = FaultPlan.parse("cache-read-error:1", state_dir=tmp_path)
    assert a.should_fire("cache-read-error") is True
    assert b.should_fire("cache-read-error") is False
    assert a.should_fire("cache-read-error") is False


def test_removed_state_dir_retires_plan(tmp_path):
    # The CLI removes the state directory when its chaos session ends.
    # A straggler process still holding the plan (a pool worker draining
    # a speculative batch) must then see a retired schedule: no firing,
    # and no recreating the directory to count from zero — that is the
    # bug where `worker-crash:1` fired a second time at shutdown.
    state = tmp_path / "faults"
    state.mkdir()
    plan = FaultPlan.parse("cache-read-error:2", state_dir=state)
    assert plan.should_fire("cache-read-error") is True
    shutil.rmtree(state)
    assert plan.should_fire("cache-read-error") is False
    assert plan.should_fire("cache-read-error") is False
    assert not state.exists()


def test_env_roundtrip_through_use_plan(monkeypatch):
    plan = FaultPlan.parse("ledger-write-error:3", seed=5)
    with use_plan(plan):
        assert os.environ[resilience.FAULTS_ENV] == plan.describe_spec()
        rebuilt = FaultPlan.from_env()
        assert rebuilt.sites == plan.sites
        assert rebuilt.seed == 5
        assert resilience.active_plan() is plan
    assert resilience.FAULTS_ENV not in os.environ
    assert resilience.active_plan() is None


def test_worker_only_sites_inert_in_parent():
    # worker-crash in the parent would kill the test process; the guard
    # must keep it inert *without consuming the arrival*.
    plan = FaultPlan.parse("worker-crash:1")
    with use_plan(plan):
        assert resilience.fault_point("worker-crash") is False
    assert plan._local_counts.get("worker-crash", 0) == 0


def test_file_lock_is_reentrant(tmp_path):
    lock = FileLock(tmp_path / "dir" / ".lock")
    with lock:
        with lock:
            assert lock._depth == 2
        assert lock._depth == 1
    assert lock._depth == 0
    assert lock._fd is None


# ----------------------------------------------------------------------
# Cache faults (and the mkstemp-leak regression)
# ----------------------------------------------------------------------

class _Unpicklable:
    def __reduce__(self):
        raise pickle.PicklingError("deliberately unpicklable")


def test_disk_put_does_not_leak_temp_file_when_pickling_raises(tmp_path):
    cache = RunCache(directory=str(tmp_path))
    cache.put("ab" * 32, {"value": _Unpicklable(), "duration": 0.0})
    assert cache.write_errors == 1
    assert list(tmp_path.rglob("*.tmp")) == []
    assert list(tmp_path.rglob("*.pkl")) == []


def test_disk_put_does_not_leak_temp_file_on_injected_write_error(
        tmp_path):
    cache = RunCache(directory=str(tmp_path))
    with use_plan(FaultPlan.parse("cache-write-error:1")):
        cache.put("cd" * 32, {"value": 1, "duration": 0.0})
        cache.put("ef" * 32, {"value": 2, "duration": 0.0})
    assert cache.write_errors == 1
    assert list(tmp_path.rglob("*.tmp")) == []
    assert len(list(tmp_path.rglob("*.pkl"))) == 1


def test_torn_cache_write_is_evicted_on_read(tmp_path):
    key = "12" * 32
    writer = RunCache(directory=str(tmp_path))
    with use_plan(FaultPlan.parse("cache-write-torn:1")):
        writer.put(key, {"value": 41, "duration": 0.0})
    reader = RunCache(directory=str(tmp_path))
    assert RunCache.is_miss(reader.get(key))
    assert reader.corrupt_dropped == 1
    # The torn entry was unlinked; a fresh store replaces it cleanly.
    reader.put(key, {"value": 42, "duration": 0.0})
    assert RunCache(directory=str(tmp_path)).get(key)["value"] == 42


def test_cache_read_error_degrades_to_miss(tmp_path):
    # An unreadable entry is evicted, not trusted: the caller sees a
    # miss, re-executes the (deterministic) run, and re-stores it.
    key = "34" * 32
    cache = RunCache(directory=str(tmp_path))
    cache.put(key, {"value": 7, "duration": 0.0})
    fresh = RunCache(directory=str(tmp_path))
    with use_plan(FaultPlan.parse("cache-read-error:1")):
        assert RunCache.is_miss(fresh.get(key))
    assert fresh.corrupt_dropped == 1
    fresh.put(key, {"value": 7, "duration": 0.0})
    assert RunCache(directory=str(tmp_path)).get(key)["value"] == 7


def test_campaign_identical_under_torn_cache_writes(tmp_path):
    program = compile_source(SOURCE)
    workload = DistinctPlans()
    clean = run_campaign(program, workload, want_failures=2,
                         want_successes=3)
    with use_plan(FaultPlan.parse("cache-write-torn:3")):
        with CampaignExecutor(jobs=1, cache=True,
                              cache_dir=tmp_path / "cache") as executor:
            torn = run_campaign(program, workload, want_failures=2,
                                want_successes=3, executor=executor)
    with CampaignExecutor(jobs=1, cache=True,
                          cache_dir=tmp_path / "cache") as executor:
        replay = run_campaign(program, workload, want_failures=2,
                              want_successes=3, executor=executor)
        assert executor.stats.cache_corrupt_dropped >= 1
    assert _campaign_signature(torn) == _campaign_signature(clean)
    assert _campaign_signature(replay) == _campaign_signature(clean)


# ----------------------------------------------------------------------
# Ledger faults: torn tails and quarantine
# ----------------------------------------------------------------------

def test_ledger_recovers_torn_tail_into_quarantine(tmp_path):
    ledger = Ledger(tmp_path)
    ledger.append(kind="diagnosis", tool="t", workload="w", seed=0)
    with open(ledger.ledger_path, "a") as handle:
        handle.write('{"torn": tr')        # killed mid-write
    entry = ledger.append(kind="diagnosis", tool="t", workload="w",
                          seed=1)
    assert entry["seq"] == 1
    with open(ledger.ledger_path) as handle:
        lines = [line for line in handle if line.strip()]
    assert [json.loads(line)["seq"] for line in lines] == [0, 1]
    with open(ledger.quarantine_path) as handle:
        assert handle.read().strip() == '{"torn": tr'


def test_injected_torn_ledger_write_recovers_on_next_append(tmp_path):
    ledger = Ledger(tmp_path)
    with use_obs(Observability()) as obs:
        with use_plan(FaultPlan.parse("ledger-write-torn:1")):
            dropped = ledger.append(kind="diagnosis", tool="t",
                                    workload="w", seed=0)
        assert dropped["seq"] is None
        landed = ledger.append(kind="diagnosis", tool="t", workload="w",
                               seed=1)
    assert landed["seq"] == 0              # torn half-line did not count
    assert len(ledger.entries()) == 1
    assert os.path.exists(ledger.quarantine_path)
    assert obs.counter("ledger.append_errors").total == 1
    assert obs.counter("ledger.quarantined").total == 1


def test_ledger_write_error_is_best_effort(tmp_path, capsys):
    ledger = Ledger(tmp_path)
    with use_plan(FaultPlan.parse("ledger-write-error:1")):
        entry = ledger.append(kind="diagnosis", tool="t", workload="w")
    assert entry["seq"] is None
    assert "ledger append failed" in capsys.readouterr().err
    assert ledger.entries() == []
    assert ledger.append(kind="diagnosis", tool="t",
                         workload="w")["seq"] == 0


_APPEND_SCRIPT = """
import sys
from repro.obs.ledger import Ledger
ledger = Ledger(sys.argv[1])
for n in range(int(sys.argv[2])):
    ledger.append(kind="diagnosis", tool=sys.argv[3], workload="w",
                  seed=n)
"""


def test_concurrent_appends_lose_nothing(tmp_path):
    # Two real processes hammering one ledger directory: the advisory
    # lock must keep every line whole and every sequence number unique.
    per_process = 20
    env = dict(os.environ, PYTHONPATH="src")
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _APPEND_SCRIPT, str(tmp_path),
             str(per_process), name],
            env=env, cwd=os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__)))),
        )
        for name in ("alpha", "beta")
    ]
    for proc in procs:
        assert proc.wait(timeout=60) == 0
    ledger = Ledger(tmp_path)
    with open(ledger.ledger_path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    assert len(records) == 2 * per_process
    seqs = [record["seq"] for record in records]
    assert sorted(seqs) == list(range(2 * per_process))
    assert not os.path.exists(ledger.quarantine_path)


# ----------------------------------------------------------------------
# Executor chaos: crashes, hangs, degradation — identical results
# ----------------------------------------------------------------------

def _chaos_campaign(executor):
    return run_campaign(compile_source(SOURCE), Thresholdy(),
                        want_failures=3, want_successes=8,
                        executor=executor)


def test_single_worker_crash_is_retried(tmp_path):
    clean = _chaos_campaign(None)
    plan = FaultPlan.parse("worker-crash:1", state_dir=tmp_path)
    with use_plan(plan):
        with CampaignExecutor(
                jobs=2, cache=False,
                resilience_policy=_fast_policy()) as executor:
            chaos = _chaos_campaign(executor)
            stats = executor.stats.resilience
    assert _campaign_signature(chaos) == _campaign_signature(clean)
    assert stats.broken_pools >= 1
    assert stats.pool_restarts >= 1
    assert not stats.degraded_serial


def test_hung_worker_times_out_and_recovers(tmp_path):
    clean = _chaos_campaign(None)
    plan = FaultPlan.parse("worker-hang:1", state_dir=tmp_path,
                           hang_seconds=60)
    with use_plan(plan):
        with CampaignExecutor(
                jobs=2, cache=False,
                resilience_policy=_fast_policy(
                    task_timeout=0.5)) as executor:
            chaos = _chaos_campaign(executor)
            stats = executor.stats.resilience
    assert _campaign_signature(chaos) == _campaign_signature(clean)
    assert stats.timeouts >= 1


def test_persistent_crashes_degrade_to_serial():
    clean = _chaos_campaign(None)
    # No state dir: counts are per-process, so every fresh worker
    # crashes at batch entry and the pool can never be kept alive.
    with use_plan(FaultPlan.parse("worker-crash:1000")):
        with CampaignExecutor(
                jobs=2, cache=False,
                resilience_policy=_fast_policy(
                    max_retries=1, max_pool_restarts=1)) as executor:
            chaos = _chaos_campaign(executor)
            stats = executor.stats
    assert _campaign_signature(chaos) == _campaign_signature(clean)
    assert stats.resilience.degraded_serial
    assert stats.resilience.inline_fallbacks >= 1
    assert stats.inline_runs > 0
    rows = dict(stats.snapshot_rows())
    assert rows["degraded to serial execution"] == "yes"


def test_injected_task_error_is_retried(tmp_path):
    clean = _chaos_campaign(None)
    plan = FaultPlan.parse("task-error:1", state_dir=tmp_path)
    with use_plan(plan):
        with CampaignExecutor(
                jobs=2, cache=False,
                resilience_policy=_fast_policy()) as executor:
            chaos = _chaos_campaign(executor)
            stats = executor.stats.resilience
    assert _campaign_signature(chaos) == _campaign_signature(clean)
    assert stats.task_errors
    assert "FaultError" in stats.task_errors[-1]["error"]
    assert stats.task_errors[-1]["traceback"]


def test_unpicklable_plan_preserves_error_and_traceback():
    class LambdaPlans(Thresholdy):
        def failing_run_plan(self, k):
            return RunPlan(args=(9,), scheduler_factory=lambda: None)

        def passing_run_plan(self, k):
            return RunPlan(args=(k % 4,), scheduler_factory=lambda: None)

    program = compile_source(SOURCE)
    with CampaignExecutor(jobs=2, cache=False) as executor:
        results = [result for _plan, result in executor.iter_runs(
            program, [LambdaPlans().failing_run_plan(0)])]
        stats = executor.stats.resilience
    assert results[0].error is not None
    assert "pickl" in results[0].error.lower()
    assert results[0].traceback      # the full traceback, not just repr
    assert stats.task_errors[0]["stage"] == "pickle:run"


def test_shortfall_warning_carries_executor_detail():
    from repro.runtime.harness import (
        CampaignShortfallWarning,
        run_campaign as rc,
    )

    class NeverFails(Thresholdy):
        def failing_run_plan(self, k):
            return RunPlan(args=(1,), scheduler_factory=lambda: None)

    program = compile_source(SOURCE)
    with CampaignExecutor(jobs=2, cache=False) as executor:
        with pytest.warns(CampaignShortfallWarning) as caught:
            rc(program, NeverFails(), want_failures=1, want_successes=0,
               max_attempts=2, executor=executor)
    message = str(caught[0].message)
    assert "executor task error(s) recorded" in message
    assert caught[0].message.detail


# ----------------------------------------------------------------------
# End-to-end through the CLI
# ----------------------------------------------------------------------

def test_cli_rejects_bad_fault_spec(tmp_path, monkeypatch):
    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    code, text = run_cli("experiment", "table5", "--inject-faults",
                         "definitely-not-a-site:1",
                         "--ledger-dir", str(tmp_path / "ledger"))
    assert code == 2
    assert "bad --inject-faults spec" in text
    # The rejected spec left no fault state directory behind.
    assert list(temp.iterdir()) == []


def test_cli_table5_identical_under_faults(tmp_path):
    code, clean = run_cli("experiment", "table5",
                          "--ledger-dir", str(tmp_path / "clean"))
    assert code == 0
    code, chaos = run_cli(
        "experiment", "table5", "--jobs", "2",
        "--inject-faults", "worker-crash:1,ledger-write-torn:1",
        "--ledger-dir", str(tmp_path / "chaos"),
    )
    assert code == 0
    assert "fault injection active" in chaos
    # The rendered table — everything the paper conformance checks —
    # must be byte-identical to the fault-free run.
    assert clean.strip() in chaos


def test_cli_diagnose_identical_under_worker_crash(tmp_path):
    code, clean = run_cli("diagnose", "sort", "--runs", "5",
                          "--no-ledger")
    assert code == 0
    code, chaos = run_cli("diagnose", "sort", "--runs", "5",
                          "--no-ledger", "--jobs", "2",
                          "--inject-faults", "worker-crash:1")
    assert code == 0
    clean_lines = [l for l in clean.splitlines() if "diagnosis" in l
                   or l.strip().startswith(tuple("0123456789"))]
    for line in clean_lines:
        assert line in chaos
