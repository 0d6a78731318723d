"""Chaos tests: the pipeline under injected I/O faults and torn writes.

The resilience contract under test: every fault class changes wall-
clock time and the counters that record it, **never results** — a
campaign run under injected torn ledger writes, cache read and write
errors, or corrupt cache pickles is bit-identical to the fault-free
run.
"""

import json
import os
import pickle
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
    FaultPlan,
    FaultSpecError,
    FileLock,
    use_plan,
)

from tests.runtime.test_cli import run_cli
from tests.runtime.test_executor import DistinctPlans, _campaign_signature
from tests.runtime.test_process_and_harness import SOURCE


@pytest.fixture(autouse=True)
def _no_ambient_plan(monkeypatch):
    """Tests control the active plan explicitly; never inherit one."""
    monkeypatch.delenv(resilience.FAULTS_ENV, raising=False)
    resilience.reset_plan_cache()
    yield
    resilience.reset_plan_cache()


# ----------------------------------------------------------------------
# FaultPlan mechanics
# ----------------------------------------------------------------------

def test_fault_plan_parse_and_roundtrip():
    plan = FaultPlan.parse("cache-read-error, ledger-write-torn:2:1",
                           seed=7)
    assert plan.sites["cache-read-error"].times == 1
    assert plan.sites["cache-read-error"].skip == 0
    assert plan.sites["ledger-write-torn"].times == 2
    assert plan.sites["ledger-write-torn"].skip == 1
    replayed = FaultPlan.parse(plan.describe_spec(), seed=7)
    assert replayed.describe_spec() == plan.describe_spec()


def test_fault_plan_rejects_garbage():
    with pytest.raises(FaultSpecError):
        FaultPlan.parse("no-such-site:1")
    with pytest.raises(FaultSpecError):
        FaultPlan.parse("cache-read-error:x")
    with pytest.raises(FaultSpecError):
        FaultPlan.parse("")
    with pytest.raises(FaultSpecError):
        FaultPlan.parse("cache-read-error:1:2:3")


def test_fault_plan_kill_modifier_parse_and_roundtrip():
    plan = FaultPlan.parse("ledger-write-torn!kill:1:2, cache-read-error")
    assert plan.sites["ledger-write-torn"].kill
    assert plan.sites["ledger-write-torn"].times == 1
    assert plan.sites["ledger-write-torn"].skip == 2
    assert not plan.sites["cache-read-error"].kill
    spec = plan.describe_spec()
    assert "ledger-write-torn!kill:1:2" in spec
    assert FaultPlan.parse(spec).describe_spec() == spec


def test_fault_plan_rejects_bad_modifier():
    with pytest.raises(FaultSpecError):
        FaultPlan.parse("cache-read-error!explode:1")
    with pytest.raises(FaultSpecError):
        FaultPlan.parse("!kill:1")


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


def test_use_plan_installs_and_restores_the_active_plan():
    plan = FaultPlan.parse("ledger-write-error:3", seed=5)
    with use_plan(plan):
        assert resilience.active_plan() is plan
        assert resilience.FAULTS_ENV not in os.environ
    assert resilience.active_plan() is None


def test_env_plan_activates_lazily(monkeypatch):
    monkeypatch.setenv(resilience.FAULTS_ENV, "cache-read-error:1:?")
    monkeypatch.setenv(resilience.FAULTS_SEED_ENV, "5")
    resilience.reset_plan_cache()
    plan = resilience.active_plan()
    assert plan.seed == 5
    assert plan.sites == FaultPlan.parse("cache-read-error:1:?",
                                         seed=5).sites


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
        torn = run_campaign(
            program, workload, want_failures=2, want_successes=3,
            executor=CampaignExecutor(cache=True,
                                      cache_dir=tmp_path / "cache"))
    executor = CampaignExecutor(cache=True, cache_dir=tmp_path / "cache")
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
# End-to-end through the CLI
# ----------------------------------------------------------------------

@pytest.mark.parametrize("command", [
    pytest.param(("experiment", "table5"), id="experiment-table5"),
    pytest.param(("obs", "conformance", "table5"),
                 id="obs-conformance-table5"),
])
def test_cli_rejects_bad_fault_spec(command, tmp_path, monkeypatch):
    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    code, text = run_cli(*command, "--inject-faults",
                         "definitely-not-a-site:1",
                         "--ledger-dir", str(tmp_path / "ledger"))
    assert code == 2
    assert text.startswith("bad --inject-faults spec: ")
    # The rejected spec left no file behind.
    assert list(temp.iterdir()) == []


def test_cli_table5_identical_under_faults(tmp_path):
    code, clean = run_cli("experiment", "table5",
                          "--ledger-dir", str(tmp_path / "clean"))
    assert code == 0
    code, chaos = run_cli(
        "experiment", "table5",
        "--inject-faults", "ledger-write-torn:1",
        "--ledger-dir", str(tmp_path / "chaos"),
    )
    assert code == 0
    assert "fault injection active" in chaos
    # The rendered table — everything the paper conformance checks —
    # must be byte-identical to the fault-free run.
    assert clean.strip() in chaos
