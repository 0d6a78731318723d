"""Tests for the campaign executor and its run cache."""

import os
import pickle
import subprocess
import sys

import pytest

from repro.bugs.registry import get_bug
from repro.core.lbra import LbraTool
from repro.machine.cpu import MachineConfig
from repro.runtime.executor import (
    CampaignExecutor,
    RunCache,
    fingerprint_plan,
    fingerprint_program,
)
from repro.runtime.harness import run_campaign
from repro.runtime.workload import RunPlan

from repro.compiler import compile_source
from tests.runtime.test_process_and_harness import SOURCE, Thresholdy


def _campaign_signature(result):
    return [
        (record.index, record.failed, record.status.exit_code,
         record.status.fault, tuple(record.status.output))
        for record in result.all_runs
    ]


def _diagnosis_signature(diagnosis):
    return (
        [(score.rank, score.event.event_id) for score in diagnosis.ranked],
        diagnosis.n_failure_profiles,
        diagnosis.n_success_profiles,
        str(diagnosis.failure_site),
    )


# ----------------------------------------------------------------------
# Shared executors
# ----------------------------------------------------------------------

def test_cached_baseline_runs_replay_into_a_fresh_tool():
    # A later, longer campaign on a shared run cache replays the runs an
    # earlier one executed in process.  Each replayed run must carry the
    # full predicate set it observed, not just the predicates the first
    # campaign's registry lacked at the time.
    from repro.baselines.pbi import PbiTool

    cold = PbiTool(get_bug("mysql1"))
    expected = cold.run_diagnosis(n_failures=20, n_successes=20)
    executor = CampaignExecutor(cache=True)
    PbiTool(get_bug("mysql1"), executor=executor).run_diagnosis(12, 12)
    warm = PbiTool(get_bug("mysql1"), executor=executor)
    replayed = warm.run_diagnosis(n_failures=20, n_successes=20)
    assert executor.stats.cache_hits > 0
    assert [repr(p) for p in replayed.ranked] == \
        [repr(p) for p in expected.ranked]
    assert list(warm.predicate_info()) == list(cold.predicate_info())
    assert (warm.events_observed, warm.samples_taken, warm.retired_total) \
        == (cold.events_observed, cold.samples_taken, cold.retired_total)


# ----------------------------------------------------------------------
# Cache accounting
# ----------------------------------------------------------------------

class DistinctPlans(Thresholdy):
    """Every attempt uses a distinct plan (distinct cache key)."""

    def failing_run_plan(self, k):
        return RunPlan(args=(6 + k,))


def test_cache_hit_miss_accounting():
    workload = DistinctPlans()
    program = compile_source(SOURCE)
    executor = CampaignExecutor(cache=True)
    first = run_campaign(program, workload, want_failures=2,
                         want_successes=3, executor=executor)
    after_first = (executor.stats.cache_hits, executor.stats.cache_misses)
    second = run_campaign(program, workload, want_failures=2,
                          want_successes=3, executor=executor)
    after_second = (executor.stats.cache_hits, executor.stats.cache_misses)
    assert _campaign_signature(first) == _campaign_signature(second)
    # Cold pass: every consumed attempt missed; no hits.
    assert after_first == (0, first.attempts)
    # Warm pass: every attempt replayed; no new misses.
    assert after_second == (second.attempts, first.attempts)
    assert executor.stats.inline_runs == first.attempts


def test_repeated_plans_hit_within_one_campaign():
    # Thresholdy's failing plan is the same every attempt, so even a
    # single cold campaign replays the repeats from the cache.
    workload = Thresholdy()
    program = compile_source(SOURCE)
    executor = CampaignExecutor(cache=True)
    result = run_campaign(program, workload, want_failures=3,
                          want_successes=0, executor=executor)
    assert result.attempts == 3
    assert executor.stats.cache_misses == 1
    assert executor.stats.cache_hits == 2


def test_each_attempt_resolves_when_pulled(monkeypatch):
    """An attempt is built, looked up and executed only when the
    consumer pulls it: a consumer that stops early executes nothing
    past its stop, and each keyed attempt reads the cache once."""
    program = compile_source(SOURCE)
    built = []

    def plans():
        for k in range(100):
            built.append(k)
            yield RunPlan(args=(k % 6,))

    gets = []
    original_get = RunCache.get

    def counting_get(cache, key):
        gets.append(key)
        return original_get(cache, key)

    monkeypatch.setattr(RunCache, "get", counting_get)
    executor = CampaignExecutor()
    runs = executor.iter_runs(program, plans())
    taken = [next(runs) for _ in range(8)]
    runs.close()
    assert built == list(range(8))
    assert len(gets) == 8
    assert executor.stats.attempts == 8
    assert executor.stats.inline_runs == executor.stats.cache_misses == 6
    assert [result.cached for _plan, result in taken] \
        == [False] * 6 + [True] * 2


def test_uncacheable_plans_execute_every_attempt():
    """A plan whose scheduler cannot be fingerprinted is never looked
    up or stored: every attempt executes, and its outcome is the one a
    default executor produces."""
    class LambdaPlans(Thresholdy):
        def failing_run_plan(self, k):
            return RunPlan(args=(9,), scheduler_factory=lambda: None)

        def passing_run_plan(self, k):
            return RunPlan(args=(k % 4,), scheduler_factory=lambda: None)

    program = compile_source(SOURCE)
    expected = run_campaign(program, LambdaPlans(), want_failures=2,
                            want_successes=2)
    executor = CampaignExecutor(cache=True)
    for _ in range(2):
        result = run_campaign(program, LambdaPlans(), want_failures=2,
                              want_successes=2, executor=executor)
        assert _campaign_signature(result) == \
            _campaign_signature(expected)
    assert executor.stats.inline_runs == 2 * result.attempts
    assert executor.stats.cache_hits == executor.stats.cache_misses == 0
    assert executor.cache.stores == 0


def test_a_command_imports_no_process_pool():
    """Every attempt runs in process: a whole ``repro diagnose`` imports
    neither ``multiprocessing`` nor ``concurrent.futures``."""
    script = (
        "import io, sys\n"
        "from repro.cli import main\n"
        "assert main(['diagnose', 'sort', '--no-ledger'],"
        " out=io.StringIO()) == 0\n"
        "print(sorted(name for name in ('multiprocessing',"
        " 'concurrent.futures') if name in sys.modules))\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _log_tool(name):
    from repro.core.api import get_log_tool

    bug = get_bug(name)
    kind = "lbrlog" if bug.category == "sequential" else "lcrlog"
    return bug, get_log_tool(kind)(bug)


def _population():
    from repro.bugs import synth
    from repro.bugs.registry import bug_names

    return sorted(bug_names()) + list(synth.population_names(8, seed=0))


@pytest.mark.parametrize("name", _population())
def test_default_executor_replays_repeats_as_fresh_runs(name):
    """Cache-hit ≡ fresh on every corpus bug and a generated population:
    the default executor yields, for each plan, the status a fresh run
    of that plan returns, and executes each distinct plan once."""
    from repro.runtime.process import execute_plan

    bug, tool = _log_tool(name)
    plans = ([bug.failing_run_plan(k) for k in range(4)]
             + [bug.passing_run_plan(k)
                for k in range(len(bug.passing_args) + 2)])
    executor = CampaignExecutor()
    statuses = [result.status for _plan, result in executor.iter_runs(
        tool.program, plans, tool.machine_config)]
    assert statuses == [
        execute_plan(tool.program, plan, tool.machine_config).status
        for plan in plans]
    assert executor.stats.inline_runs \
        == len({fingerprint_plan(plan) for plan in plans})
    assert executor.stats.cache_hits \
        == len(plans) - executor.stats.inline_runs


def test_disk_cache_survives_across_executors(tmp_path):
    workload = DistinctPlans()
    program = compile_source(SOURCE)
    cache_dir = tmp_path / "cache"
    executor = CampaignExecutor(cache=True, cache_dir=cache_dir)
    cold = run_campaign(program, workload, want_failures=2,
                        want_successes=2, executor=executor)
    assert executor.stats.cache_stores == cold.attempts
    executor = CampaignExecutor(cache=True, cache_dir=cache_dir)
    warm = run_campaign(program, workload, want_failures=2,
                        want_successes=2, executor=executor)
    assert executor.stats.cache_hits_disk == warm.attempts
    assert executor.stats.inline_runs == 0
    assert _campaign_signature(cold) == _campaign_signature(warm)


def test_poisoned_cache_entry_discarded_not_crashing(tmp_path):
    workload = DistinctPlans()
    program = compile_source(SOURCE)
    cache_dir = tmp_path / "cache"
    cold = run_campaign(program, workload, want_failures=2,
                        want_successes=2,
                        executor=CampaignExecutor(cache=True,
                                                  cache_dir=cache_dir))
    # Poison every on-disk entry with content that is not valid pickle.
    poisoned = list(cache_dir.rglob("*.pkl"))
    assert poisoned
    for path in poisoned:
        path.write_bytes(b"not a pickle at all")
    executor = CampaignExecutor(cache=True, cache_dir=cache_dir)
    warm = run_campaign(program, workload, want_failures=2,
                        want_successes=2, executor=executor)
    assert executor.stats.cache_corrupt_dropped >= warm.attempts
    assert executor.stats.cache_hits == 0
    assert _campaign_signature(cold) == _campaign_signature(warm)
    # Poisoned files were deleted, then re-stored with fresh results.
    for path in poisoned:
        if path.exists():
            with open(path, "rb") as handle:
                pickle.load(handle)      # must be valid again


def test_stale_format_version_is_discarded(tmp_path):
    cache = RunCache(directory=str(tmp_path))
    cache.put("ab" * 32, {"value": 1, "duration": 0.5})
    path = tmp_path / ("ab" * 32)[:2] / (("ab" * 32) + ".pkl")
    payload = {"format": -1, "value": 1, "duration": 0.5}
    path.write_bytes(pickle.dumps(payload))
    fresh = RunCache(directory=str(tmp_path))
    assert RunCache.is_miss(fresh.get("ab" * 32))
    assert fresh.corrupt_dropped == 1


def test_memory_cache_lru_eviction():
    cache = RunCache(memory_capacity=2)
    for key in ("a", "b", "c"):
        cache.put(key, {"value": key, "duration": 0.0})
    assert RunCache.is_miss(cache.get("a"))       # evicted
    assert cache.get("b")["value"] == "b"
    assert cache.get("c")["value"] == "c"


# ----------------------------------------------------------------------
# Fingerprints and degraded modes
# ----------------------------------------------------------------------

def test_program_fingerprint_distinguishes_programs():
    one = compile_source(SOURCE)
    two = compile_source(SOURCE.replace("threshold = 5",
                                        "threshold = 6"))
    assert fingerprint_program(one) != fingerprint_program(two)
    assert fingerprint_program(one) == fingerprint_program(one)


def test_plan_with_anonymous_scheduler_is_uncacheable():
    assert fingerprint_plan(RunPlan(args=(1,))) is not None
    anonymous = RunPlan(args=(1,), scheduler_factory=lambda: None)
    assert fingerprint_plan(anonymous) is None


def test_plan_with_cache_token_scheduler_is_cacheable():
    def factory():
        return None

    factory.cache_token = "rr-seed-7"
    tokened = RunPlan(args=(1,), scheduler_factory=factory)
    assert fingerprint_plan(tokened) is not None
    assert fingerprint_plan(tokened) != fingerprint_plan(RunPlan(args=(1,)))


def test_run_one_matches_direct_execution():
    from repro.runtime.process import execute_plan

    program = compile_source(SOURCE)
    plan = RunPlan(args=(9,))
    config = MachineConfig()
    direct = execute_plan(program, plan, config)
    executor = CampaignExecutor(cache=True)
    result = executor.run_one(program, plan, config)
    replay = executor.run_one(program, plan, config)
    assert result.status.exit_code == direct.status.exit_code
    assert result.hwop_counts == direct.hwop_counts
    assert not result.cached
    assert replay.cached
    assert replay.status.exit_code == direct.status.exit_code


def test_campaigns_without_an_executor_run_on_a_default_one():
    """No executor given: every run goes through the tool's own
    ``CampaignExecutor()``, in process.  Each distinct plan executes
    once and its repeats replay from memory; a baseline campaign records
    each distinct plan once and derives every attempt's record from
    that recording."""
    from repro.baselines import CbiTool
    from repro.core.lbrlog import LbrLogTool

    def in_process(stats, attempts, distinct):
        assert stats.attempts == attempts
        assert stats.inline_runs == stats.cache_misses == distinct
        assert stats.cache_hits == attempts - distinct

    def distinct_plans(workload, n_failing, n_passing):
        return len({fingerprint_plan(workload.failing_run_plan(k))
                    for k in range(n_failing)}
                   | {fingerprint_plan(workload.passing_run_plan(k))
                      for k in range(n_passing)})

    result = run_campaign(compile_source(SOURCE), Thresholdy(),
                          want_failures=2, want_successes=3)
    in_process(result.executor_stats, result.attempts,
               distinct_plans(Thresholdy(), 2, 3))

    bug = get_bug("sort")
    lbra = LbraTool(bug)
    diagnosis = lbra.run_diagnosis(4, 4)
    assert (len(diagnosis.failing_statuses),
            len(diagnosis.passing_statuses)) == (4, 4)
    in_process(lbra.executor.stats, 8, distinct_plans(bug, 4, 4))

    cbi = CbiTool(bug)
    baseline = cbi.run_diagnosis(n_failures=5, n_successes=5)
    # Every failing attempt of sort fails, so the passing phase starts
    # at attempt 5.
    in_process(cbi.executor.stats,
               baseline.n_failures + baseline.n_successes,
               len({fingerprint_plan(bug.failing_run_plan(k))
                    for k in range(5)}
                   | {fingerprint_plan(bug.passing_run_plan(k))
                      for k in range(5, 10)}))

    lbrlog = LbrLogTool(bug)
    lbrlog.run_failing(0)
    lbrlog.run_failing(1)
    in_process(lbrlog.executor.stats, 2, distinct_plans(bug, 2, 0))


def test_stats_rows_render_through_report():
    from repro.experiments.report import executor_stats_result

    executor = CampaignExecutor(cache=True)
    executor.run_one(compile_source(SOURCE), RunPlan(args=(1,)),
                     MachineConfig())
    result = executor_stats_result(executor)
    assert result is not None
    text = result.format()
    assert "cache misses" in text
    assert "wall clock" in text


def test_every_artifact_carries_the_executor_venue_record(tmp_path):
    from repro.core.api import get_tool
    from repro.fleet import FleetStream, triage_reports
    from repro.obs.ledger import Ledger, use as use_ledger
    from repro.obs.timeseries import read_snapshot

    ledger = Ledger(str(tmp_path / "ledger"))
    snapshot = tmp_path / "snapshot.json"
    executor = CampaignExecutor(cache=True)
    with use_ledger(ledger):
        report = get_tool("lbra")(get_bug("sort"),
                                  executor=executor).run_diagnosis(3, 3)
        record = executor.stats.to_dict()
        assert set(record) == {"attempts", "inline_runs", "cache_hits",
                               "cache_misses"}
        assert ledger.entries(kind="diagnosis")[-1]["executor"] == record
        assert report.campaign["executor"] == record

        reports = FleetStream(population=["sort"], seed=0,
                              executor=executor).generate(2)
        triage_reports(reports, runs=3, executor=executor, seed=0,
                       snapshot_path=str(snapshot))
        assert read_snapshot(str(snapshot))["executor"] == \
            executor.stats.to_dict()
