"""Tests for the parallel campaign executor and its run cache."""

import pickle

import pytest

from repro.bugs.registry import get_bug
from repro.core.lbra import LbraTool
from repro.core.lcra import LcraTool
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
# Parallel == sequential
# ----------------------------------------------------------------------

def test_parallel_campaign_matches_sequential():
    workload = Thresholdy()
    program = compile_source(SOURCE)
    sequential = run_campaign(program, workload, want_failures=3,
                              want_successes=4)
    with CampaignExecutor(jobs=2, cache=True) as executor:
        parallel = run_campaign(program, workload, want_failures=3,
                                want_successes=4, executor=executor)
    assert _campaign_signature(parallel) == \
        _campaign_signature(sequential)
    assert parallel.attempts == sequential.attempts


def test_parallel_diagnosis_matches_sequential_for_sequential_bug():
    sequential = LbraTool(get_bug("sort")).run_diagnosis(6, 6)
    with CampaignExecutor(jobs=2, cache=True) as executor:
        parallel = LbraTool(get_bug("sort"),
                            executor=executor).run_diagnosis(6, 6)
    assert _diagnosis_signature(parallel) == \
        _diagnosis_signature(sequential)


def test_parallel_diagnosis_matches_sequential_for_concurrency_bug():
    sequential = LcraTool(get_bug("apache4")).run_diagnosis(6, 6)
    with CampaignExecutor(jobs=2, cache=True) as executor:
        parallel = LcraTool(get_bug("apache4"),
                            executor=executor).run_diagnosis(6, 6)
    assert _diagnosis_signature(parallel) == \
        _diagnosis_signature(sequential)


def test_parallel_baseline_matches_sequential():
    from repro.baselines.cbi import CbiTool

    sequential_tool = CbiTool(get_bug("sort"))
    sequential = sequential_tool.run_diagnosis(n_failures=25, n_successes=25)
    with CampaignExecutor(jobs=2, cache=True) as executor:
        parallel_tool = CbiTool(get_bug("sort"), executor=executor)
        parallel = parallel_tool.run_diagnosis(n_failures=25, n_successes=25)
    assert [repr(p) for p in parallel.ranked] == \
        [repr(p) for p in sequential.ranked]
    assert (parallel.n_failures, parallel.n_successes) == \
        (sequential.n_failures, sequential.n_successes)
    assert parallel_tool.events_observed == \
        sequential_tool.events_observed
    assert parallel_tool.samples_taken == sequential_tool.samples_taken
    assert parallel_tool.retired_total == sequential_tool.retired_total


def test_cached_baseline_runs_replay_into_a_fresh_tool():
    # A later, longer campaign on a shared run cache replays the runs an
    # earlier one executed in process.  Each replayed run must carry the
    # full predicate set it observed, not just the predicates the first
    # campaign's registry lacked at the time.
    from repro.baselines.pbi import PbiTool

    cold = PbiTool(get_bug("mysql1"))
    expected = cold.run_diagnosis(n_failures=20, n_successes=20)
    with CampaignExecutor(jobs=1, cache=True) as executor:
        PbiTool(get_bug("mysql1"),
                executor=executor).run_diagnosis(12, 12)
        warm = PbiTool(get_bug("mysql1"), executor=executor)
        replayed = warm.run_diagnosis(n_failures=20, n_successes=20)
        assert executor.stats.cache_hits > 0
    assert [repr(p) for p in replayed.ranked] == \
        [repr(p) for p in expected.ranked]
    assert list(warm.predicate_info()) == list(cold.predicate_info())
    assert (warm.events_observed, warm.samples_taken, warm.retired_total) \
        == (cold.events_observed, cold.samples_taken, cold.retired_total)


def test_pool_workers_actually_used():
    workload = Thresholdy()
    program = compile_source(SOURCE)
    with CampaignExecutor(jobs=2, cache=False) as executor:
        run_campaign(program, workload, want_failures=3,
                     want_successes=8, executor=executor)
        stats = executor.stats
    assert stats.pool_runs > 0
    assert stats.workers_used >= 1
    assert all(isinstance(pid, int) for pid in stats.worker_pids)


def test_program_that_ran_in_process_still_ships_to_the_pool():
    """The closure tables a run caches on its program stay out of the
    program's pickled state."""
    from repro.compiler.frontend import compile_module
    from repro.runtime.process import execute_plan

    bug = get_bug("sort")
    program = compile_module(bug.build_module())
    config = MachineConfig(num_cores=bug.num_cores, backend="threaded")
    # Eight distinct plans (step budgets differ, outcomes do not), so no
    # run replays an earlier one and each still ships to a worker.
    plans = [RunPlan(args=bug.failing_args,
                     max_steps=bug.run_max_steps + k) for k in range(8)]
    expected = execute_plan(program, plans[0], config).status
    with CampaignExecutor(jobs=2, cache=False) as executor:
        results = [result for _plan, result
                   in executor.iter_runs(program, plans, config)]
        assert executor.stats.unpicklable_tasks == 0
    assert all(isinstance(result.worker_pid, int) for result in results)
    assert [result.status for result in results] == [expected] * 8


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
    with CampaignExecutor(jobs=1, cache=True) as executor:
        first = run_campaign(program, workload, want_failures=2,
                             want_successes=3, executor=executor)
        after_first = (executor.stats.cache_hits,
                       executor.stats.cache_misses)
        second = run_campaign(program, workload, want_failures=2,
                              want_successes=3, executor=executor)
        after_second = (executor.stats.cache_hits,
                        executor.stats.cache_misses)
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
    with CampaignExecutor(jobs=1, cache=True) as executor:
        result = run_campaign(program, workload, want_failures=3,
                              want_successes=0, executor=executor)
        assert result.attempts == 3
        assert executor.stats.cache_misses == 1
        assert executor.stats.cache_hits == 2


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
    with CampaignExecutor(jobs=1, cache=True,
                          cache_dir=cache_dir) as executor:
        cold = run_campaign(program, workload, want_failures=2,
                            want_successes=2, executor=executor)
        assert executor.stats.cache_stores == cold.attempts
    with CampaignExecutor(jobs=1, cache=True,
                          cache_dir=cache_dir) as executor:
        warm = run_campaign(program, workload, want_failures=2,
                            want_successes=2, executor=executor)
        assert executor.stats.cache_hits_disk == warm.attempts
        assert executor.stats.inline_runs == 0
        assert executor.stats.pool_runs == 0
    assert _campaign_signature(cold) == _campaign_signature(warm)


def test_poisoned_cache_entry_discarded_not_crashing(tmp_path):
    workload = DistinctPlans()
    program = compile_source(SOURCE)
    cache_dir = tmp_path / "cache"
    with CampaignExecutor(jobs=1, cache=True,
                          cache_dir=cache_dir) as executor:
        cold = run_campaign(program, workload, want_failures=2,
                            want_successes=2, executor=executor)
    # Poison every on-disk entry with content that is not valid pickle.
    poisoned = list(cache_dir.rglob("*.pkl"))
    assert poisoned
    for path in poisoned:
        path.write_bytes(b"not a pickle at all")
    with CampaignExecutor(jobs=1, cache=True,
                          cache_dir=cache_dir) as executor:
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


def test_unpicklable_plan_falls_back_to_inline_execution():
    workload = Thresholdy()
    program = compile_source(SOURCE)

    class LambdaPlans(Thresholdy):
        def failing_run_plan(self, k):
            return RunPlan(args=(9,), scheduler_factory=lambda: None)

        def passing_run_plan(self, k):
            return RunPlan(args=(k % 4,), scheduler_factory=lambda: None)

    sequential = run_campaign(program, LambdaPlans(), want_failures=2,
                              want_successes=2)
    with CampaignExecutor(jobs=2, cache=True) as executor:
        parallel = run_campaign(program, LambdaPlans(), want_failures=2,
                                want_successes=2, executor=executor)
        assert executor.stats.unpicklable_tasks > 0
        assert executor.stats.pool_runs == 0
        assert executor.stats.inline_runs == parallel.attempts
    assert _campaign_signature(parallel) == \
        _campaign_signature(sequential)
    del workload


def test_run_one_matches_direct_execution():
    from repro.runtime.process import execute_plan

    program = compile_source(SOURCE)
    plan = RunPlan(args=(9,))
    config = MachineConfig()
    direct = execute_plan(program, plan, config)
    with CampaignExecutor(jobs=1, cache=True) as executor:
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
        assert stats.jobs == 1
        assert stats.attempts == attempts
        assert stats.pool_runs == 0
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

    with CampaignExecutor(jobs=1, cache=True) as executor:
        executor.run_one(compile_source(SOURCE), RunPlan(args=(1,)),
                         MachineConfig())
        result = executor_stats_result(executor)
    assert result is not None
    text = result.format()
    assert "cache misses" in text
    assert "wall clock" in text


@pytest.mark.parametrize("tool_class, bug, options", [
    pytest.param("CbiTool", "sort", {}, id="CbiTool-sort"),
    pytest.param("CciTool", "mysql1", {}, id="CciTool-mysql1"),
    pytest.param("PbiTool", "apache4", {}, id="PbiTool-apache4"),
    pytest.param("CbiTool", "sort", {"sampling_rate": 0.5},
                 id="CbiTool-sort-rate"),
    pytest.param("CciTool", "mysql1", {"sampling_rate": 0.5, "seed": 3},
                 id="CciTool-mysql1-rate-seed"),
    pytest.param("PbiTool", "apache4", {"sample_period": 40},
                 id="PbiTool-apache4-period"),
])
def test_pickled_baseline_tool_is_a_fresh_clone(tool_class, bug, options):
    """Pool workers receive a tool as its clone: every option but the
    executor, the same fingerprint, and none of the sender's counters,
    predicates or executor."""
    from repro import baselines
    from repro.runtime.executor import fingerprint_tool

    with CampaignExecutor(jobs=1, cache=True) as executor:
        tool = getattr(baselines, tool_class)(get_bug(bug),
                                              executor=executor,
                                              **options)
        tool.run_diagnosis(n_failures=5, n_successes=5)
    assert tool.events_observed and tool.retired_total
    clone = pickle.loads(pickle.dumps(tool))
    assert type(clone) is type(tool)
    assert clone.options == dict(tool.options, executor=None)
    assert fingerprint_tool(clone) == fingerprint_tool(tool)
    assert (clone.events_observed, clone.samples_taken,
            clone.retired_total) == (0, 0, 0)
    assert getattr(clone, "_predicates", {}) == {}
    assert clone.executor is not executor
    assert not clone.executor.cache_all
    assert clone.executor.cache.directory is None
    assert clone.executor.cache.stores == 0
    assert clone.executor.stats.attempts == 0


def test_every_artifact_carries_the_executor_venue_record(tmp_path):
    from repro.core.api import get_tool
    from repro.fleet import FleetStream, triage_reports
    from repro.obs.ledger import Ledger, use as use_ledger
    from repro.obs.timeseries import read_snapshot

    ledger = Ledger(str(tmp_path / "ledger"))
    snapshot = tmp_path / "snapshot.json"
    with use_ledger(ledger), \
            CampaignExecutor(jobs=1, cache=True) as executor:
        report = get_tool("lbra")(get_bug("sort"),
                                  executor=executor).run_diagnosis(3, 3)
        record = executor.stats.to_dict()
        assert set(record) == {"jobs", "attempts", "pool_runs",
                               "inline_runs", "cache_hits",
                               "cache_misses", "workers_used"}
        assert ledger.entries(kind="diagnosis")[-1]["executor"] == record
        assert report.campaign["executor"] == record

        reports = FleetStream(population=["sort"], seed=0,
                              executor=executor).generate(2)
        triage_reports(reports, runs=3, executor=executor, seed=0,
                       snapshot_path=str(snapshot))
        assert read_snapshot(str(snapshot))["executor"] == \
            executor.stats.to_dict()
