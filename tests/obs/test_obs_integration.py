"""Observability threaded through the machine → executor → tool stack.

Run spans and metrics are recorded where a campaign consumes its runs,
in plan order: executed runs record under the current obs, and runs
replayed from the run cache get a synthesized ``interp.run`` span.
"""

from repro.bugs.registry import get_bug
from repro.core.lbra import LbraTool
from repro.core.logtool import build_plain_program
from repro.machine.cpu import Machine, MachineConfig
from repro.obs import NULL_OBS, Observability, get_obs, use
from repro.obs.report import render_report, tree_shape
from repro.obs.sampling import SampledProfiler
from repro.obs.timeseries import read_snapshot
from repro.runtime.executor import CampaignExecutor


def test_default_obs_is_the_shared_null_bundle():
    assert get_obs() is NULL_OBS
    assert not NULL_OBS.enabled
    with NULL_OBS.span("free"):                  # no-op, no allocation
        pass
    assert list(NULL_OBS.tracer.records) == []


def test_use_installs_and_restores():
    obs = Observability()
    with use(obs) as installed:
        assert installed is obs
        assert get_obs() is obs
        with use(Observability()) as inner:
            assert get_obs() is inner
        assert get_obs() is obs
    assert get_obs() is NULL_OBS


def test_machine_harvest_records_hardware_counts():
    bug = get_bug("sort")
    plan = bug.failing_run_plan(0)
    program = build_plain_program(bug)
    with use(Observability()) as obs:
        machine = Machine(program,
                          config=MachineConfig(num_cores=bug.num_cores),
                          scheduler=plan.make_scheduler())
        machine.load(args=plan.args)
        for name, value in plan.globals_setup.items():
            machine.set_global(name, value)
        machine.run(max_steps=plan.max_steps)
    assert obs.counter("machine.runs").total == 1
    assert obs.counter("machine.instructions_retired").total > 0
    assert obs.counter("cache.bus_transactions").total > 0
    sketches = obs.metrics.to_dict()["sketches"]
    assert sketches["machine.run_retired"]["count"] == 1
    assert sketches["machine.run_retired"]["timing"] is False
    assert sketches["machine.run_seconds"]["timing"] is True


def test_profile_hook_drives_sampled_profiler():
    bug = get_bug("sort")
    plan = bug.failing_run_plan(0)
    program = build_plain_program(bug)
    machine = Machine(program,
                      config=MachineConfig(num_cores=bug.num_cores),
                      scheduler=plan.make_scheduler())
    profiler = SampledProfiler(period=50)
    profiler.install(machine)
    machine.load(args=plan.args)
    for name, value in plan.globals_setup.items():
        machine.set_global(name, value)
    status = machine.run(max_steps=plan.max_steps)
    assert profiler.sample_count == status.retired // 50
    hot = profiler.hot_lines(program, n=3)
    assert hot and hot[0][2] >= 1                  # hits on some line
    assert "sampled profile" in profiler.describe(program)


def _diagnosis_obs(executor):
    bug = get_bug("sort")
    with use(Observability()) as obs:
        tool = LbraTool(bug, executor=executor)
        tool.run_diagnosis(n_failures=3, n_successes=3)
    return obs


def test_replayed_runs_trace_the_same_tree():
    """A diagnosis whose runs all replay from the run cache traces the
    same span tree as the one that executed them: each replay gets a
    synthesized ``interp.run`` span, marked cached."""
    executor = CampaignExecutor()
    cold = _diagnosis_obs(executor)
    warm = _diagnosis_obs(executor)
    assert cold.counter("machine.runs").total > 0
    assert warm.counter("machine.runs").total == 0
    assert tree_shape(warm.tracer.records) \
        == tree_shape(cold.tracer.records)
    runs = [record for record in warm.tracer.records
            if record["name"] == "interp.run"]
    assert runs and all(record["attrs"]["cached"] for record in runs)


def test_report_renders_and_shapes_compare(tmp_path):
    obs = _diagnosis_obs(None)
    records = list(obs.tracer.records)
    text = render_report(records)
    assert "diagnose.lbra" in text
    assert "interp.run" in text
    top = render_report(records, top=1)
    assert len(top.splitlines()) == 4              # header + rule + 1 row

    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.json"
    obs.export(trace_path=str(trace), metrics_path=str(metrics))
    from repro.obs.report import render_report_file
    assert "diagnose.lbra" in render_report_file(str(trace))
    snapshot = read_snapshot(str(metrics))
    assert snapshot["complete"] is True
    assert snapshot["series"]["windowed"]["machine.runs"]["total"] > 0


def test_render_report_empty_trace():
    assert "empty" in render_report([])


def test_disabled_path_records_nothing_during_diagnosis():
    bug = get_bug("sort")
    assert get_obs() is NULL_OBS
    LbraTool(bug).run_diagnosis(n_failures=2, n_successes=2)
    assert get_obs() is NULL_OBS
    assert list(NULL_OBS.tracer.records) == []
    assert NULL_OBS.metrics.to_dict()["windowed"] == {}
