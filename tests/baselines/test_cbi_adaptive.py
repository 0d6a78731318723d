"""Tests for the CBI-adaptive baseline."""

from repro.baselines.cbi import CbiTool
from repro.baselines.cbi_adaptive import CbiAdaptiveTool
from repro.bugs.registry import get_bug
from repro.runtime.workload import RunPlan, Workload


def test_adaptive_tool_builds_no_executor(monkeypatch):
    """Its OPTIONS take no executor (the waves run in process through
    ``_run_once``), so constructing the tool builds none."""
    from repro.baselines import base

    built = []
    executor_class = base.CampaignExecutor

    def counting_executor(*args, **kwargs):
        built.append(args)
        return executor_class(*args, **kwargs)

    monkeypatch.setattr(base, "CampaignExecutor", counting_executor)
    tool = CbiAdaptiveTool(get_bug("sort"))
    assert tool.executor is None
    assert built == []


def test_adaptive_converges_on_sort():
    tool = CbiAdaptiveTool(get_bug("sort"), runs_per_iteration=15)
    outcome = tool.run_diagnosis()
    assert outcome.converged
    assert outcome.iterations >= 1
    assert 0.0 < outcome.fraction_evaluated <= 1.0
    assert outcome.ranked


def test_adaptive_expands_from_failure_function():
    bug = get_bug("sort")
    tool = CbiAdaptiveTool(bug, runs_per_iteration=10)
    outcome = tool.run_diagnosis()
    # The wave starts at the crashing function and grows outward.
    assert outcome.wave_functions[0] == "hash_lookup"


def test_adaptive_needs_iterations_where_lbra_needs_none():
    """The structural contrast of Section 8: LBRA ships no updates."""
    bug = get_bug("apache1")
    tool = CbiAdaptiveTool(bug, runs_per_iteration=10)
    outcome = tool.run_diagnosis()
    assert outcome.iterations >= 1
    assert outcome.predicates_evaluated >= 1


def test_predicate_universe_counts_conditionals():
    tool = CbiAdaptiveTool(get_bug("rm"))
    total = sum(len(s) for s in tool._sites_by_function.values())
    assert total > 5      # app + stdlib conditional sites


class _TableWorkload(Workload):
    """Fails exactly when the array global's third word is 7."""

    name = "table"
    num_cores = 1
    source = """
int table[4];
int main() {
    if (table[2] == 7) {
        return 1;
    }
    return 0;
}
"""

    def failing_run_plan(self, k):
        return RunPlan(globals_setup={"table": [5, 6, 7, 8]})

    def passing_run_plan(self, k):
        return RunPlan(globals_setup={"table": [5, 6, 0, 8]})


def test_array_globals_fail_for_adaptive_and_cbi_alike():
    """Both tools run a plan's array global element by element."""
    workload = _TableWorkload()
    plan = workload.failing_run_plan(0)
    for tool in (CbiTool(workload), CbiAdaptiveTool(workload)):
        assert tool._run_once(plan, 0)["failed"], type(tool).__name__
