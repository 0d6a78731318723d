"""Tests for the CBI / CCI / PBI baseline tools."""

import pytest

from repro.baselines.cbi import BaselineUnsupportedError, CbiTool
from repro.baselines.cbi_adaptive import CbiAdaptiveTool
from repro.baselines.cci import CciTool
from repro.baselines.pbi import PbiTool
from repro.bugs.base import line_of
from repro.bugs.registry import get_bug
from repro.runtime.workload import RunPlan, Workload


class BranchBug(Workload):
    name = "branchbug"
    failure_output = "boom"
    source = """
int mode = 0;

int main(int m) {
    mode = m;
    int i = 0;
    while (i < 5) {
        i = i + 1;
    }
    if (mode == 2) {                    // root cause branch
        error(1, "tool: boom");
    }
    return 0;
}
"""

    @property
    def root_line(self):
        return line_of(self.source, "root cause branch")

    def failing_run_plan(self, k):
        return RunPlan(args=(2,))

    def passing_run_plan(self, k):
        return RunPlan(args=((0,), (1,))[k % 2])


class CppBug(BranchBug):
    name = "cppbug"
    language = "cpp"


class RaceBug(Workload):
    """Cross-thread write observed by the failure thread."""

    name = "racebug"
    failure_output = "raced"
    source = """
int value = 0;
int __pad[8];
int gate = 0;
int ack = 0;
int done = 0;

int writer(int race) {
    if (race == 1) {
        while (gate == 0) { yield_(); }
        value = 9;                      // remote write
        ack = 1;
    } else {
        while (done == 0) { yield_(); }
        value = 9;
    }
    return 0;
}

int main(int race) {
    int t = spawn writer(race);
    int v = value;
    if (race == 1) {
        gate = 1;
        while (ack == 0) { yield_(); }
    }
    v = value;                          // raced read
    done = 1;
    join(t);
    if (v != 0) {
        error(1, "tool: raced value");
    }
    return 0;
}
"""

    @property
    def raced_line(self):
        return line_of(self.source, "// raced read")

    def failing_run_plan(self, k):
        return RunPlan(args=(1,))

    def passing_run_plan(self, k):
        return RunPlan(args=(0,))


def test_cbi_finds_discriminative_branch():
    tool = CbiTool(BranchBug(), seed=3)
    diagnosis = tool.run_diagnosis(n_failures=400, n_successes=400)
    rank = diagnosis.rank_of_line([BranchBug().root_line],
                                  detail_suffix="=T")
    assert rank is not None
    assert rank <= 3
    assert tool.estimated_overhead() > 0.02


def test_cbi_needs_many_runs():
    """With very few runs, 1/100 sampling rarely catches the predicate."""
    tool = CbiTool(BranchBug(), seed=3)
    diagnosis = tool.run_diagnosis(n_failures=5, n_successes=5)
    rank = diagnosis.rank_of_line([BranchBug().root_line])
    assert rank is None or rank > 0     # usually None; never crashes


def test_cbi_rejects_cpp():
    with pytest.raises(BaselineUnsupportedError):
        CbiTool(CppBug())


def test_cci_finds_remote_access():
    tool = CciTool(RaceBug(), seed=1)
    diagnosis = tool.run_diagnosis(n_failures=300, n_successes=300)
    best = diagnosis.best()
    assert best is not None
    remote = [p for p in diagnosis.ranked
              if p.detail == "remote" and p.rank <= 3]
    assert remote, diagnosis.describe()
    assert tool.estimated_overhead() > 0.5   # CCI is expensive


def test_pbi_finds_coherence_predicate():
    workload = RaceBug()
    tool = PbiTool(workload, sample_period=5, seed=1)
    diagnosis = tool.run_diagnosis(n_failures=200, n_successes=200)
    rank = diagnosis.rank_of_line([workload.raced_line])
    assert rank is not None
    assert rank <= 5


def test_pbi_overhead_is_small_at_default_period():
    # PBI's counting is nearly free; only overflow interrupts cost.
    tool = PbiTool(RaceBug(), seed=1)
    tool.run_diagnosis(n_failures=30, n_successes=30)
    assert tool.estimated_overhead() < 0.6


def test_baseline_diagnosis_describe():
    tool = CbiTool(BranchBug())
    diagnosis = tool.run_diagnosis(n_failures=50, n_successes=50)
    assert "CBI" in diagnosis.describe()


@pytest.mark.parametrize("tool_class, bug", [
    pytest.param(CbiTool, "sort", id="CbiTool-sort"),
    pytest.param(CciTool, "mysql1", id="CciTool-mysql1"),
    pytest.param(PbiTool, "apache4", id="PbiTool-apache4"),
    pytest.param(CbiAdaptiveTool, "sort", id="CbiAdaptiveTool-sort"),
])
def test_a_baseline_run_leaves_its_tool_untouched(tool_class, bug):
    """A run is a pure function of (tool, plan, run seed): it returns
    its whole record and writes nothing to the tool, so running it
    again returns an equal record."""
    tool = tool_class(get_bug(bug))
    if tool_class is CbiAdaptiveTool:
        # Instrument every site, as the widest wave would.
        tool._active_sites = set().union(
            *tool._sites_by_function.values())
    plan = tool.workload.failing_run_plan(0)

    def state():
        return (tool.events_observed, tool.samples_taken,
                tool.retired_total, list(tool.predicate_info().items()))

    before = state()
    first = tool._run_once(plan, 7)
    second = tool._run_once(plan, 7)
    assert state() == before
    assert first == second
    assert first["retired"] > 0
