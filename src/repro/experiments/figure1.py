"""Figure 1 — the design-space of production-run diagnosis approaches.

The paper's Figure 1 contrasts three approaches by how much of the
execution they capture.  This experiment quantifies the trade-off on
the 20 sequential failures: the failure-site approach captures no
execution history; the short-term-memory approach (LBR of 4/8/16/32
entries) captures the recent window; the whole-execution approach (BTS)
captures everything but at 20–100% overhead (the paper's [31]).

For each record size, the capture rate is the fraction of failures
whose root-cause (or root-cause-related) branch is inside the window.
"""

from repro.bugs.registry import sequential_bugs
from repro.core.lbrlog import LbrLogTool
from repro.hwpmu.bts import attach_bts
from repro.experiments.report import ExperimentResult, traced
from repro.runtime.process import execute_plan

#: Whole-execution branch tracing overhead range from the paper ([31]).
BTS_OVERHEAD = "20% - 100%"


def _capture_rate(capacity, executor=None):
    captured = 0
    bugs = sequential_bugs()
    for bug in bugs:
        tool = LbrLogTool(bug, ring_capacity=capacity,
                          executor=executor)
        for k in range(10):
            status = tool.run_failing(k)
            if bug.is_failure(status):
                break
        report = tool.report(status)
        lines = tuple(bug.root_cause_lines) + tuple(bug.related_lines)
        if report.position_of_line(lines) is not None:
            captured += 1
    return captured, len(bugs)


def _bts_capture_and_overhead():
    """Trace whole executions with the BTS model; measure capture and
    modeled overhead directly."""
    captured = 0
    overheads = []
    bugs = sequential_bugs()
    for bug in bugs:
        tool = LbrLogTool(bug)     # same enhanced build; ring unused
        tracers = []
        status = execute_plan(
            tool.program, bug.failing_run_plan(0), tool.machine_config,
            attach=lambda machine: tracers.append(attach_bts(machine)),
        ).status
        bts = tracers[0]
        overheads.append(bts.modeled_overhead(status.retired))
        lines = set(bug.root_cause_lines) | set(bug.related_lines)
        for entry in bts.entries():
            branch = tool.program.debug_info.branch_at(
                entry.from_address
            )
            if branch is not None and branch.location.line in lines:
                captured += 1
                break
    mean_overhead = sum(overheads) / len(overheads)
    return captured, len(bugs), mean_overhead


@traced("experiment.figure1")
def run(capacities=(4, 8, 16, 32), executor=None):
    """Quantify Figure 1's trade-off.

    The BTS stage attaches a tracer to a live machine and so always
    runs in-process; the LBR capture sweeps use *executor* when given.
    """
    rows = [("failure-site only", "none", "0/20", "~0%")]
    captured_16 = None
    for capacity in capacities:
        captured, total = _capture_rate(capacity, executor=executor)
        if capacity == 16:
            captured_16 = captured
        rows.append((
            "short-term memory (LBR %d)" % capacity,
            "last %d taken branches" % capacity,
            "%d/%d" % (captured, total),
            "< 3%",
        ))
    bts_captured, bts_total, bts_overhead = _bts_capture_and_overhead()
    rows.append((
        "whole execution (BTS)", "all branches",
        "%d/%d" % (bts_captured, bts_total),
        "%.0f%% measured (paper: %s)" % (100 * bts_overhead,
                                         BTS_OVERHEAD),
    ))
    return ExperimentResult(
        name="figure1",
        title="Figure 1: diagnosis approaches - captured state vs "
              "run-time overhead",
        headers=["approach", "state captured",
                 "root cause in window", "overhead"],
        rows=rows,
        notes=["16-entry LBR captures %s/20 root-cause(-related) "
               "branches" % captured_16],
    )
