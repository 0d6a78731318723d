"""Run-time overhead measurement (Sections 7.1.3 and 7.2).

The paper measures overheads on workloads "that represent the common
scenarios in production runs and do not lead to failures".  Here the
overhead of an instrumented build is measured as retired instructions on
the workload's passing run plans, relative to the plain build, with each
hardware-monitoring operation additionally charged
:data:`HWOP_IOCTL_COST` instruction-equivalents — the modeled cost of
the user/kernel crossing that a real ioctl pays and a simulated ``HWOP``
does not.
"""

from dataclasses import dataclass

from repro.compiler.frontend import compile_module
from repro.lang.transform import enhance_logging
from repro.machine.cpu import MachineConfig
from repro.runtime.executor import CampaignExecutor

#: Modeled extra instruction-equivalents per hardware-monitoring op.
HWOP_IOCTL_COST = 2.0

#: How many passing runs the overhead mean is taken over (the paper
#: reports the mean of 10 measurements).
DEFAULT_RUNS = 10


def measure_cost(program, workload, runs=DEFAULT_RUNS, executor=None):
    """Mean modeled cost of *program* over the workload's passing plans,
    run on *executor* (default: a fresh ``CampaignExecutor()``).

    One-time monitoring setup (the broadcast enable sequence at the
    entry of ``main``) is excluded: production runs amortize it to
    nothing, whereas the miniatures run for only thousands of
    instructions.
    """
    executor = executor or CampaignExecutor()
    config = MachineConfig(num_cores=workload.num_cores)
    plans = [workload.passing_run_plan(k) for k in range(runs)]
    total = 0.0
    for _plan, result in executor.iter_runs(program, plans, config):
        broadcast = result.hwop_broadcast
        steady_hwops = sum(result.hwop_counts.values()) - broadcast
        total += (result.status.retired - broadcast) \
            + HWOP_IOCTL_COST * steady_hwops
    return total / runs


@dataclass
class OverheadReport:
    """Overhead fractions of the tool builds for one workload."""

    baseline_cost: float
    lbrlog_toggling: float
    lbrlog_no_toggling: float
    lbra_reactive: float
    lbra_proactive: float

    def as_percentages(self):
        return tuple(
            100.0 * value
            for value in (self.lbrlog_toggling, self.lbrlog_no_toggling,
                          self.lbra_reactive, self.lbra_proactive)
        )


def _build(workload, rings, toggling, success_scheme="none",
           reactive_target=None):
    module = enhance_logging(
        workload.build_module(),
        log_functions=workload.log_functions,
        rings=rings,
        success_scheme=success_scheme,
        reactive_target=reactive_target,
    )
    return compile_module(module, toggling=toggling)


def measure_workload_overheads(workload, ring="lbr", runs=DEFAULT_RUNS,
                               reactive_target=None, executor=None):
    """Measure the Table 6 overhead columns for one workload.

    *reactive_target* (a :class:`~repro.lang.transform.ReactiveTarget`)
    adds the reactive success site; without one, the reactive build
    equals the plain LBRLOG build, which is a lower bound.
    """
    plain = compile_module(workload.build_module(), toggling=False)
    baseline = measure_cost(plain, workload, runs, executor=executor)

    def overhead(program):
        return measure_cost(program, workload, runs,
                            executor=executor) / baseline - 1.0

    rings = (ring,)
    return OverheadReport(
        baseline_cost=baseline,
        lbrlog_toggling=overhead(_build(workload, rings, toggling=True)),
        lbrlog_no_toggling=overhead(_build(workload, rings,
                                           toggling=False)),
        lbra_reactive=overhead(_build(
            workload, rings, toggling=True,
            success_scheme="reactive" if reactive_target else "none",
            reactive_target=reactive_target,
        )),
        lbra_proactive=overhead(_build(
            workload, rings, toggling=True, success_scheme="proactive",
        )),
    )


def find_reactive_target(workload, ring="lbr", executor=None):
    """Run one failing run and derive the reactive success-site target."""
    from repro.core.lbrlog import LbrLogTool
    from repro.core.lcrlog import LcrLogTool
    from repro.lang.transform import ReactiveTarget

    tool = LbrLogTool(workload, executor=executor) if ring == "lbr" \
        else LcrLogTool(workload, executor=executor)
    for k in range(20):
        status = tool.run_failing(k)
        if workload.is_failure(status):
            break
    else:
        return None
    _profile, site = tool.failure_snapshot(status)
    if site is None:
        return None
    if site.kind == "segv-handler":
        location = tool.program.debug_info.location_at(status.fault.pc)
        if location is None:
            return None
        return ReactiveTarget(kind="segv", function=location.function,
                              line=location.line)
    return ReactiveTarget(kind="log", function=site.function,
                          line=site.line)
