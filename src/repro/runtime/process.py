"""Run one program on a fresh machine.

This is the only place a run's :class:`~repro.machine.cpu.Machine` is
built: every campaign, baseline, and experiment run goes through
:func:`execute_plan` (or its :func:`run_program` adapter), so the
construct → load → globals → run sequence and its ``interp.run`` span
exist once.
"""

from dataclasses import dataclass, field

from repro.machine.cpu import Machine, MachineConfig
from repro.obs import get_obs
from repro.runtime.workload import RunPlan


@dataclass
class PlanOutcome:
    """Everything one executed run plan produced.

    Besides the :class:`ExitStatus`, the hardware-monitoring counters of
    the machine are snapshotted so consumers that model overheads (the
    Table 6/7 columns) can share runs with consumers that only classify
    outcomes.  This is the unit of work the campaign executor ships to
    worker processes and the value the run cache stores.
    """

    status: object                 # ExitStatus
    hwop_counts: dict = field(default_factory=dict)
    hwop_broadcast: int = 0

    @property
    def hwops_total(self):
        return sum(self.hwop_counts.values())


def execute_plan(program, plan, config=None, attach=None):
    """Execute one :class:`~repro.runtime.workload.RunPlan` and return a
    :class:`PlanOutcome`.

    Each run builds a fresh :class:`~repro.machine.cpu.Machine` and a
    fresh scheduler from the plan's factory, so runs are independent of
    each other and of the process they execute in: the same
    (program, plan, config) triple always produces the same outcome.
    That independence is what makes run campaigns parallelizable and
    cacheable (see :mod:`repro.runtime.executor`).

    ``attach`` optionally receives the machine after load and globals
    setup, just before it runs — where baselines install their
    observers and experiments keep the machine for inspection.
    """
    with get_obs().span("interp.run") as span:
        machine = Machine(program, config=config or MachineConfig(),
                          scheduler=plan.make_scheduler())
        machine.load(args=plan.args)
        for name, value in (plan.globals_setup or {}).items():
            if isinstance(value, (list, tuple)):
                for index, word in enumerate(value):
                    machine.set_global(name, word, index=index)
            else:
                machine.set_global(name, value)
        if attach is not None:
            attach(machine)
        status = machine.run(max_steps=plan.max_steps)
        span.set(retired=status.retired, outcome=status.describe(),
                 backend=machine.config.backend)
    return PlanOutcome(
        status=status,
        hwop_counts=dict(machine.hwop_counts),
        hwop_broadcast=machine.hwop_broadcast_count,
    )


def run_program(program, args=(), scheduler=None, config=None,
                max_steps=None, globals_setup=None):
    """Execute *program* once and return its :class:`ExitStatus`.

    ``globals_setup`` maps global-variable names to initial word values
    (or lists of values for arrays), poked after load — how benchmark
    inputs beyond the six argument registers are injected.
    """
    plan = RunPlan(args=args, scheduler_factory=lambda: scheduler,
                   max_steps=max_steps, globals_setup=globals_setup)
    return execute_plan(program, plan, config).status
