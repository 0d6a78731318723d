"""Logging-latency comparison (Section 5.3).

The paper measures: logging LBR/LCR takes < 20 us, recording the call
stack ~ 200 us, and dumping core easily > 200 ms.  This experiment
models those costs from the simulated machine's actual state at a
failure: ring entries read (MSR reads), stack frames walked, and bytes
of mapped memory dumped — using per-unit costs representative of the
paper's Core i7 platform.
"""

from repro.bugs.registry import get_bug
from repro.core.lbrlog import LbrLogTool
from repro.experiments.report import ExperimentResult, traced
from repro.isa.registers import FP
from repro.runtime.process import execute_plan

#: Modeled per-unit costs in microseconds.
US_PER_MSR_READ = 0.5          # rdmsr through the driver
US_PER_STACK_FRAME = 20.0      # unwinding + symbolization per frame
US_PER_MEMORY_KB = 8.0         # core dump write bandwidth


def _failure_machine_state(bug_name="sort"):
    """Run a failure and return (ring reads, stack frames, mapped KiB)."""
    bug = get_bug(bug_name)
    tool = LbrLogTool(bug)
    machines = []
    execute_plan(tool.program, bug.failing_run_plan(0), tool.machine_config,
                 attach=machines.append)
    machine = machines[0]
    ring_reads = 2 * machine.config.lbr_capacity  # FROM_IP + TO_IP MSRs
    # Walk the frame-pointer chain of the faulting thread.
    thread = machine.threads[0]
    frames = 0
    fp = thread.regs[FP]
    while machine.memory.is_mapped(fp) and frames < 64:
        frames += 1
        fp = machine.memory.peek(fp)
        if fp == 0:
            break
    mapped_bytes = sum(high - low for low, high, _ in
                       machine.memory.regions())
    return ring_reads, max(frames, 1), mapped_bytes / 1024.0


@traced("experiment.loglatency")
def run(bug_name="sort", executor=None):
    """Model the three logging mechanisms' latencies.

    Inspects live machine state after the run, so it always executes
    in-process; *executor* is accepted for uniformity.
    """
    del executor
    ring_reads, frames, mapped_kib = _failure_machine_state(bug_name)
    lbr_us = ring_reads * US_PER_MSR_READ
    stack_us = frames * US_PER_STACK_FRAME
    core_us = mapped_kib * US_PER_MEMORY_KB * 1000 / 1000  # us
    rows = [
        ("log LBR/LCR", "%d MSR reads" % ring_reads,
         "%.1f us" % lbr_us, "< 20 us"),
        ("record call stack", "%d frames" % frames,
         "%.1f us" % stack_us, "~200 us"),
        ("dump core", "%.0f KiB mapped" % mapped_kib,
         "%.1f us" % core_us, "> 200 ms (real memory sizes)"),
    ]
    return ExperimentResult(
        name="loglatency",
        title="Section 5.3: logging latency by mechanism (modeled)",
        headers=["mechanism", "work", "modeled latency", "paper"],
        rows=rows,
        notes=[
            "ordering check: LBR %s stack %s core"
            % ("<" if lbr_us < stack_us else ">=",
               "<" if stack_us < core_us else ">="),
        ],
    )
