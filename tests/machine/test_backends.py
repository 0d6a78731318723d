"""Backend equivalence: the threaded engine must be invisible.

The contract of :mod:`repro.machine.backends` is that backend choice
changes wall-clock time and nothing else.  These tests pin that over
the whole bug registry: every workload's failing and passing plans must
produce identical failures, identical hardware-ring contents, identical
counter readings, and identical diagnosis reports under ``reference``
and ``threaded`` execution — plus a chaos spot check showing fault
injection does not tell the backends apart either.
"""

import pytest

from repro.bugs.registry import all_bugs, get_bug
from repro.compiler.frontend import compile_module
from repro.core.api import get_tool
from repro.machine.backends import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    get_backend,
    get_default_backend,
    use_backend,
)
from repro.machine.cpu import MachineConfig
from repro.runtime.process import execute_plan


_BUGS = sorted(all_bugs(), key=lambda bug: bug.name)
_PROGRAMS = {}


def _program(bug):
    program = _PROGRAMS.get(bug.name)
    if program is None:
        program = _PROGRAMS[bug.name] = compile_module(bug.build_module())
    return program


def _fingerprint(program, plan, backend, num_cores):
    """Everything observable about one run, as a comparable dict."""
    config = MachineConfig(num_cores=num_cores, backend=backend)
    machines = []
    status = execute_plan(program, plan, config,
                          attach=machines.append).status
    machine = machines[0]
    fault = status.fault
    fingerprint = {
        "exit_code": status.exit_code,
        "fault": None if fault is None else (
            fault.kind, fault.pc, fault.thread_id, fault.address,
            str(fault)),
        "output": tuple(machine.output),
        "retired": status.retired,
        "branches": machine.branches_taken,
        "context_switches": machine.context_switches,
        "thread_retired": tuple(t.retired for t in machine.threads),
        "hwops": tuple(sorted(machine.hwop_counts.items())),
        "bus": (machine.bus.hit_count, machine.bus.transaction_count,
                machine.bus.snoop_count, machine.bus.invalidation_count),
    }
    for core in machine.cores:
        cid = core.core_id
        fingerprint["lbr%d" % cid] = (core.lbr.entries(),
                                      core.lbr.recorded_count)
        fingerprint["lcr%d" % cid] = (core.lcr.entries(),
                                      core.lcr.recorded_count)
        fingerprint["counters%d" % cid] = tuple(sorted(
            ((access.value, state.value), count)
            for (access, state), count in core.counters.counts.items()))
        fingerprint["evictions%d" % cid] = core.cache.eviction_count
    return fingerprint


# ----------------------------------------------------------------------
# Registry and config plumbing
# ----------------------------------------------------------------------

def test_backend_registry():
    assert DEFAULT_BACKEND in BACKEND_NAMES
    for name in BACKEND_NAMES:
        assert type(get_backend(name)).__name__.lower() \
            .startswith(name[:6])
    assert get_backend(None) is get_backend(get_default_backend())
    with pytest.raises(ValueError):
        get_backend("jit")


def test_config_resolves_and_validates_backend():
    assert MachineConfig().backend == get_default_backend()
    assert MachineConfig(backend="reference").backend == "reference"
    with pytest.raises(ValueError):
        MachineConfig(backend="jit")
    with use_backend("reference"):
        assert MachineConfig().backend == "reference"
    assert MachineConfig().backend == DEFAULT_BACKEND


def test_backend_lands_in_config_repr():
    # repr(config) is the run-cache config fingerprint; the backend
    # must be part of it so cached runs are keyed per engine.
    assert "backend='reference'" in repr(MachineConfig(
        backend="reference"))


# ----------------------------------------------------------------------
# Whole-registry equivalence
# ----------------------------------------------------------------------

@pytest.mark.parametrize("bug", _BUGS, ids=lambda bug: bug.name)
def test_backends_equivalent(bug):
    """Failure sites, ring contents, and counters match per workload."""
    program = _program(bug)
    for kind in ("failing", "passing"):
        plan = getattr(bug, kind + "_run_plan")(0)
        reference = _fingerprint(program, plan, "reference",
                                 bug.num_cores)
        threaded = _fingerprint(program, plan, "threaded", bug.num_cores)
        assert reference == threaded, "%s %s plan diverged" % (bug.name,
                                                               kind)


# ----------------------------------------------------------------------
# Diagnosis reports
# ----------------------------------------------------------------------

def _report_dict(bug, tool_name, backend):
    with use_backend(backend):
        report = get_tool(tool_name)(bug).run_diagnosis(3, 3)
    data = report.to_dict()
    data.pop("timings")
    assert data["campaign"].pop("backend") == backend
    return data


@pytest.mark.parametrize("bug_name,tool_name",
                         [("paste", "lbra"), ("apache2", "lcra")])
def test_diagnosis_rows_identical(bug_name, tool_name):
    bug = get_bug(bug_name)
    reference = _report_dict(bug, tool_name, "reference")
    threaded = _report_dict(bug, tool_name, "threaded")
    assert reference == threaded


def test_observer_fallback_matches_reference():
    """Branch observers force the reference loop; results still match."""
    bug = get_bug("paste")
    program = _program(bug)
    plan = bug.failing_run_plan(0)
    seen = {}
    for backend in ("reference", "threaded"):
        config = MachineConfig(num_cores=bug.num_cores, backend=backend)
        events = []
        status = execute_plan(
            program, plan, config,
            attach=lambda machine: machine.branch_observers.append(
                lambda thread, instr, taken, target:
                events.append((thread.tid, instr.address, taken, target))),
        ).status
        seen[backend] = (status.retired, tuple(events))
    assert seen["reference"] == seen["threaded"]


# ----------------------------------------------------------------------
# Chaos spot check
# ----------------------------------------------------------------------

def test_fault_injection_is_backend_invariant(tmp_path):
    """An injected ledger fault changes neither backend's diagnosis."""
    from repro.obs.ledger import Ledger
    from repro.obs.ledger import use as use_ledger
    from repro.runtime import resilience

    bug = get_bug("paste")

    def describe(backend, fault_spec):
        state_dir = tmp_path / ("state-%s-%s" % (backend,
                                                 bool(fault_spec)))
        state_dir.mkdir()
        ledger = Ledger(tmp_path / ("ledger-%s-%s" % (backend,
                                                      bool(fault_spec))))
        with use_backend(backend), use_ledger(ledger):
            if fault_spec:
                plan = resilience.FaultPlan.parse(
                    fault_spec, seed=0, state_dir=str(state_dir))
                with resilience.use_plan(plan):
                    report = get_tool("lbra")(bug).run_diagnosis(2, 2)
            else:
                report = get_tool("lbra")(bug).run_diagnosis(2, 2)
        return report.describe()

    baseline = describe("reference", None)
    assert describe("threaded", None) == baseline
    assert describe("threaded", "ledger-write-error:1") == baseline
