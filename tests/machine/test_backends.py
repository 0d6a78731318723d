"""Backend equivalence: the threaded engine must be invisible.

The contract of :mod:`repro.machine.backends` is that backend choice
changes wall-clock time and nothing else.  These tests pin that over
the whole bug registry and a generated population: every workload's
failing and passing plans must produce identical failures, identical
hardware-ring contents, identical counter readings, and identical
diagnosis reports under ``reference`` and ``threaded`` execution — plus
a chaos spot check showing fault injection does not tell the backends
apart either.
"""

import gc
import weakref

import pytest

from repro.bugs import synth
from repro.bugs.registry import all_bugs, get_bug
from repro.compiler.frontend import compile_module
from repro.core.api import get_tool
from repro.machine.backends import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    compiled_table,
    get_backend,
    get_default_backend,
    use_backend,
)
from repro.isa.asm import Assembler
from repro.isa.instructions import BinaryOperator, HwOp, Opcode
from repro.machine.cpu import Machine, MachineConfig
from repro.machine.faults import FaultKind
from repro.runtime.process import execute_plan


_BUGS = sorted(all_bugs(), key=lambda bug: bug.name)
#: The corpus plus generated program shapes, whose closure tables their
#: runs fill only in part.
_POPULATION = _BUGS + [get_bug(name)
                       for name in synth.population_names(8, seed=0)]
_PROGRAMS = {}


def _program(bug):
    program = _PROGRAMS.get(bug.name)
    if program is None:
        program = _PROGRAMS[bug.name] = compile_module(bug.build_module())
    return program


def _observe(machine, events):
    """One branch and one coherence observer appending to *events*,
    interleaved in one stream the way ``ExecutionTracer`` records."""
    machine.branch_observers.append(
        lambda thread, instr, taken, target: events.append(
            ("branch", thread.tid, instr.address, taken, target)))
    machine.coherence_observers.append(
        lambda thread, pc, access, state, address: events.append(
            ("access", thread.tid, pc, access, state, address)))


def _fingerprint(program, plan, backend, num_cores, observe=False):
    """Everything observable about one run, as a comparable dict.

    With *observe*, the run carries the observers of :func:`_observe`
    and their event stream is part of the fingerprint.
    """
    config = MachineConfig(num_cores=num_cores, backend=backend)
    machines = []
    events = []

    def attach(machine):
        machines.append(machine)
        if observe:
            _observe(machine, events)

    status = execute_plan(program, plan, config, attach=attach).status
    machine = machines[0]
    fault = status.fault
    fingerprint = {
        "events": tuple(events),
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

@pytest.mark.parametrize("bug", _POPULATION, ids=lambda bug: bug.name)
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


@pytest.mark.parametrize("bug", _POPULATION, ids=lambda bug: bug.name)
def test_observer_streams_equivalent(bug):
    """Observed runs: the same events in the same order, and the same
    run, on both backends."""
    program = _program(bug)
    for kind in ("failing", "passing"):
        plan = getattr(bug, kind + "_run_plan")(0)
        reference = _fingerprint(program, plan, "reference",
                                 bug.num_cores, observe=True)
        threaded = _fingerprint(program, plan, "threaded", bug.num_cores,
                                observe=True)
        assert reference["events"], "%s %s plan observed nothing" % (
            bug.name, kind)
        assert reference == threaded, "%s %s plan diverged" % (bug.name,
                                                               kind)


def _indirect_call(target):
    """LBR on, CALLR through r7 = *target* (a function name or an
    address), then OUT the callee's result."""
    a = Assembler()
    a.function("main")
    a.op(Opcode.HWOP, hwop=HwOp.LBR_ENABLE, offset=1)
    a.op(Opcode.LI, rd=7, imm=0)
    a.op(Opcode.CALLR, rs=7)
    a.op(Opcode.OUT, rs=0)
    a.op(Opcode.HALT, imm=0)
    a.function("callee")
    a.op(Opcode.LI, rd=0, imm=42)
    a.op(Opcode.RET)
    program = a.link()
    program.instructions[1].imm = program.function_named(target).entry \
        if isinstance(target, str) else target
    return program


def _countdown_loop():
    """JNZ taken twice and then not, then a JMP: no corpus bug has a
    JNZ."""
    a = Assembler()
    a.function("main")
    a.op(Opcode.LI, rd=8, imm=3)
    a.label("spin")
    a.op(Opcode.LI, rd=9, imm=1)
    a.op(Opcode.BINOP, operator=BinaryOperator.SUB, rd=8, rs=8, rs2=9)
    a.op(Opcode.JNZ, rs=8, target="spin")
    a.op(Opcode.JMP, target="done")
    a.op(Opcode.HALT, imm=1)
    a.label("done")
    a.op(Opcode.HALT, imm=0)
    return a.link()


def _bad_direct_call():
    a = Assembler()
    a.function("main")
    a.op(Opcode.CALL, target=0xDEAD00)
    a.op(Opcode.HALT, imm=0)
    return a.link()


def _smashed_return():
    a = Assembler()
    a.function("main")
    a.op(Opcode.CALL, target="victim")
    a.op(Opcode.HALT, imm=0)
    a.function("victim")
    a.op(Opcode.LI, rd=7, imm=0xBAD)
    a.op(Opcode.STORE, rd=15, rs=7)
    a.op(Opcode.RET)
    return a.link()


@pytest.mark.parametrize("build", [
    _countdown_loop,
    lambda: _indirect_call("callee"),
    lambda: _indirect_call(0xDEAD00),
    _bad_direct_call,
    _smashed_return,
], ids=["jnz-loop", "indirect-call", "indirect-call-to-garbage",
        "bad-direct-call", "smashed-return"])
def test_observer_streams_equivalent_on_edge_programs(build):
    """JNZ, indirect calls, and faulting calls and returns, which no
    corpus bug executes, give the same observed run on both backends (a
    call that faults emits no event at all)."""
    program = build()
    seen = {}
    for backend in BACKEND_NAMES:
        machine = Machine(program, MachineConfig(backend=backend))
        events = []
        _observe(machine, events)
        machine.load()
        status = machine.run()
        seen[backend] = (tuple(events), status.exit_code, str(status.fault),
                         status.output, status.retired,
                         machine.branches_taken,
                         tuple(core.lbr.entries() for core in machine.cores))
    assert seen["reference"] == seen["threaded"]


def test_observed_runs_stay_on_the_threaded_engine(monkeypatch):
    """CBI and CCI campaigns never touch the reference loop."""
    from repro.machine import backends

    def refuse(*args, **kwargs):
        raise AssertionError("an observed run reached the reference loop")

    monkeypatch.setattr(backends, "_reference_loop", refuse)
    with use_backend("threaded"):
        for tool_name, bug_name in (("cbi", "sort"), ("cci", "fft")):
            report = get_tool(tool_name)(get_bug(bug_name)) \
                .run_diagnosis(3, 3)
            assert report.campaign["backend"] == "threaded"
            assert report.campaign["events_observed"] > 0


def test_closure_tables_fill_on_first_dispatch():
    """Each closure table holds only the instructions a run dispatched,
    and an identical second run compiles nothing more."""
    bug = get_bug("sort")
    program = compile_module(bug.build_module())
    plan = bug.failing_run_plan(0)
    config = MachineConfig(num_cores=bug.num_cores, backend="threaded")
    for observe in (False, True):
        filled = []
        for _ in range(2):
            events = []
            execute_plan(program, plan, config,
                         attach=(lambda machine: _observe(machine, events))
                         if observe else None)
            filled.append(dict(compiled_table(program, observe)))
        first, second = filled
        assert 0 < len(first) < len(program.instructions), observe
        assert second == first, observe


def _jump_outside_code():
    a = Assembler()
    a.function("main")
    a.op(Opcode.JMP, target=0xDEAD00)
    a.op(Opcode.HALT, imm=0)
    return a.link()


def test_pc_outside_code_faults_and_compiles_nothing():
    """A jump out of the code faults the same way on both backends, plain
    and observed, and leaves no entry in either closure table."""
    program = _jump_outside_code()
    faults = set()
    for backend in BACKEND_NAMES:
        for observe in (False, True):
            machine = Machine(program, MachineConfig(backend=backend))
            if observe:
                _observe(machine, [])
            machine.load()
            fault = machine.run().fault
            faults.add((fault.kind, fault.pc, str(fault)))
    assert len(faults) == 1
    kind, pc, _message = faults.pop()
    assert (kind, pc) == (FaultKind.ILLEGAL_INSTRUCTION, 0xDEAD00)
    for observe in (False, True):
        assert 0xDEAD00 not in compiled_table(program, observe)


@pytest.mark.parametrize("bug", _POPULATION, ids=lambda bug: bug.name)
def test_runs_leave_no_cyclic_garbage(bug):
    """A compiled program, its cached closure tables and the machines
    that ran it are freed by reference counting alone: a run leaves
    nothing for the cyclic collector to find."""
    for kind in ("failing", "passing"):
        for observe in (False, True):
            where = "%s %s plan%s" % (bug.name, kind,
                                      " observed" if observe else "")
            gc.collect()
            gc.disable()
            try:
                program = compile_module(bug.build_module())
                events = []
                execute_plan(
                    program, getattr(bug, kind + "_run_plan")(0),
                    MachineConfig(num_cores=bug.num_cores,
                                  backend="threaded"),
                    attach=(lambda machine: _observe(machine, events))
                    if observe else None,
                )
                alive = weakref.ref(program)
                del program
                assert alive() is None, "%s: program outlived its run" % where
                assert gc.collect() == 0, "%s left cycles" % where
            finally:
                gc.enable()


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
        ledger = Ledger(tmp_path / ("ledger-%s-%s" % (backend,
                                                      bool(fault_spec))))
        with use_backend(backend), use_ledger(ledger):
            if fault_spec:
                plan = resilience.FaultPlan.parse(fault_spec, seed=0)
                with resilience.use_plan(plan):
                    report = get_tool("lbra")(bug).run_diagnosis(2, 2)
            else:
                report = get_tool("lbra")(bug).run_diagnosis(2, 2)
        return report.describe()

    baseline = describe("reference", None)
    assert describe("threaded", None) == baseline
    assert describe("threaded", "ledger-write-error:1") == baseline
