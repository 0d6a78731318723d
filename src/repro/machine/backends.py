"""Pluggable machine execution backends.

The :class:`~repro.machine.cpu.Machine` owns state (memory, cores,
threads, rings) and delegates its run loop to an :class:`ExecBackend`.
Two backends exist:

* ``reference`` — the original interpreter loop: one scheduler pick, one
  :meth:`Machine.step`, one watchdog check per instruction.  It is the
  semantic ground truth; nothing here may ever change its behaviour.
* ``threaded`` — a threaded-code fast path: each instruction of a
  :class:`~repro.isa.program.Program` is compiled, on the first dispatch
  of its pc, into a specialized per-opcode Python closure with operands,
  fall-through address, branch target, and LBR filter mask bound at
  compile time, and the closure is kept in a pc-keyed table cached on
  the program.  Instructions no run reaches are never compiled.
  Execution proceeds in *slices* — runs of consecutive instructions on
  one thread, bounded by the scheduler's quantum lease, the step budget,
  and the profiling-hook boundary — and LBR/LCR ring writes are deferred
  into per-core pending lists that are bulk-appended at every observation
  point (see below).

The ExecBackend contract
------------------------

A backend must be **observationally identical** to ``reference``: same
exit status, output, fault (kind, pc, message), retired counts, context
switches, scheduler state, ring contents, profile snapshots, counter
values, cache/bus statistics, profile-hook firing points, and observer
event streams, for every program and scheduler.
``tests/machine/test_backends.py`` enforces this over the whole bug
suite.  Because the backend choice can never change results, it still
participates in the run-cache key and ledger entries (via
``MachineConfig.backend`` and ``repr(config)``) so recorded artifacts
stay attributable.

Why deferred ring writes are safe
---------------------------------

The LBR/LCR rings are only ever *observed* at four kinds of points:
``HWOP`` instructions (profile/enable/disable/config ioctls and MSR
reads), mutex operations (whose eager ``data_access`` path appends to
the LCR synchronously), the end of the run, and — under ``reference``
semantics — never in between, because straight-line user code cannot
read the rings.  The threaded backend therefore evaluates the
enable/filter state *eagerly* at retire time (filter state only changes
inside ``HWOP``, which flushes first), appends matching events to a
per-core pending list, and drains the list into the real ring before
every observation point.  Ring contents at every observation point are
byte-identical to per-instruction appends; ``recorded_count`` is
incremented by the full pending length, so counter-based metrics match
too.

Scheduler leases
----------------

Slices longer than one instruction are only taken from schedulers that
offer a ``lease(machine)`` method returning ``(thread, n)`` — a promise
that the next ``n`` consecutive ``pick()`` calls would all return
*thread* provided the runnable set does not change.  Every operation
that can change the runnable set (SPAWN, JOIN, LOCK, UNLOCK, YIELD,
thread/process exit, any fault) ends the slice, and the backend then
calls ``consume(k)`` to fast-forward the scheduler by the ``k``
replicated picks.  Schedulers without a lease (e.g. the seeded
:class:`~repro.kernel.scheduler.RandomScheduler`, which burns one RNG
draw per pick) degrade to one-instruction slices and still benefit from
threaded dispatch.

Observers
---------

Software observers (``machine.branch_observers`` /
``machine.coherence_observers``, used by the execution tracer, the
CBI/CCI baselines, and the BTS simulation) get a synchronous callback
per event.  A program therefore has two closure tables, each filled
on dispatch: the plain one, whose closures never look at the observer
lists, and the observed one, whose LOAD/STORE/PUSH/POP, branch,
CALL/CALLR and RET closures call the observers exactly where
``Machine.data_access`` and ``Machine.retire_branch`` do.
``exec_loop`` picks the observed table when either list is non-empty
at run start, so the plain closures carry no observer test and the
reference loop runs only under the ``reference`` backend.

That is sound because observers keep the contract stated on the lists
in :class:`~repro.machine.cpu.Machine`: they are registered before
``Machine.run``; they get every event synchronously, in reference
order; they read neither the rings, which may hold deferred appends,
nor the per-slice counters (``machine.retired``, ``retired_user``,
``thread.retired``), which the threaded loop brings up to date only
between slices; and they never mutate machine state.
"""

from contextlib import contextmanager

from repro.hwpmu.lbr import LbrEntry, LbrSelectBits, _KIND_TO_BIT
from repro.hwpmu.lcr import AccessType
from repro.isa.instructions import (
    BinaryOperator,
    BranchKind,
    Opcode,
    Ring,
    UnaryOperator,
)
from repro.isa.layout import INSTRUCTION_SIZE, WORD_SIZE
from repro.isa.registers import SP
from repro.machine.faults import FaultInfo, FaultKind, MachineFault
from repro.machine.interp import (
    PROCESS_EXIT_ADDR,
    SIGNAL_RETURN_ADDR,
    THREAD_EXIT_ADDR,
    _signed_div,
    _signed_mod,
)

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "ExecBackend",
    "ReferenceBackend",
    "ThreadedBackend",
    "compiled_table",
    "get_backend",
    "get_default_backend",
    "set_default_backend",
    "use_backend",
]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

BACKEND_NAMES = ("reference", "threaded")

#: The process-wide default; ``MachineConfig(backend=None)`` resolves to
#: this at construction time (so a config's repr, part of every run-cache
#: key, always carries a concrete name).
DEFAULT_BACKEND = "threaded"

_default_backend = DEFAULT_BACKEND


def get_default_backend():
    """Return the current process-wide default backend name."""
    return _default_backend


def set_default_backend(name):
    """Set the process-wide default backend name."""
    global _default_backend
    if name not in BACKEND_NAMES:
        raise ValueError(
            "unknown backend %r (choose from %s)"
            % (name, ", ".join(BACKEND_NAMES))
        )
    _default_backend = name


@contextmanager
def use_backend(name):
    """Temporarily set the process-wide default backend."""
    previous = get_default_backend()
    set_default_backend(name)
    try:
        yield
    finally:
        set_default_backend(previous)


def get_backend(name):
    """Return the (stateless, shared) backend instance for *name*.

    ``None`` resolves to the current default.
    """
    if name is None:
        name = _default_backend
    try:
        return _INSTANCES[name]
    except KeyError:
        raise ValueError(
            "unknown backend %r (choose from %s)"
            % (name, ", ".join(BACKEND_NAMES))
        )


# ----------------------------------------------------------------------
# The reference loop
# ----------------------------------------------------------------------


def _reference_loop(machine, budget):
    """The original per-instruction run loop.

    Must remain semantically identical to the historical
    ``Machine.run`` body: pick, step, profile hook, watchdog — in that
    order, per instruction.
    """
    profile_every = machine._profile_every
    profile_hook = machine._profile_hook
    scheduler = machine.scheduler
    steps = 0
    hang_delivered = False
    last_thread = None
    while machine.running:
        thread = scheduler.pick(machine)
        if thread is None:
            machine._handle_no_runnable()
            break
        if thread is not last_thread:
            machine.context_switches += 1
            last_thread = thread
        machine.step(thread)
        steps += 1
        if profile_every and steps % profile_every == 0:
            profile_hook(machine, thread, steps)
        if steps >= budget and machine.running:
            info = FaultInfo(
                kind=FaultKind.HANG, pc=thread.pc,
                thread_id=thread.tid,
                message="step budget exhausted (%d)" % budget,
            )
            if hang_delivered:
                machine._terminate_with_fault(info)
            else:
                # A watchdog (SIGALRM-style) interrupts the hung
                # thread; a registered handler may profile the rings
                # before the process is killed.
                hang_delivered = True
                machine._deliver_fault(thread, info)
                budget += 20_000


class ExecBackend:
    """Interface every execution backend implements.

    ``exec_loop(machine, budget)`` drives *machine* until it stops
    running or the step *budget* triggers the hang watchdog.  See the
    module docstring for the behavioural contract.
    """

    name = "?"

    def exec_loop(self, machine, budget):
        raise NotImplementedError


class ReferenceBackend(ExecBackend):
    """The byte-identical ground-truth interpreter loop."""

    name = "reference"

    def exec_loop(self, machine, budget):
        _reference_loop(machine, budget)


# ----------------------------------------------------------------------
# Threaded-code compilation
# ----------------------------------------------------------------------

_LOAD = AccessType.LOAD
_STORE = AccessType.STORE

#: Drain a per-core pending list into its ring once it reaches this
#: length, bounding memory without changing observable ring contents
#: (flushing early is always safe; see the module docstring).
_PENDING_FLUSH_THRESHOLD = 4096

#: LBR_SELECT bit that suppresses branches of a given ring.
_RING_SUPPRESS_BIT = {
    Ring.USER: int(LbrSelectBits.CPL_NEQ_0),
    Ring.KERNEL: int(LbrSelectBits.CPL_EQ_0),
}

_BINOP_FUNCS = {
    BinaryOperator.ADD: lambda a, b: a + b,
    BinaryOperator.SUB: lambda a, b: a - b,
    BinaryOperator.MUL: lambda a, b: a * b,
    BinaryOperator.AND: lambda a, b: a & b,
    BinaryOperator.OR: lambda a, b: a | b,
    BinaryOperator.XOR: lambda a, b: a ^ b,
    BinaryOperator.SHL: lambda a, b: a << (b & 63),
    BinaryOperator.SHR: lambda a, b: a >> (b & 63),
    # Comparisons must produce ints (not bools) so OUT output is
    # byte-identical to the reference interpreter.
    BinaryOperator.LT: lambda a, b: 1 if a < b else 0,
    BinaryOperator.LE: lambda a, b: 1 if a <= b else 0,
    BinaryOperator.GT: lambda a, b: 1 if a > b else 0,
    BinaryOperator.GE: lambda a, b: 1 if a >= b else 0,
    BinaryOperator.EQ: lambda a, b: 1 if a == b else 0,
    BinaryOperator.NE: lambda a, b: 1 if a != b else 0,
}

_UNOP_FUNCS = {
    UnaryOperator.NEG: lambda a: -a,
    UnaryOperator.NOT: lambda a: 0 if a else 1,
    UnaryOperator.BNOT: lambda a: ~a,
}


def _deferred_load(machine, thread, pc, ring, ring_user, address):
    """Load a word, emitting coherence events with a deferred LCR append.

    Mirrors ``Machine.data_access(is_store=False)`` exactly, except the
    LCR append lands in the per-core pending list (the filter decision
    is still made eagerly, against current enable/config state).
    """
    memory = machine.memory
    if not memory.is_mapped(address):
        raise MachineFault(FaultInfo(
            kind=FaultKind.SEGMENTATION_FAULT, pc=pc,
            thread_id=thread.tid, address=address,
            message="invalid read at 0x%x" % address,
        ))
    value = memory._words.get(address, 0)
    core_id = thread.core_id
    observed = machine.bus.load(core_id, address)
    core = machine.cores[core_id]
    lcr = core.lcr
    if lcr.enabled:
        cfg = lcr.config
        if (cfg.record_user if ring_user else cfg.record_kernel) \
                and (_LOAD, observed) in cfg.events:
            pending = machine._lcr_pending[core_id]
            pending.append((pc, observed, _LOAD, ring))
            if len(pending) >= _PENDING_FLUSH_THRESHOLD:
                lcr.bulk_append(pending)
                del pending[:]
    counters = core.counters
    if counters.count_user if ring_user else counters.count_kernel:
        key = (_LOAD, observed)
        counters.counts[key] = counters.counts.get(key, 0) + 1
        if counters._sample_hook is not None:
            counters._sample_countdown -= 1
            if counters._sample_countdown <= 0:
                counters._sample_countdown = counters._sample_period
                counters._sample_hook(pc, _LOAD, observed)
    return value


def _deferred_store(machine, thread, pc, ring, ring_user, address, value):
    """Store a word; the dual of :func:`_deferred_load`."""
    memory = machine.memory
    if not memory.is_mapped(address):
        raise MachineFault(FaultInfo(
            kind=FaultKind.SEGMENTATION_FAULT, pc=pc,
            thread_id=thread.tid, address=address,
            message="invalid write at 0x%x" % address,
        ))
    memory._words[address] = value
    core_id = thread.core_id
    observed = machine.bus.store(core_id, address)
    core = machine.cores[core_id]
    lcr = core.lcr
    if lcr.enabled:
        cfg = lcr.config
        if (cfg.record_user if ring_user else cfg.record_kernel) \
                and (_STORE, observed) in cfg.events:
            pending = machine._lcr_pending[core_id]
            pending.append((pc, observed, _STORE, ring))
            if len(pending) >= _PENDING_FLUSH_THRESHOLD:
                lcr.bulk_append(pending)
                del pending[:]
    counters = core.counters
    if counters.count_user if ring_user else counters.count_kernel:
        key = (_STORE, observed)
        counters.counts[key] = counters.counts.get(key, 0) + 1
        if counters._sample_hook is not None:
            counters._sample_countdown -= 1
            if counters._sample_countdown <= 0:
                counters._sample_countdown = counters._sample_period
                counters._sample_hook(pc, _STORE, observed)


def _pend_branch(machine, core_id, entry, select_test):
    """Account a taken branch with a prebuilt LBR entry."""
    machine.branches_taken += 1
    lbr = machine.cores[core_id].lbr
    if lbr.enabled and not (lbr.select_mask & select_test):
        pending = machine._lbr_pending[core_id]
        pending.append(entry)
        if len(pending) >= _PENDING_FLUSH_THRESHOLD:
            lbr.bulk_append(pending)
            del pending[:]


def _pend_branch_dynamic(machine, core_id, pc, target, kind, ring,
                         select_test):
    """Account a taken branch whose target is only known at run time."""
    machine.branches_taken += 1
    lbr = machine.cores[core_id].lbr
    if lbr.enabled and not (lbr.select_mask & select_test):
        pending = machine._lbr_pending[core_id]
        pending.append(LbrEntry(
            from_address=pc, to_address=target, kind=kind, ring=ring,
        ))
        if len(pending) >= _PENDING_FLUSH_THRESHOLD:
            lbr.bulk_append(pending)
            del pending[:]


def _observed_access(machine, thread, pc, ring, ring_user, access, address,
                     value=None):
    """:func:`_deferred_load` / :func:`_deferred_store` for the observed
    table, then every coherence observer.

    The observers run last, as in ``Machine.data_access``: after the LCR
    filter decision, the counter update and the sample hook.  Returns
    the loaded word (a LOAD) or *value* (a STORE).
    """
    memory = machine.memory
    if not memory.is_mapped(address):
        raise MachineFault(FaultInfo(
            kind=FaultKind.SEGMENTATION_FAULT, pc=pc,
            thread_id=thread.tid, address=address,
            message="invalid %s at 0x%x" % (
                "read" if access is _LOAD else "write", address),
        ))
    core_id = thread.core_id
    if access is _LOAD:
        value = memory._words.get(address, 0)
        observed = machine.bus.load(core_id, address)
    else:
        memory._words[address] = value
        observed = machine.bus.store(core_id, address)
    core = machine.cores[core_id]
    lcr = core.lcr
    if lcr.enabled:
        cfg = lcr.config
        if (cfg.record_user if ring_user else cfg.record_kernel) \
                and (access, observed) in cfg.events:
            pending = machine._lcr_pending[core_id]
            pending.append((pc, observed, access, ring))
            if len(pending) >= _PENDING_FLUSH_THRESHOLD:
                lcr.bulk_append(pending)
                del pending[:]
    counters = core.counters
    if counters.count_user if ring_user else counters.count_kernel:
        key = (access, observed)
        counters.counts[key] = counters.counts.get(key, 0) + 1
        if counters._sample_hook is not None:
            counters._sample_countdown -= 1
            if counters._sample_countdown <= 0:
                counters._sample_countdown = counters._sample_period
                counters._sample_hook(pc, access, observed)
    for observer in machine.coherence_observers:
        observer(thread, pc, access, observed, address)
    return value


# Closure return protocol: None = retired USER instruction, keep slicing;
# 1 = retired KERNEL instruction, keep slicing; 2/3 = the USER/KERNEL
# variants of "retired, but end the slice" (the instruction may have
# changed the runnable set or stopped the machine).
_CONT_USER = None
_CONT_KERNEL = 1
_BREAK_USER = 2
_BREAK_KERNEL = 3


def _compile_instruction(instr, addresses, strings):
    """Return the specialized closure ``fn(machine, thread) -> code``.

    *addresses* holds the program's instruction addresses (``in`` is
    all a closure asks of it) and *strings* is its string table; no
    closure refers to the :class:`~repro.isa.program.Program` itself.
    """
    opcode = instr.opcode
    ring = instr.ring
    ring_user = ring is Ring.USER
    cont = _CONT_USER if ring_user else _CONT_KERNEL
    brk = _BREAK_USER if ring_user else _BREAK_KERNEL
    pc = instr.address
    next_pc = pc + INSTRUCTION_SIZE

    if opcode is Opcode.BINOP:
        rd, rs, rs2 = instr.rd, instr.rs, instr.rs2
        operator = instr.operator
        if operator is BinaryOperator.DIV or operator is BinaryOperator.MOD:
            signed = _signed_div if operator is BinaryOperator.DIV \
                else _signed_mod

            def op_divmod(machine, thread):
                regs = thread.regs
                b = regs[rs2]
                if b == 0:
                    raise MachineFault(FaultInfo(
                        kind=FaultKind.DIVISION_BY_ZERO, pc=pc,
                        thread_id=thread.tid, message="division by zero",
                    ))
                regs[rd] = signed(regs[rs], b)
                thread.pc = next_pc
                return cont
            return op_divmod
        fn = _BINOP_FUNCS[operator]

        def op_binop(machine, thread):
            regs = thread.regs
            regs[rd] = fn(regs[rs], regs[rs2])
            thread.pc = next_pc
            return cont
        return op_binop

    if opcode is Opcode.LI:
        rd, imm = instr.rd, instr.imm

        def op_li(machine, thread):
            thread.regs[rd] = imm
            thread.pc = next_pc
            return cont
        return op_li

    if opcode is Opcode.MOV:
        rd, rs = instr.rd, instr.rs

        def op_mov(machine, thread):
            regs = thread.regs
            regs[rd] = regs[rs]
            thread.pc = next_pc
            return cont
        return op_mov

    if opcode is Opcode.LOAD:
        rd, rs, offset = instr.rd, instr.rs, instr.offset

        def op_load(machine, thread):
            thread.regs[rd] = _deferred_load(
                machine, thread, pc, ring, ring_user,
                thread.regs[rs] + offset,
            )
            thread.pc = next_pc
            return cont
        return op_load

    if opcode is Opcode.STORE:
        rd, rs, offset = instr.rd, instr.rs, instr.offset

        def op_store(machine, thread):
            regs = thread.regs
            _deferred_store(
                machine, thread, pc, ring, ring_user,
                regs[rd] + offset, regs[rs],
            )
            thread.pc = next_pc
            return cont
        return op_store

    if opcode is Opcode.JZ or opcode is Opcode.JNZ:
        rs, target = instr.rs, instr.target
        entry = LbrEntry(from_address=pc, to_address=target,
                         kind=BranchKind.CONDITIONAL, ring=ring)
        select_test = (_RING_SUPPRESS_BIT[ring]
                       | int(_KIND_TO_BIT[BranchKind.CONDITIONAL]))
        if opcode is Opcode.JZ:
            def op_jz(machine, thread):
                if thread.regs[rs] == 0:
                    _pend_branch(machine, thread.core_id, entry,
                                 select_test)
                    thread.pc = target
                else:
                    thread.pc = next_pc
                return cont
            return op_jz

        def op_jnz(machine, thread):
            if thread.regs[rs] != 0:
                _pend_branch(machine, thread.core_id, entry, select_test)
                thread.pc = target
            else:
                thread.pc = next_pc
            return cont
        return op_jnz

    if opcode is Opcode.JMP:
        target = instr.target
        entry = LbrEntry(from_address=pc, to_address=target,
                         kind=BranchKind.UNCOND_DIRECT, ring=ring)
        select_test = (_RING_SUPPRESS_BIT[ring]
                       | int(_KIND_TO_BIT[BranchKind.UNCOND_DIRECT]))

        def op_jmp(machine, thread):
            _pend_branch(machine, thread.core_id, entry, select_test)
            thread.pc = target
            return cont
        return op_jmp

    if opcode is Opcode.CALL:
        target = instr.target
        if target not in addresses:
            def op_bad_call(machine, thread):
                raise MachineFault(FaultInfo(
                    kind=FaultKind.SEGMENTATION_FAULT, pc=pc,
                    thread_id=thread.tid, address=target,
                    message="call through bad pointer",
                ))
            return op_bad_call
        entry = LbrEntry(from_address=pc, to_address=target,
                         kind=BranchKind.NEAR_CALL, ring=ring)
        select_test = (_RING_SUPPRESS_BIT[ring]
                       | int(_KIND_TO_BIT[BranchKind.NEAR_CALL]))

        def op_call(machine, thread):
            regs = thread.regs
            sp = regs[SP] - WORD_SIZE
            _deferred_store(machine, thread, pc, ring, ring_user, sp,
                            next_pc)
            regs[SP] = sp
            _pend_branch(machine, thread.core_id, entry, select_test)
            thread.pc = target
            return cont
        return op_call

    if opcode is Opcode.CALLR:
        rs = instr.rs
        select_test = (_RING_SUPPRESS_BIT[ring]
                       | int(_KIND_TO_BIT[BranchKind.NEAR_IND_CALL]))

        def op_callr(machine, thread):
            regs = thread.regs
            target = regs[rs]
            if target not in addresses:
                raise MachineFault(FaultInfo(
                    kind=FaultKind.SEGMENTATION_FAULT, pc=pc,
                    thread_id=thread.tid, address=target,
                    message="call through bad pointer",
                ))
            sp = regs[SP] - WORD_SIZE
            _deferred_store(machine, thread, pc, ring, ring_user, sp,
                            next_pc)
            regs[SP] = sp
            _pend_branch_dynamic(machine, thread.core_id, pc, target,
                                 BranchKind.NEAR_IND_CALL, ring,
                                 select_test)
            thread.pc = target
            return cont
        return op_callr

    if opcode is Opcode.RET:
        select_test = (_RING_SUPPRESS_BIT[ring]
                       | int(_KIND_TO_BIT[BranchKind.NEAR_RET]))

        def op_ret(machine, thread):
            regs = thread.regs
            sp = regs[SP]
            return_address = _deferred_load(
                machine, thread, pc, ring, ring_user, sp,
            )
            regs[SP] = sp + WORD_SIZE
            if return_address == PROCESS_EXIT_ADDR:
                machine.process_exit(regs[0])
                return brk
            if return_address == THREAD_EXIT_ADDR:
                machine.thread_exit(thread)
                return brk
            if return_address == SIGNAL_RETURN_ADDR:
                machine.signal_handler_returned(thread)
                return brk
            if return_address not in addresses:
                raise MachineFault(FaultInfo(
                    kind=FaultKind.SEGMENTATION_FAULT, pc=pc,
                    thread_id=thread.tid, address=return_address,
                    message="return to bad address",
                ))
            _pend_branch_dynamic(machine, thread.core_id, pc,
                                 return_address, BranchKind.NEAR_RET,
                                 ring, select_test)
            thread.pc = return_address
            return cont
        return op_ret

    if opcode is Opcode.PUSH:
        rs = instr.rs

        def op_push(machine, thread):
            regs = thread.regs
            sp = regs[SP] - WORD_SIZE
            _deferred_store(machine, thread, pc, ring, ring_user, sp,
                            regs[rs])
            regs[SP] = sp
            thread.pc = next_pc
            return cont
        return op_push

    if opcode is Opcode.POP:
        rd = instr.rd

        def op_pop(machine, thread):
            regs = thread.regs
            sp = regs[SP]
            regs[rd] = _deferred_load(
                machine, thread, pc, ring, ring_user, sp,
            )
            regs[SP] = sp + WORD_SIZE
            thread.pc = next_pc
            return cont
        return op_pop

    if opcode is Opcode.UNOP:
        rd, rs = instr.rd, instr.rs
        fn = _UNOP_FUNCS[instr.operator]

        def op_unop(machine, thread):
            regs = thread.regs
            regs[rd] = fn(regs[rs])
            thread.pc = next_pc
            return cont
        return op_unop

    if opcode is Opcode.OUT:
        rs = instr.rs

        def op_out(machine, thread):
            machine.output.append(thread.regs[rs])
            thread.pc = next_pc
            return cont
        return op_out

    if opcode is Opcode.OUTS:
        if instr.rs is None:
            imm = instr.imm
            if 0 <= imm < len(strings):
                text = strings[imm]

                def op_outs_const(machine, thread):
                    machine.output.append(text)
                    thread.pc = next_pc
                    return cont
                return op_outs_const

            def op_outs_imm(machine, thread):
                machine.output.append(machine.program.string(imm))
                thread.pc = next_pc
                return cont
            return op_outs_imm
        rs = instr.rs

        def op_outs(machine, thread):
            machine.output.append(
                machine.program.string(thread.regs[rs]))
            thread.pc = next_pc
            return cont
        return op_outs

    if opcode is Opcode.ASSERT:
        rs = instr.rs

        def op_assert(machine, thread):
            if thread.regs[rs] == 0:
                raise MachineFault(FaultInfo(
                    kind=FaultKind.ASSERTION_FAILURE, pc=pc,
                    thread_id=thread.tid, message="assertion failed",
                ))
            thread.pc = next_pc
            return cont
        return op_assert

    if opcode is Opcode.SPAWN:
        rd, target = instr.rd, instr.target

        def op_spawn(machine, thread):
            tid = machine.spawn_thread(thread, target)
            thread.regs[rd] = tid
            thread.pc = next_pc
            return brk
        return op_spawn

    if opcode is Opcode.JOIN:
        rs = instr.rs
        instruction = instr

        def op_join(machine, thread):
            machine.join_thread(thread, instruction, thread.regs[rs])
            return brk
        return op_join

    if opcode is Opcode.LOCK:
        rs = instr.rs
        instruction = instr

        def op_lock(machine, thread):
            # mutex_lock's read-modify-write appends to the LCR
            # synchronously; flush so ring ordering is preserved.
            machine.flush_ring_buffers()
            machine.mutex_lock(thread, instruction, thread.regs[rs])
            return brk
        return op_lock

    if opcode is Opcode.UNLOCK:
        rs = instr.rs
        instruction = instr

        def op_unlock(machine, thread):
            machine.flush_ring_buffers()
            machine.mutex_unlock(thread, instruction, thread.regs[rs])
            return brk
        return op_unlock

    if opcode is Opcode.YIELD:
        def op_yield(machine, thread):
            thread.yielded = True
            thread.pc = next_pc
            return brk
        return op_yield

    if opcode is Opcode.HWOP:
        instruction = instr

        def op_hwop(machine, thread):
            # Profiling ioctls observe or reconfigure the rings: drain
            # the deferred appends first so snapshots and filter changes
            # see exactly the reference ring state.
            machine.flush_ring_buffers()
            machine.hw_dispatch(thread, instruction)
            thread.pc = next_pc
            return cont
        return op_hwop

    if opcode is Opcode.HALT:
        imm = instr.imm
        if imm is not None:
            def op_halt_imm(machine, thread):
                machine.process_exit(imm)
                return brk
            return op_halt_imm

        def op_halt(machine, thread):
            machine.process_exit(thread.regs[0])
            return brk
        return op_halt

    if opcode is Opcode.NOP:
        def op_nop(machine, thread):
            thread.pc = next_pc
            return cont
        return op_nop

    raise AssertionError(opcode)  # pragma: no cover - exhaustive


def _compile_observed(instr, addresses, strings):
    """Return the observer-calling closure for *instr*, or ``None``.

    Only instructions that reach ``Machine.data_access`` or
    ``Machine.retire_branch`` in the reference interpreter get one, and
    each calls the observers where the reference does: a coherence event
    once the access is accounted, a branch event before the LBR append
    and the pc update.  Everything else shares its plain closure
    (``None``), including LOCK/UNLOCK, whose eager ``Machine.data_access``
    calls the coherence observers itself.
    """
    opcode = instr.opcode
    ring = instr.ring
    ring_user = ring is Ring.USER
    cont = _CONT_USER if ring_user else _CONT_KERNEL
    brk = _BREAK_USER if ring_user else _BREAK_KERNEL
    pc = instr.address
    next_pc = pc + INSTRUCTION_SIZE

    if opcode is Opcode.LOAD:
        rd, rs, offset = instr.rd, instr.rs, instr.offset

        def op_load(machine, thread):
            thread.regs[rd] = _observed_access(
                machine, thread, pc, ring, ring_user, _LOAD,
                thread.regs[rs] + offset,
            )
            thread.pc = next_pc
            return cont
        return op_load

    if opcode is Opcode.STORE:
        rd, rs, offset = instr.rd, instr.rs, instr.offset

        def op_store(machine, thread):
            regs = thread.regs
            _observed_access(machine, thread, pc, ring, ring_user, _STORE,
                             regs[rd] + offset, regs[rs])
            thread.pc = next_pc
            return cont
        return op_store

    if opcode is Opcode.PUSH:
        rs = instr.rs

        def op_push(machine, thread):
            regs = thread.regs
            sp = regs[SP] - WORD_SIZE
            _observed_access(machine, thread, pc, ring, ring_user, _STORE,
                             sp, regs[rs])
            regs[SP] = sp
            thread.pc = next_pc
            return cont
        return op_push

    if opcode is Opcode.POP:
        rd = instr.rd

        def op_pop(machine, thread):
            regs = thread.regs
            sp = regs[SP]
            regs[rd] = _observed_access(machine, thread, pc, ring,
                                        ring_user, _LOAD, sp)
            regs[SP] = sp + WORD_SIZE
            thread.pc = next_pc
            return cont
        return op_pop

    if opcode in (Opcode.JZ, Opcode.JNZ, Opcode.JMP):
        # Nothing happens between the branch event and the plain
        # closure's LBR append and pc update: notify, then run it.
        plain = _compile_instruction(instr, addresses, strings)
        rs, target = instr.rs, instr.target
        taken_on_zero = opcode is Opcode.JZ
        always = opcode is Opcode.JMP

        def op_branch(machine, thread):
            taken = always or (thread.regs[rs] == 0) == taken_on_zero
            for observer in machine.branch_observers:
                observer(thread, instr, taken, target)
            return plain(machine, thread)
        return op_branch

    if opcode is Opcode.CALL or opcode is Opcode.CALLR:
        rs, fixed = instr.rs, instr.target
        direct = opcode is Opcode.CALL
        kind = instr.branch_kind()
        select_test = _RING_SUPPRESS_BIT[ring] | int(_KIND_TO_BIT[kind])

        def op_call(machine, thread):
            regs = thread.regs
            target = fixed if direct else regs[rs]
            if target not in addresses:
                raise MachineFault(FaultInfo(
                    kind=FaultKind.SEGMENTATION_FAULT, pc=pc,
                    thread_id=thread.tid, address=target,
                    message="call through bad pointer",
                ))
            sp = regs[SP] - WORD_SIZE
            _observed_access(machine, thread, pc, ring, ring_user, _STORE,
                             sp, next_pc)
            regs[SP] = sp
            for observer in machine.branch_observers:
                observer(thread, instr, True, target)
            _pend_branch_dynamic(machine, thread.core_id, pc, target, kind,
                                 ring, select_test)
            thread.pc = target
            return cont
        return op_call

    if opcode is Opcode.RET:
        select_test = (_RING_SUPPRESS_BIT[ring]
                       | int(_KIND_TO_BIT[BranchKind.NEAR_RET]))

        def op_ret(machine, thread):
            regs = thread.regs
            sp = regs[SP]
            return_address = _observed_access(machine, thread, pc, ring,
                                              ring_user, _LOAD, sp)
            regs[SP] = sp + WORD_SIZE
            if return_address == PROCESS_EXIT_ADDR:
                machine.process_exit(regs[0])
                return brk
            if return_address == THREAD_EXIT_ADDR:
                machine.thread_exit(thread)
                return brk
            if return_address == SIGNAL_RETURN_ADDR:
                machine.signal_handler_returned(thread)
                return brk
            if return_address not in addresses:
                raise MachineFault(FaultInfo(
                    kind=FaultKind.SEGMENTATION_FAULT, pc=pc,
                    thread_id=thread.tid, address=return_address,
                    message="return to bad address",
                ))
            for observer in machine.branch_observers:
                observer(thread, instr, True, return_address)
            _pend_branch_dynamic(machine, thread.core_id, pc,
                                 return_address, BranchKind.NEAR_RET,
                                 ring, select_test)
            thread.pc = return_address
            return cont
        return op_ret

    return None


class _ClosureTable(dict):
    """One closure table of a program: pc -> closure, filled on dispatch.

    ``table[pc]`` compiles the closure of the instruction at *pc* the
    first time it is asked for and keeps it, so a program pays only for
    the instructions its runs execute.  A pc outside the code returns
    ``None`` and stores nothing.  ``get`` and ``in`` see only the
    closures compiled so far.  The table holds the program's
    instruction list, address index and string table, never the program
    itself, so caching it on the program closes no reference cycle.
    """

    __slots__ = ("_instructions", "_addresses", "_strings", "_observed")

    def __init__(self, program, observed):
        self._instructions = program.instructions
        self._addresses = program._index_by_address
        self._strings = program.string_table
        self._observed = observed

    def __missing__(self, pc):
        index = self._addresses.get(pc)
        if index is None:
            return None
        instr = self._instructions[index]
        op = None
        if self._observed:
            op = _compile_observed(instr, self._addresses, self._strings)
        op = self[pc] = op or _compile_instruction(instr, self._addresses,
                                                   self._strings)
        return op


def compiled_table(program, observed=False):
    """Return the pc -> closure table for *program* (see
    :class:`_ClosureTable`).

    *observed* selects the table whose closures call the machine's
    branch and coherence observers (see the module docstring); the
    plain table never looks at them.  Both are cached on the program
    instance: programs are immutable after construction while machines
    are created fresh per run, so a closure compiled by one run serves
    every later run of the same program in the process.  No closure in
    either table refers to the program, so the cache forms no reference
    cycle and the program is freed with its last reference.
    """
    tables = program.__dict__.get("_threaded_code")
    if tables is None:
        tables = program.__dict__["_threaded_code"] = {}
    table = tables.get(observed)
    if table is None:
        table = tables[observed] = _ClosureTable(program, observed)
    return table


# ----------------------------------------------------------------------
# The threaded execution loop
# ----------------------------------------------------------------------


def _run_slice(machine, thread, table, cap):
    """Execute up to *cap* consecutive instructions on *thread*.

    Returns ``(executed, retired_user, retired_kernel)``.  ``executed``
    counts scheduler picks consumed (faulting instructions included,
    matching the reference loop); the retired counts exclude faults.
    *table* is indexed, never read with ``get``: indexing is what
    compiles a closure on its first dispatch.
    """
    executed = 0
    user = 0
    kernel = 0
    while executed < cap:
        op = table[thread.pc]
        if op is None:
            machine._deliver_fault(thread, FaultInfo(
                kind=FaultKind.ILLEGAL_INSTRUCTION, pc=thread.pc,
                thread_id=thread.tid, message="pc outside code",
            ))
            executed += 1
            break
        try:
            code = op(machine, thread)
        except MachineFault as exc:
            machine._deliver_fault(thread, exc.info)
            executed += 1
            break
        executed += 1
        if code is None:
            user += 1
            continue
        if code == 1:
            kernel += 1
            continue
        if code == 2:
            user += 1
        else:
            kernel += 1
        break
    return executed, user, kernel


class ThreadedBackend(ExecBackend):
    """Threaded-code dispatch with sliced scheduling and deferred rings."""

    name = "threaded"

    def exec_loop(self, machine, budget):
        table = compiled_table(machine.program, bool(
            machine.branch_observers or machine.coherence_observers))
        scheduler = machine.scheduler
        lease = getattr(scheduler, "lease", None)
        profile_every = machine._profile_every
        profile_hook = machine._profile_hook
        steps = 0
        hang_delivered = False
        last_thread = None
        while machine.running:
            if lease is not None:
                leased = lease(machine)
                if leased is None:
                    machine._handle_no_runnable()
                    break
                thread, allowed = leased
            else:
                thread = scheduler.pick(machine)
                if thread is None:
                    machine._handle_no_runnable()
                    break
                allowed = 1
            if thread is not last_thread:
                machine.context_switches += 1
                last_thread = thread
            cap = allowed
            remaining = budget - steps
            if remaining < cap:
                cap = remaining
            if profile_every:
                boundary = profile_every - steps % profile_every
                if boundary < cap:
                    cap = boundary
            if cap < 1:
                cap = 1
            executed, user, kernel = _run_slice(machine, thread, table,
                                                cap)
            if lease is not None and executed > 1:
                scheduler.consume(executed - 1)
            steps += executed
            retired = user + kernel
            if retired:
                machine.retired += retired
                machine.retired_user += user
                thread.retired += retired
            if profile_every and steps % profile_every == 0:
                profile_hook(machine, thread, steps)
            if steps >= budget and machine.running:
                info = FaultInfo(
                    kind=FaultKind.HANG, pc=thread.pc,
                    thread_id=thread.tid,
                    message="step budget exhausted (%d)" % budget,
                )
                if hang_delivered:
                    machine._terminate_with_fault(info)
                else:
                    hang_delivered = True
                    machine._deliver_fault(thread, info)
                    budget += 20_000


_INSTANCES = {
    "reference": ReferenceBackend(),
    "threaded": ThreadedBackend(),
}
