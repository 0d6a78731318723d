"""The multi-core machine.

Binds together memory, cores (caches + monitoring units), threads, and a
scheduler, and drives instruction retirement.  The default configuration
mirrors the paper's evaluation platform shape: 4 cores, 16-entry LBR and
LCR, and the Section 6 L1-D geometry.
"""

import time
from collections import deque
from dataclasses import dataclass, field

from repro.cache.bus import CoherenceBus
from repro.obs import get_obs
from repro.cache.l1cache import CacheConfig
from repro.hwpmu.lbr import LBR_SELECT_PAPER_MASK
from repro.hwpmu.lcr import (
    AccessType,
    CONF_SPACE_CONSUMING,
    CONF_SPACE_SAVING,
)
from repro.hwpmu.msr import MAX_LBR_CAPACITY, MAX_LCR_CAPACITY
from repro.cache.mesi import MesiState
from repro.hwpmu.counters import UNIT_MASK
from repro.isa.instructions import HwOp, Opcode, Ring
from repro.isa.layout import (
    GLOBALS_BASE,
    HEAP_BASE,
    INSTRUCTION_SIZE,
    MAX_THREADS,
    STACK_SIZE,
    WORD_SIZE,
    stack_bounds_for_thread,
)
from repro.machine.backends import (
    BACKEND_NAMES,
    get_backend,
    get_default_backend,
)
from repro.machine.core import Core
from repro.machine.faults import FaultInfo, FaultKind, MachineFault
from repro.machine.interp import (
    PROCESS_EXIT_ADDR,
    SIGNAL_RETURN_ADDR,
    THREAD_EXIT_ADDR,
    copy_spawn_arguments,
    execute_instruction,
)
from repro.machine.memory import Memory, SegmentationViolation
from repro.machine.thread import Thread, ThreadState
from repro.isa.registers import ARG_REGISTERS, SP


@dataclass
class MachineConfig:
    """Machine-wide configuration knobs."""

    num_cores: int = 4
    lbr_capacity: int = 16
    lcr_capacity: int = 16
    lcr_config: object = None          # default CONF_SPACE_CONSUMING
    cache_config: CacheConfig = None   # default Section 6 geometry
    heap_size: int = 0x40000
    max_steps: int = 2_000_000
    #: model the profiling ioctls' own cache accesses (Section 4.3);
    #: disabling this is the pollution ablation
    lcr_ioctl_pollution: bool = True
    #: execution backend ("reference" or "threaded"); ``None`` resolves
    #: to the process default at construction time, so the concrete name
    #: always lands in ``repr(config)`` — and therefore in the run-cache
    #: key and ledger entries (see :mod:`repro.machine.backends`)
    backend: str = None

    def __post_init__(self):
        if self.backend is None:
            self.backend = get_default_backend()
        elif self.backend not in BACKEND_NAMES:
            raise ValueError(
                "unknown backend %r (choose from %s)"
                % (self.backend, ", ".join(BACKEND_NAMES))
            )
        for ring, capacity, limit in (
                ("lbr", self.lbr_capacity, MAX_LBR_CAPACITY),
                ("lcr", self.lcr_capacity, MAX_LCR_CAPACITY)):
            if capacity > limit:
                raise ValueError(
                    "%s_capacity %d does not fit its MSR block (at most "
                    "%d slots)" % (ring, capacity, limit))


@dataclass(frozen=True)
class ProfileSnapshot:
    """One LBR or LCR ring snapshot, delivered by a profiling ioctl."""

    kind: str            # "lbr" or "lcr"
    thread_id: int
    site_id: int         # logging-site identifier assigned by the transformer
    pc: int
    entries: tuple       # newest-first

    def __reduce__(self):
        # Positional-reconstruct pickling: snapshots ride along with
        # every journaled exit status, where the generic dataclass
        # state protocol is measurably slower and larger.
        return (ProfileSnapshot, (self.kind, self.thread_id,
                                  self.site_id, self.pc, self.entries))

    def latest(self, n):
        """Return the n-th latest entry (1 = newest), or ``None``."""
        if 1 <= n <= len(self.entries):
            return self.entries[n - 1]
        return None


@dataclass
class ExitStatus:
    """Outcome of one simulated run."""

    exit_code: int = None
    fault: FaultInfo = None
    output: tuple = ()
    retired: int = 0
    profiles: tuple = ()

    def __reduce__(self):
        # Positional-reconstruct pickling keeps the per-run checkpoint
        # append inside its overhead budget (see
        # ``benchmarks/test_checkpoint_overhead.py``).
        return (ExitStatus, (self.exit_code, self.fault, self.output,
                             self.retired, self.profiles))

    @property
    def crashed(self):
        return self.fault is not None

    def output_contains(self, text):
        """Return True if any output item equals or contains *text*."""
        for item in self.output:
            if isinstance(item, str) and text in item:
                return True
        return False

    def describe(self):
        if self.fault is not None:
            return "fault: %s" % (self.fault,)
        return "exit %s" % (self.exit_code,)


class _RoundRobinScheduler:
    """Default scheduler: quantum-based round robin over runnable threads."""

    def __init__(self, quantum=5):
        self.quantum = quantum
        self._current = None
        self._remaining = 0

    def pick(self, machine):
        runnable = [t for t in machine.threads if t.runnable]
        if not runnable:
            return None
        current = self._current
        if (current is not None and current.runnable and self._remaining > 0
                and not current.yielded):
            self._remaining -= 1
            return current
        if current is not None and current.yielded:
            current.yielded = False
            candidates = [t for t in runnable if t is not current] or runnable
        else:
            candidates = runnable
        if current in candidates and len(candidates) > 1:
            index = candidates.index(current)
            chosen = candidates[(index + 1) % len(candidates)]
        else:
            chosen = candidates[0]
        self._current = chosen
        self._remaining = self.quantum - 1
        return chosen

    # -- slice lease protocol (see repro.machine.backends) -------------

    def lease(self, machine):
        """Pick a thread and promise how many consecutive picks it gets.

        Returns ``(thread, n)``: the next ``n`` ``pick()`` calls would
        all return *thread* as long as the runnable set does not change.
        With a single runnable thread the promise is effectively
        unbounded (round robin re-picks it forever).
        """
        thread = self.pick(machine)
        if thread is None:
            return None
        for other in machine.threads:
            if other.runnable and other is not thread:
                return thread, self._remaining + 1
        return thread, 1 << 30

    def consume(self, extra):
        """Fast-forward the quantum by *extra* replicated same-thread
        picks (the slice executed ``extra + 1`` instructions)."""
        remaining = self._remaining
        if extra <= remaining:
            self._remaining = remaining - extra
            return
        # Only reachable under the sole-runnable-thread lease: each
        # block of ``quantum`` picks past the drained remainder is one
        # fresh re-pick (resetting to quantum - 1) plus decrements.
        quantum = self.quantum
        extra -= remaining
        self._remaining = quantum - 1 - ((extra - 1) % quantum)


class _Mutex:
    """Bookkeeping for one mutex address."""

    __slots__ = ("owner", "waiters")

    def __init__(self):
        self.owner = None
        self.waiters = deque()


#: LCR configuration selectors used by ``HWOP LCR_CONFIG``.
LCR_CONFIG_SELECTORS = {
    1: CONF_SPACE_SAVING,
    2: CONF_SPACE_CONSUMING,
}


class Machine:
    """A simulated multi-core machine executing one process."""

    def __init__(self, program, config=None, scheduler=None):
        self.program = program
        self.config = config or MachineConfig()
        self.scheduler = scheduler or _RoundRobinScheduler()
        self.memory = Memory()
        self.bus = CoherenceBus()
        cache_config = self.config.cache_config or CacheConfig()
        lcr_config = self.config.lcr_config or CONF_SPACE_CONSUMING
        self.cores = []
        for core_id in range(self.config.num_cores):
            core = Core(
                core_id,
                cache_config=cache_config,
                lbr_capacity=self.config.lbr_capacity,
                lcr_capacity=self.config.lcr_capacity,
                lcr_config=lcr_config,
            )
            self.cores.append(core)
            self.bus.attach(core.cache)
        self.threads = []
        self.mutexes = {}
        self.output = []
        self.profiles = []
        self.exit_code = None
        self.fault = None
        self.pending_fault = None
        self.running = False
        self.retired = 0
        self.retired_user = 0
        # Software observers.  The contract every backend relies on:
        # observers are registered before run(); each gets every event
        # synchronously, in the order data_access() and retire_branch()
        # emit them; and none reads the rings or the per-slice counters
        # (retired, retired_user, Thread.retired) or mutates machine
        # state (see repro.machine.backends).
        #: callbacks: fn(thread, instr, taken, target_address)
        self.branch_observers = []
        #: callbacks: fn(thread, pc, access, state, address)
        self.coherence_observers = []
        #: FaultKind -> handler function name
        self.signal_handlers = {}
        #: HwOp -> number of times dispatched (overhead accounting)
        self.hwop_counts = {}
        #: broadcast (one-time setup) HWOPs dispatched
        self.hwop_broadcast_count = 0
        #: taken branches retired (harvested by repro.obs per run)
        self.branches_taken = 0
        #: scheduler handoffs between distinct threads
        self.context_switches = 0
        #: optional sampling callback fn(machine, thread, steps), fired
        #: every ``_profile_every`` retired instructions (see
        #: :meth:`set_profile_hook`); ``None`` keeps the run loop on a
        #: single local truthiness test per instruction.
        self._profile_hook = None
        self._profile_every = None
        self._loaded = False
        #: the execution backend driving :meth:`run` (see
        #: :mod:`repro.machine.backends`)
        self._backend = get_backend(self.config.backend)
        #: deferred per-core LBR/LCR appends (threaded backend only);
        #: drained by :meth:`flush_ring_buffers`
        self._lbr_pending = [[] for _ in range(self.config.num_cores)]
        self._lcr_pending = [[] for _ in range(self.config.num_cores)]
        if self.config.backend == "threaded":
            # The private-line fast path is proven equivalent only for
            # buses whose caches gain lines exclusively through their
            # own core's accesses — true under machine control, not
            # necessarily for tests driving caches directly.
            self.bus.enable_private_tracking()

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self, args=()):
        """Map memory regions and create the main thread."""
        if self._loaded:
            raise RuntimeError("machine already loaded")
        program = self.program
        globals_size = max(program.globals_size, WORD_SIZE)
        self.memory.map_region(GLOBALS_BASE, globals_size, "globals")
        self.memory.map_region(HEAP_BASE, self.config.heap_size, "heap")
        for address, value in program.global_init.items():
            self.memory.poke(address, value)
        handlers = program.metadata.get("signal_handlers", {})
        for kind_name, function_name in handlers.items():
            self.signal_handlers[FaultKind(kind_name)] = function_name
        main = self._create_thread(program.entry_address(),
                                   exit_sentinel=PROCESS_EXIT_ADDR)
        for reg, value in zip(ARG_REGISTERS, args):
            main.regs[reg] = value
        self._loaded = True
        self.running = True
        return main

    def _create_thread(self, entry_pc, exit_sentinel):
        tid = len(self.threads)
        if tid >= MAX_THREADS:
            raise MachineFault(FaultInfo(
                kind=FaultKind.ILLEGAL_INSTRUCTION, pc=entry_pc,
                thread_id=tid, message="too many threads",
            ))
        core_id = tid % self.config.num_cores
        thread = Thread(tid, entry_pc, core_id)
        low, _high = stack_bounds_for_thread(tid)
        self.memory.map_region(low, STACK_SIZE, "stack%d" % tid)
        # The kernel seeds the return-address sentinel while setting up the
        # stack; kernel work does not generate user-visible cache events.
        sp = thread.regs[SP] - WORD_SIZE
        self.memory.poke(sp, exit_sentinel)
        thread.regs[SP] = sp
        self.threads.append(thread)
        return thread

    def set_global(self, name, value, index=0):
        """Poke word *index* of global *name* (test/benchmark setup)."""
        address = self.program.global_address(name) + index * WORD_SIZE
        self.memory.poke(address, value)

    def get_global(self, name, index=0):
        """Peek word *index* of global *name*."""
        address = self.program.global_address(name) + index * WORD_SIZE
        return self.memory.peek(address)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def set_profile_hook(self, hook, every=1000):
        """Install a sampling callback fired every *every* instructions.

        *hook* is called as ``hook(machine, thread, steps)`` with the
        thread that retired the sampled instruction — the basis for
        sampled self-profiling (see :mod:`repro.obs.sampling`).  Pass
        ``None`` to uninstall.
        """
        if hook is not None and every < 1:
            raise ValueError("profile period must be positive")
        self._profile_hook = hook
        self._profile_every = every if hook is not None else None

    def run(self, args=(), max_steps=None):
        """Load (if needed) and run to completion; return an ExitStatus.

        The loop itself lives in the configured execution backend (see
        :mod:`repro.machine.backends`); every backend produces identical
        results, differing only in wall-clock time.
        """
        if not self._loaded:
            self.load(args=args)
        started = time.perf_counter()
        budget = max_steps if max_steps is not None else self.config.max_steps
        self._backend.exec_loop(self, budget)
        self.flush_ring_buffers()
        obs = get_obs()
        if obs.enabled:
            obs.record_run(self, time.perf_counter() - started)
        return self.exit_status()

    def flush_ring_buffers(self):
        """Drain deferred LBR/LCR appends into the per-core rings.

        A no-op under the reference backend (the pending lists stay
        empty).  The threaded backend calls this before every ring
        observation point; flushing early is always safe.
        """
        cores = self.cores
        for core_id, pending in enumerate(self._lbr_pending):
            if pending:
                cores[core_id].lbr.bulk_append(pending)
                del pending[:]
        for core_id, pending in enumerate(self._lcr_pending):
            if pending:
                cores[core_id].lcr.bulk_append(pending)
                del pending[:]

    def step(self, thread):
        """Retire one instruction on *thread*."""
        try:
            instr = self.program.instruction_at(thread.pc)
        except KeyError:
            self._deliver_fault(thread, FaultInfo(
                kind=FaultKind.ILLEGAL_INSTRUCTION, pc=thread.pc,
                thread_id=thread.tid, message="pc outside code",
            ))
            return
        try:
            execute_instruction(self, thread, instr)
        except MachineFault as exc:
            self._deliver_fault(thread, exc.info)
            return
        self.retired += 1
        thread.retired += 1
        if instr.ring is Ring.USER:
            self.retired_user += 1

    def exit_status(self):
        """Build the :class:`ExitStatus` for the finished (or current) run."""
        return ExitStatus(
            exit_code=self.exit_code,
            fault=self.fault,
            output=tuple(self.output),
            retired=self.retired,
            profiles=tuple(self.profiles),
        )

    def _handle_no_runnable(self):
        blocked = [t for t in self.threads
                   if t.state is ThreadState.BLOCKED]
        if blocked:
            first = blocked[0]
            self._terminate_with_fault(FaultInfo(
                kind=FaultKind.DEADLOCK, pc=first.pc,
                thread_id=first.tid,
                message="all threads blocked (%s)" % (first.waiting_on,),
            ))
        else:
            if self.exit_code is None:
                self.exit_code = 0
            self.running = False

    # ------------------------------------------------------------------
    # Event plumbing (called from the interpreter)
    # ------------------------------------------------------------------

    def data_access(self, thread, instr, address, is_store, value=None):
        """Perform a data-memory access, emitting coherence events."""
        try:
            if is_store:
                self.memory.store(address, value)
                result = None
            else:
                result = self.memory.load(address)
        except SegmentationViolation as exc:
            raise MachineFault(FaultInfo(
                kind=FaultKind.SEGMENTATION_FAULT, pc=instr.address,
                thread_id=thread.tid, address=exc.address,
                message=str(exc),
            ))
        observed = self.bus.access(thread.core_id, address, is_store)
        access = AccessType.STORE if is_store else AccessType.LOAD
        core = self.cores[thread.core_id]
        core.lcr.record(
            pc=instr.address, state=observed, access=access, ring=instr.ring
        )
        core.counters.observe(
            pc=instr.address, state=observed, access=access, ring=instr.ring
        )
        if self.coherence_observers:
            for observer in self.coherence_observers:
                observer(thread, instr.address, access, observed, address)
        return result

    def retire_branch(self, thread, instr, taken, target):
        """Retire a branch instruction; record it in the LBR if taken."""
        if self.branch_observers:
            for observer in self.branch_observers:
                observer(thread, instr, taken, target)
        if taken:
            self.branches_taken += 1
            self.cores[thread.core_id].lbr.record(
                from_address=instr.address,
                to_address=target,
                kind=instr.branch_kind(),
                ring=instr.ring,
            )
            thread.pc = target
        else:
            thread.pc = instr.address + INSTRUCTION_SIZE

    # ------------------------------------------------------------------
    # Threads and synchronization (called from the interpreter)
    # ------------------------------------------------------------------

    def spawn_thread(self, parent, entry_pc):
        """Create a new thread running the function at *entry_pc*."""
        child = self._create_thread(entry_pc, exit_sentinel=THREAD_EXIT_ADDR)
        copy_spawn_arguments(parent, child)
        return child.tid

    def thread_exit(self, thread):
        """Terminate *thread* and wake its joiners."""
        thread.exit()
        for other in self.threads:
            if (other.state is ThreadState.BLOCKED
                    and other.waiting_on == ("join", thread.tid)):
                other.wake()
                other.pc += INSTRUCTION_SIZE

    def join_thread(self, thread, instr, target_tid):
        """Block *thread* until *target_tid* exits."""
        if not (0 <= target_tid < len(self.threads)):
            raise MachineFault(FaultInfo(
                kind=FaultKind.ILLEGAL_INSTRUCTION, pc=instr.address,
                thread_id=thread.tid,
                message="join of unknown thread %d" % target_tid,
            ))
        target = self.threads[target_tid]
        if target.state is ThreadState.EXITED:
            thread.pc += INSTRUCTION_SIZE
        else:
            thread.block(("join", target_tid))

    def mutex_lock(self, thread, instr, address):
        """Acquire the mutex at *address* (pthread_mutex_lock)."""
        if not self.memory.is_mapped(address):
            # Locking a destroyed/NULL mutex pointer segfaults, as in the
            # PBZIP2 order violation of Figure 6.
            raise MachineFault(FaultInfo(
                kind=FaultKind.SEGMENTATION_FAULT, pc=instr.address,
                thread_id=thread.tid, address=address,
                message="lock through bad mutex pointer",
            ))
        # The lock performs an atomic read-modify-write on the mutex word.
        self.data_access(thread, instr, address, is_store=True, value=1)
        mutex = self.mutexes.setdefault(address, _Mutex())
        if mutex.owner is None and not mutex.waiters:
            mutex.owner = thread.tid
            thread.pc += INSTRUCTION_SIZE
        else:
            mutex.waiters.append(thread.tid)
            thread.block(("mutex", address))

    def mutex_unlock(self, thread, instr, address):
        """Release the mutex at *address*; hand off to the first waiter."""
        if not self.memory.is_mapped(address):
            raise MachineFault(FaultInfo(
                kind=FaultKind.SEGMENTATION_FAULT, pc=instr.address,
                thread_id=thread.tid, address=address,
                message="unlock through bad mutex pointer",
            ))
        self.data_access(thread, instr, address, is_store=True, value=0)
        mutex = self.mutexes.get(address)
        thread.pc += INSTRUCTION_SIZE
        if mutex is None or mutex.owner != thread.tid:
            return
        if mutex.waiters:
            next_tid = mutex.waiters.popleft()
            mutex.owner = next_tid
            waiter = self.threads[next_tid]
            waiter.wake()
            waiter.pc += INSTRUCTION_SIZE
        else:
            mutex.owner = None

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------

    def process_exit(self, code):
        """Terminate the whole process with *code*."""
        self.exit_code = code
        self.running = False
        for thread in self.threads:
            thread.exit()

    def signal_handler_returned(self, thread):
        """The signal handler finished; the process dies of its fault."""
        self._terminate_with_fault(self.pending_fault)

    def _deliver_fault(self, thread, info):
        handler_name = self.signal_handlers.get(info.kind)
        if handler_name is None or thread.in_signal_handler:
            self._terminate_with_fault(info)
            return
        # Redirect the thread into the handler.  Fault delivery is a
        # hardware trap, not a retired branch: nothing enters the LBR.
        thread.in_signal_handler = True
        self.pending_fault = info
        sp = thread.regs[SP] - WORD_SIZE
        self.memory.poke(sp, SIGNAL_RETURN_ADDR)
        thread.regs[SP] = sp
        thread.pc = self.program.function_named(handler_name).entry

    def _terminate_with_fault(self, info):
        self.fault = info
        self.running = False
        for thread in self.threads:
            thread.exit()

    # ------------------------------------------------------------------
    # Hardware-monitoring operations (the driver's privileged core)
    # ------------------------------------------------------------------

    def hw_dispatch(self, thread, instr):
        """Execute a ``HWOP`` instruction.

        ``instr.offset`` selects scope: 0 = the calling thread's core only
        (used by toggling wrappers), 1 = every core (used by the driver's
        enable/disable ioctls, which issue a cross-CPU call).
        """
        core = self.cores[thread.core_id]
        broadcast = bool(instr.offset)
        targets = self.cores if broadcast else [core]
        op = instr.hwop
        self.hwop_counts[op] = self.hwop_counts.get(op, 0) + 1
        if broadcast:
            # One-time monitoring setup (the Figure 7 enable sequence at
            # the entry of main) — tracked separately so overhead
            # accounting can amortize it away, as long production runs do.
            self.hwop_broadcast_count += 1
        if op is HwOp.LBR_RESET:
            for target in targets:
                target.lbr.reset()
        elif op is HwOp.LBR_CONFIG:
            mask = instr.imm if instr.imm is not None \
                else int(LBR_SELECT_PAPER_MASK)
            for target in targets:
                target.lbr.configure(mask)
        elif op is HwOp.LBR_ENABLE:
            for target in targets:
                target.lbr.enable()
        elif op is HwOp.LBR_DISABLE:
            for target in targets:
                target.lbr.disable()
        elif op is HwOp.LBR_PROFILE:
            self.profiles.append(ProfileSnapshot(
                kind="lbr", thread_id=thread.tid,
                site_id=instr.imm if instr.imm is not None else -1,
                pc=instr.address,
                entries=core.lbr.entries_latest_first(),
            ))
        elif op is HwOp.LCR_RESET:
            for target in targets:
                target.lcr.reset()
        elif op is HwOp.LCR_CONFIG:
            config = LCR_CONFIG_SELECTORS.get(
                instr.imm, self.config.lcr_config or CONF_SPACE_CONSUMING
            )
            for target in targets:
                target.lcr.configure(config)
        elif op is HwOp.LCR_ENABLE:
            for target in targets:
                target.lcr.enable(
                    pollution_pc=instr.address,
                    pollute=(target is core
                             and self.config.lcr_ioctl_pollution),
                )
        elif op is HwOp.LCR_DISABLE:
            for target in targets:
                target.lcr.disable(
                    pollution_pc=instr.address,
                    pollute=(target is core
                             and self.config.lcr_ioctl_pollution),
                )
        elif op is HwOp.LCR_PROFILE:
            self.profiles.append(ProfileSnapshot(
                kind="lcr", thread_id=thread.tid,
                site_id=instr.imm if instr.imm is not None else -1,
                pc=instr.address,
                entries=core.lcr.entries_latest_first(),
            ))
        elif op is HwOp.PMC_CONFIG:
            flags = instr.imm or 0
            for target in targets:
                target.counters.count_user = bool(flags & 0x1)
                target.counters.count_kernel = bool(flags & 0x2)
        elif op is HwOp.PMC_READ:
            access, state = _decode_pmc_selector(instr.imm or 0)
            thread.regs[instr.rd] = core.counters.read(access, state)
        else:  # pragma: no cover - exhaustive over HwOp
            raise AssertionError(op)


def _decode_pmc_selector(selector):
    """Decode a PMC selector: high byte event code, low byte unit mask."""
    event_code = (selector >> 8) & 0xFF
    unit_mask = selector & 0xFF
    access = AccessType.LOAD if event_code != 0x41 else AccessType.STORE
    for state, mask in UNIT_MASK.items():
        if mask == unit_mask:
            return access, state
    return access, MesiState.INVALID
