"""Last Cache-coherence Record (LCR) — the paper's hardware proposal.

LCR extends machines that can already *count* cache-coherence events
(Table 2) into machines that can *record while counting*: per core,
K pairs of registers hold the program counters and observed coherence
states of the latest K L1 data-cache accesses matching a configured event
set (Section 4.2.1).  Memory addresses are deliberately not recorded — a
privacy property the paper highlights.

Two configurations from Section 4.2.2 are provided:

* :data:`CONF_SPACE_SAVING` — invalid loads, invalid stores, shared loads
  ("Conf1" in Table 7);
* :data:`CONF_SPACE_CONSUMING` — invalid loads, invalid stores, exclusive
  loads ("Conf2" in Table 7; noisier because stack and read-mostly-global
  loads often observe the Exclusive state).

Ring invariants (the execution-backend contract relies on these):

* Every recorded entry pairs a program counter with the MESI state the
  access **observed before** touching the cache — the same pre-access
  state the performance counters classify, so LCR contents and counter
  totals always agree.
* Event-set matching happens at access time against the configuration
  in force at that moment; a backend deferring ring writes must match
  eagerly and defer only accepted ``(pc, state)`` pairs.
* ``recorded_count`` counts every accepted access ever recorded, while
  the ring keeps only the last ``capacity``; ``bulk_append`` must be
  indistinguishable from the equivalent sequence of single records and
  must be flushed before any ring read (profiles, MSRs, end of run).
"""

import enum
from collections import deque
from dataclasses import dataclass, field

from repro.cache.mesi import MesiState
from repro.hwpmu import msr as msrdefs
from repro.isa.instructions import Ring


class AccessType(enum.Enum):
    """Whether an L1-D access is a load or a store (Table 2 event codes)."""

    LOAD = "load"
    STORE = "store"

    # Identity hash: members are singletons, and these are hashed in the
    # per-access performance-counter hot path (see MesiState).
    __hash__ = object.__hash__

    @property
    def event_code(self):
        """Intel event code from Table 2 (LOAD 0x40, STORE 0x41)."""
        return 0x40 if self is AccessType.LOAD else 0x41


#: Default LCR depth; the paper sets K = 16 "resembling the setting of LBR
#: on Nehalem processors".
DEFAULT_LCR_CAPACITY = 16


@dataclass(frozen=True)
class LcrConfig:
    """Contents of the LCR configuration register.

    ``events`` is the set of ``(AccessType, MesiState)`` pairs to record;
    ``record_user`` / ``record_kernel`` mirror the privilege filtering
    existing performance counters already support.
    """

    events: frozenset
    record_user: bool = True
    record_kernel: bool = False

    def matches(self, access, state, ring):
        """Return True if an access should be recorded."""
        if ring is Ring.USER and not self.record_user:
            return False
        if ring is Ring.KERNEL and not self.record_kernel:
            return False
        return (access, state) in self.events

    def describe(self):
        """Human-readable event list, e.g. ``"load@I load@S store@I"``."""
        parts = sorted(
            "%s@%s" % (access.value, state.letter)
            for access, state in self.events
        )
        return " ".join(parts)


# ----------------------------------------------------------------------
# LCR_SELECT register encoding
#
# The paper expects LCR to "be accessed in a similar way as we access
# LBR" (Section 4.3), i.e. through machine-specific registers.  The
# configuration register packs one bit per (access, state) event class —
# the Table 2 unit-mask order I, S, E, M, loads in the low nibble and
# stores in the next — plus user/kernel filter bits.
# ----------------------------------------------------------------------

_STATE_BITS = {
    MesiState.INVALID: 0,
    MesiState.SHARED: 1,
    MesiState.EXCLUSIVE: 2,
    MesiState.MODIFIED: 3,
}
_BIT_STATES = {bit: state for state, bit in _STATE_BITS.items()}

LCR_SELECT_USER_BIT = 0x100
LCR_SELECT_KERNEL_BIT = 0x200


def encode_lcr_select(config):
    """Pack an :class:`LcrConfig` into its register value."""
    value = 0
    for access, state in config.events:
        shift = _STATE_BITS[state] + (4 if access is AccessType.STORE
                                      else 0)
        value |= 1 << shift
    if config.record_user:
        value |= LCR_SELECT_USER_BIT
    if config.record_kernel:
        value |= LCR_SELECT_KERNEL_BIT
    return value


def decode_lcr_select(value):
    """Unpack a register value into an :class:`LcrConfig`."""
    events = set()
    for bit, state in _BIT_STATES.items():
        if value & (1 << bit):
            events.add((AccessType.LOAD, state))
        if value & (1 << (bit + 4)):
            events.add((AccessType.STORE, state))
    return LcrConfig(
        events=frozenset(events),
        record_user=bool(value & LCR_SELECT_USER_BIT),
        record_kernel=bool(value & LCR_SELECT_KERNEL_BIT),
    )


CONF_SPACE_SAVING = LcrConfig(
    events=frozenset(
        {
            (AccessType.LOAD, MesiState.INVALID),
            (AccessType.STORE, MesiState.INVALID),
            (AccessType.LOAD, MesiState.SHARED),
        }
    )
)

CONF_SPACE_CONSUMING = LcrConfig(
    events=frozenset(
        {
            (AccessType.LOAD, MesiState.INVALID),
            (AccessType.STORE, MesiState.INVALID),
            (AccessType.LOAD, MesiState.EXCLUSIVE),
        }
    )
)


@dataclass(frozen=True)
class LcrEntry:
    """One LCR ring entry.

    ``pc`` is the program counter of the retired access and ``state`` the
    coherence state it observed prior to the cache access.  No memory
    address is stored.
    """

    pc: int
    state: MesiState
    access: AccessType
    ring: Ring
    #: True for the dummy entries the profiling ioctls themselves introduce
    #: (Section 4.3 "LCR simulation").
    pollution: bool = False

    def __str__(self):
        return "0x%x %s@%s" % (self.pc, self.access.value, self.state.letter)


#: Pollution introduced by the enabling ioctl: "two user-level exclusive
#: reads will be introduced by the ioctl call that enables LCR".
ENABLE_POLLUTION = (
    (AccessType.LOAD, MesiState.EXCLUSIVE),
    (AccessType.LOAD, MesiState.EXCLUSIVE),
)

#: Pollution introduced by the disabling ioctl: "two user-level exclusive
#: reads and one user-level shared read".
DISABLE_POLLUTION = (
    (AccessType.LOAD, MesiState.EXCLUSIVE),
    (AccessType.LOAD, MesiState.EXCLUSIVE),
    (AccessType.LOAD, MesiState.SHARED),
)


class LastCacheCoherenceRecord:
    """The LCR ring of one core (per-thread in the simulator, matching the
    paper's per-thread circular-buffer PIN simulation)."""

    def __init__(self, capacity=DEFAULT_LCR_CAPACITY, config=None):
        self.capacity = capacity
        self.config = config or CONF_SPACE_CONSUMING
        self._ring = deque(maxlen=capacity)
        self.enabled = False
        self.recorded_count = 0

    # ------------------------------------------------------------------
    # Software interface
    # ------------------------------------------------------------------

    def configure(self, config):
        """Program the configuration register."""
        self.config = config

    def attach_msrs(self, msr_file):
        """Expose this LCR through its MSR numbers (Section 4.3: LCR is
        "accessed in a similar way as we access LBR")."""
        msr_file.register_write_handler(
            msrdefs.LCR_SELECT,
            lambda value: self.configure(decode_lcr_select(value)),
        )
        msr_file.register_read_handler(
            msrdefs.LCR_SELECT, lambda: encode_lcr_select(self.config)
        )
        msr_file.register_range_reader(
            msrdefs.MSR_LASTCOHERENCE_PC_BASE, self.capacity, self._pc
        )
        msr_file.register_range_reader(
            msrdefs.MSR_LASTCOHERENCE_STATE_BASE, self.capacity, self._state
        )

    def _pc(self, slot):
        entry = self.entry_latest(slot + 1)
        return 0 if entry is None else entry.pc

    def _state(self, slot):
        """Encode the slot's observed state and access type: Table 2's
        unit mask in the low byte, the access's event code in the next."""
        from repro.hwpmu.counters import UNIT_MASK

        entry = self.entry_latest(slot + 1)
        if entry is None:
            return 0
        return (entry.access.event_code << 8) | UNIT_MASK[entry.state]

    def enable(self, pollution_pc=0, pollute=True):
        """Enable recording; injects the enabling-ioctl pollution.

        ``pollute=False`` models enabling a *remote* core's LCR from the
        driver's cross-CPU call: the ioctl's own user-level reads land only
        in the calling core's ring.
        """
        self.enabled = True
        if pollute:
            self._inject_pollution(ENABLE_POLLUTION, pollution_pc)

    def disable(self, pollution_pc=0, pollute=True):
        """Disable recording; injects the disabling-ioctl pollution first."""
        if self.enabled and pollute:
            self._inject_pollution(DISABLE_POLLUTION, pollution_pc)
        self.enabled = False

    def reset(self):
        """Clear all ring entries."""
        self._ring.clear()

    def _inject_pollution(self, spec, pollution_pc):
        for access, state in spec:
            if self.config.matches(access, state, Ring.USER):
                self._ring.append(
                    LcrEntry(
                        pc=pollution_pc,
                        state=state,
                        access=access,
                        ring=Ring.USER,
                        pollution=True,
                    )
                )

    # ------------------------------------------------------------------
    # Hardware interface
    # ------------------------------------------------------------------

    def record(self, pc, state, access, ring):
        """Record a retired L1-D access, subject to enable + config."""
        if not self.enabled:
            return False
        if not self.config.matches(access, state, ring):
            return False
        self._ring.append(
            LcrEntry(pc=pc, state=state, access=access, ring=ring)
        )
        self.recorded_count += 1
        return True

    def bulk_append(self, items):
        """Append pre-filtered ``(pc, state, access, ring)`` tuples.

        The threaded execution backend evaluates enable + config
        matching eagerly at retire time and defers only the append (see
        :mod:`repro.machine.backends`); *items* arrive oldest-first and
        have already passed :meth:`LcrConfig.matches` while enabled.
        Ring contents and ``recorded_count`` match per-item
        :meth:`record` calls exactly; only the last ``capacity`` items
        are materialized into :class:`LcrEntry` objects.
        """
        self.recorded_count += len(items)
        if len(items) > self.capacity:
            items = items[len(items) - self.capacity:]
        self._ring.extend(
            LcrEntry(pc=pc, state=state, access=access, ring=ring)
            for pc, state, access, ring in items
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def entries(self):
        """Return ring entries oldest-first."""
        return tuple(self._ring)

    def entries_latest_first(self):
        """Return ring entries newest-first (how Table 7 indexes them)."""
        return tuple(reversed(self._ring))

    def entry_latest(self, n):
        """Return the n-th latest entry (1 = newest), or ``None``."""
        latest = self.entries_latest_first()
        if 1 <= n <= len(latest):
            return latest[n - 1]
        return None

    def __len__(self):
        return len(self._ring)
