"""Last Branch Record (LBR).

A circular ring of hardware registers recording the last N *taken* branch
instructions (from-address and to-address).  Recording is enabled through
``IA32_DEBUGCTL`` and filtered by branch class and privilege ring through
``LBR_SELECT``, following Table 1 of the paper.  The default capacity of 16
matches Intel Nehalem, the microarchitecture all the paper's experiments
ran on.

Ring invariants (the execution-backend contract relies on these):

* The ring holds the **last** ``capacity`` recorded branches;
  ``recorded_count`` counts every branch ever recorded, including those
  already rotated out.  Both are observable through the MSR file and in
  diagnosis profiles.
* Filtering (``should_record``) is decided at *retire time* from the
  branch kind, privilege ring, and the ``LBR_SELECT`` mask in force at
  that moment — so a backend deferring appends must evaluate filters
  eagerly and may only defer the already-filtered entries.
* :meth:`LastBranchRecord.bulk_append` is the deferred-write primitive:
  appending a batch must leave ``entries()`` and ``recorded_count``
  exactly as if each entry had been :meth:`record`-ed individually, and
  batches must be flushed before any read of the ring (profile snapshot,
  MSR read, observer callback, end of run).
"""

import enum
from collections import deque
from dataclasses import dataclass

from repro.isa.instructions import BranchKind, Ring
from repro.hwpmu import msr as msrdefs


class LbrSelectBits(enum.IntEnum):
    """``LBR_SELECT`` filter mask bits (Table 1).

    A set bit *suppresses* the corresponding branch class from being
    recorded.
    """

    CPL_EQ_0 = 0x1          # filter branches occurring in ring 0
    CPL_NEQ_0 = 0x2         # filter branches occurring in other levels
    JCC = 0x4               # filter conditional branches
    NEAR_REL_CALL = 0x8     # filter near relative calls
    NEAR_IND_CALL = 0x10    # filter near indirect calls
    NEAR_RET = 0x20         # filter near returns
    NEAR_IND_JMP = 0x40     # filter near unconditional indirect jumps
    NEAR_REL_JMP = 0x80     # filter near unconditional relative branches
    FAR_BRANCH = 0x100      # filter far branches


#: ``IA32_DEBUGCTL`` values from Table 1.
DEBUGCTL_ENABLE_VALUE = 0x801
DEBUGCTL_DISABLE_VALUE = 0x0

#: The ``LBR_SELECT`` mask the paper uses (the starred rows of Table 1):
#: suppress ring-0 branches, calls, indirect calls, returns, indirect
#: jumps, and far branches — keeping conditional branches and near
#: relative unconditional jumps, the two classes needed to resolve
#: source-level conditional outcomes (Figure 2).
LBR_SELECT_PAPER_MASK = (
    LbrSelectBits.CPL_EQ_0
    | LbrSelectBits.NEAR_REL_CALL
    | LbrSelectBits.NEAR_IND_CALL
    | LbrSelectBits.NEAR_RET
    | LbrSelectBits.NEAR_IND_JMP
    | LbrSelectBits.FAR_BRANCH
)

_KIND_TO_BIT = {
    BranchKind.CONDITIONAL: LbrSelectBits.JCC,
    BranchKind.NEAR_CALL: LbrSelectBits.NEAR_REL_CALL,
    BranchKind.NEAR_IND_CALL: LbrSelectBits.NEAR_IND_CALL,
    BranchKind.NEAR_RET: LbrSelectBits.NEAR_RET,
    BranchKind.UNCOND_INDIRECT: LbrSelectBits.NEAR_IND_JMP,
    BranchKind.UNCOND_DIRECT: LbrSelectBits.NEAR_REL_JMP,
    BranchKind.FAR: LbrSelectBits.FAR_BRANCH,
}

#: Nehalem LBR capacity (Section 2.1: 4 on Pentium 4, 8 on Pentium M,
#: 16 on Nehalem).
DEFAULT_LBR_CAPACITY = 16


@dataclass(frozen=True)
class LbrEntry:
    """One LBR ring entry: a retired taken branch."""

    from_address: int
    to_address: int
    kind: BranchKind
    ring: Ring

    def __reduce__(self):
        # Positional-reconstruct pickling: entries are serialized in
        # bulk on the checkpoint-journal hot path, and the generic
        # dataclass state protocol is ~40% slower and half again the
        # bytes for these four-field records.
        return (LbrEntry, (self.from_address, self.to_address,
                           self.kind, self.ring))

    def __str__(self):
        return "0x%x->0x%x(%s)" % (
            self.from_address, self.to_address, self.kind.value,
        )


class LastBranchRecord:
    """The LBR ring of one core."""

    def __init__(self, capacity=DEFAULT_LBR_CAPACITY):
        self.capacity = capacity
        self._ring = deque(maxlen=capacity)
        self.enabled = False
        self.select_mask = 0
        self.recorded_count = 0

    # ------------------------------------------------------------------
    # Software interface (normally reached through MSRs / the driver)
    # ------------------------------------------------------------------

    def enable(self):
        self.enabled = True

    def disable(self):
        self.enabled = False

    def reset(self):
        """Clear all ring entries (the ``DRIVER_CLEAN_LBR`` ioctl)."""
        self._ring.clear()

    def configure(self, select_mask):
        """Program the ``LBR_SELECT`` filter mask."""
        self.select_mask = int(select_mask)

    def attach_msrs(self, msr_file):
        """Expose this LBR through its architectural MSR numbers."""
        msr_file.register_write_handler(
            msrdefs.IA32_DEBUGCTL, self._write_debugctl
        )
        msr_file.register_read_handler(
            msrdefs.IA32_DEBUGCTL,
            lambda: DEBUGCTL_ENABLE_VALUE if self.enabled else 0,
        )
        msr_file.register_write_handler(msrdefs.LBR_SELECT, self.configure)
        msr_file.register_read_handler(
            msrdefs.LBR_SELECT, lambda: self.select_mask
        )
        msr_file.register_range_reader(
            msrdefs.MSR_LASTBRANCH_FROM_BASE, self.capacity, self._from_ip
        )
        msr_file.register_range_reader(
            msrdefs.MSR_LASTBRANCH_TO_BASE, self.capacity, self._to_ip
        )

    def _write_debugctl(self, value):
        if value & DEBUGCTL_ENABLE_VALUE:
            self.enable()
        else:
            self.disable()

    def _from_ip(self, slot):
        entry = self.entry_latest(slot + 1)
        return 0 if entry is None else entry.from_address

    def _to_ip(self, slot):
        entry = self.entry_latest(slot + 1)
        return 0 if entry is None else entry.to_address

    # ------------------------------------------------------------------
    # Hardware interface
    # ------------------------------------------------------------------

    def should_record(self, kind, ring):
        """Apply the ``LBR_SELECT`` filter to a candidate branch."""
        if ring is Ring.KERNEL and self.select_mask & LbrSelectBits.CPL_EQ_0:
            return False
        if ring is Ring.USER and self.select_mask & LbrSelectBits.CPL_NEQ_0:
            return False
        return not (self.select_mask & _KIND_TO_BIT[kind])

    def record(self, from_address, to_address, kind, ring):
        """Record a retired taken branch, subject to enable + filters."""
        if not self.enabled:
            return False
        if not self.should_record(kind, ring):
            return False
        self._ring.append(
            LbrEntry(
                from_address=from_address,
                to_address=to_address,
                kind=kind,
                ring=ring,
            )
        )
        self.recorded_count += 1
        return True

    def bulk_append(self, entries):
        """Append pre-filtered entries (oldest-first) in one batch.

        The threaded execution backend evaluates the enable/filter state
        eagerly at retire time and defers only the append (see
        :mod:`repro.machine.backends`), so *entries* are
        :class:`LbrEntry` objects that have already passed
        :meth:`should_record` while enabled.  Ring contents and
        ``recorded_count`` end up exactly as if each entry had been
        :meth:`record`-ed individually; batches longer than the capacity
        only materialize the surviving suffix.
        """
        self.recorded_count += len(entries)
        if len(entries) > self.capacity:
            entries = entries[len(entries) - self.capacity:]
        self._ring.extend(entries)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def entries(self):
        """Return ring entries oldest-first."""
        return tuple(self._ring)

    def entries_latest_first(self):
        """Return ring entries newest-first (how the tables index them)."""
        return tuple(reversed(self._ring))

    def entry_latest(self, n):
        """Return the n-th latest entry (1 = newest), or ``None``."""
        latest = self.entries_latest_first()
        if 1 <= n <= len(latest):
            return latest[n - 1]
        return None

    def __len__(self):
        return len(self._ring)
