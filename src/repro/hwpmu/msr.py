"""Machine-specific registers (MSRs).

Software programs the LBR through MSRs — ``IA32_DEBUGCTL`` (enable bit) and
``LBR_SELECT`` (branch-class filter), with the ring entries readable through
``BRANCH_n_FROM_IP``/``BRANCH_n_TO_IP`` (Table 1 and Section 4.3 of the
paper).  :class:`MsrFile` is a small register file with read/write hooks so
hardware units can expose live values through their MSR numbers, the way
``rdmsr``/``wrmsr`` behave on real hardware.
"""

#: MSR numbers from Table 1 (Intel Nehalem).
IA32_DEBUGCTL = 0x1D9
LBR_SELECT = 0x1C8

#: Base MSR numbers for LBR ring entries (Intel uses 0x680/0x6C0).
MSR_LASTBRANCH_FROM_BASE = 0x680
MSR_LASTBRANCH_TO_BASE = 0x6C0

#: MSR number for the LCR configuration register (this paper's proposal;
#: number chosen in an unused range).
LCR_SELECT = 0x7C8
#: Base MSR numbers for LCR ring entries (PC and observed-state registers).
MSR_LASTCOHERENCE_PC_BASE = 0x780
MSR_LASTCOHERENCE_STATE_BASE = 0x7A0


class MsrAccessError(Exception):
    """Raised on access to an unimplemented MSR."""


class MsrFile:
    """A per-core machine-specific register file.

    Plain MSRs behave as storage.  A hardware unit may register *handlers*
    for specific MSR numbers so reads and writes are serviced live, and
    one *range reader* for a block of consecutive numbers, such as a
    ring's per-slot registers.
    """

    def __init__(self):
        self._values = {}
        self._read_handlers = {}
        self._write_handlers = {}
        self._range_readers = []

    def register_read_handler(self, msr, handler):
        """Route ``rdmsr`` of *msr* through *handler()*."""
        self._read_handlers[msr] = handler

    def register_range_reader(self, base, count, reader):
        """Route ``rdmsr`` of ``base`` … ``base + count - 1`` through
        *reader(slot)*, where ``slot = msr - base``."""
        self._range_readers.append((base, count, reader))

    def register_write_handler(self, msr, handler):
        """Route ``wrmsr`` of *msr* through *handler(value)*."""
        self._write_handlers[msr] = handler

    def rdmsr(self, msr):
        """Read an MSR: its handler, else the range reader covering it,
        else its stored value."""
        handler = self._read_handlers.get(msr)
        if handler is not None:
            return handler()
        for base, count, reader in self._range_readers:
            if base <= msr < base + count:
                return reader(msr - base)
        if msr in self._values:
            return self._values[msr]
        raise MsrAccessError("rdmsr of unimplemented MSR 0x%x" % msr)

    def wrmsr(self, msr, value):
        """Write an MSR."""
        handler = self._write_handlers.get(msr)
        if handler is not None:
            handler(value)
            return
        self._values[msr] = value

    def declare(self, msr, value=0):
        """Make a plain-storage MSR readable before its first write."""
        self._values.setdefault(msr, value)
