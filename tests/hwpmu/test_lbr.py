"""Tests for the Last Branch Record model."""

import pytest

from repro.hwpmu.lbr import (
    DEBUGCTL_ENABLE_VALUE,
    LBR_SELECT_PAPER_MASK,
    LastBranchRecord,
    LbrSelectBits,
)
from repro.hwpmu import msr as msrdefs
from repro.hwpmu.msr import MsrAccessError, MsrFile
from repro.isa.instructions import BranchKind, Ring


def record(lbr, n=1, kind=BranchKind.CONDITIONAL, ring=Ring.USER,
           base=0x1000):
    recorded = 0
    for index in range(n):
        if lbr.record(base + index * 4, base + 0x100, kind, ring):
            recorded += 1
    return recorded


def test_disabled_lbr_records_nothing():
    lbr = LastBranchRecord()
    assert record(lbr) == 0
    assert len(lbr) == 0


def test_enabled_lbr_records():
    lbr = LastBranchRecord()
    lbr.enable()
    assert record(lbr, 3) == 3
    assert len(lbr) == 3


def test_ring_buffer_keeps_last_16():
    lbr = LastBranchRecord()
    lbr.enable()
    record(lbr, 20)
    assert len(lbr) == 16
    newest = lbr.entry_latest(1)
    oldest = lbr.entry_latest(16)
    assert newest.from_address == 0x1000 + 19 * 4
    assert oldest.from_address == 0x1000 + 4 * 4
    assert lbr.entry_latest(17) is None
    assert lbr.entry_latest(0) is None


def test_smaller_capacities():
    """LBR grew from 4 (Pentium 4) to 8 (Pentium M) to 16 (Nehalem)."""
    for capacity in (4, 8, 16):
        lbr = LastBranchRecord(capacity=capacity)
        lbr.enable()
        record(lbr, 32)
        assert len(lbr) == capacity


def test_paper_mask_keeps_conditionals_and_relative_jumps():
    lbr = LastBranchRecord()
    lbr.enable()
    lbr.configure(LBR_SELECT_PAPER_MASK)
    assert lbr.record(0x1000, 0x1010, BranchKind.CONDITIONAL, Ring.USER)
    assert lbr.record(0x1000, 0x1010, BranchKind.UNCOND_DIRECT, Ring.USER)
    for kind in (BranchKind.NEAR_CALL, BranchKind.NEAR_IND_CALL,
                 BranchKind.NEAR_RET, BranchKind.UNCOND_INDIRECT,
                 BranchKind.FAR):
        assert not lbr.record(0x1000, 0x1010, kind, Ring.USER)


def test_paper_mask_filters_kernel_branches():
    lbr = LastBranchRecord()
    lbr.enable()
    lbr.configure(LBR_SELECT_PAPER_MASK)
    assert not lbr.record(0x1000, 0x1010, BranchKind.CONDITIONAL,
                          Ring.KERNEL)


def test_user_filter_bit():
    lbr = LastBranchRecord()
    lbr.enable()
    lbr.configure(LbrSelectBits.CPL_NEQ_0)
    assert not lbr.record(0x1000, 0x1010, BranchKind.CONDITIONAL, Ring.USER)
    assert lbr.record(0x1000, 0x1010, BranchKind.CONDITIONAL, Ring.KERNEL)


def test_reset_clears_entries():
    lbr = LastBranchRecord()
    lbr.enable()
    record(lbr, 5)
    lbr.reset()
    assert len(lbr) == 0


def test_msr_interface():
    lbr = LastBranchRecord()
    msrs = MsrFile()
    lbr.attach_msrs(msrs)
    msrs.wrmsr(msrdefs.LBR_SELECT, int(LBR_SELECT_PAPER_MASK))
    msrs.wrmsr(msrdefs.IA32_DEBUGCTL, DEBUGCTL_ENABLE_VALUE)
    assert lbr.enabled
    assert lbr.select_mask == int(LBR_SELECT_PAPER_MASK)
    record(lbr, 2)
    # Slot 0 reads the newest entry's from-IP.
    assert msrs.rdmsr(msrdefs.MSR_LASTBRANCH_FROM_BASE) == 0x1004
    assert msrs.rdmsr(msrdefs.MSR_LASTBRANCH_FROM_BASE + 1) == 0x1000
    assert msrs.rdmsr(msrdefs.MSR_LASTBRANCH_FROM_BASE + 5) == 0
    msrs.wrmsr(msrdefs.IA32_DEBUGCTL, 0)
    assert not lbr.enabled


@pytest.mark.parametrize("capacity", [4, 16, 32])
def test_every_slot_msr_reads_its_ring_entry(capacity):
    """Slot n of the FROM/TO blocks reads the (n+1)-th latest entry, 0
    once the ring runs out, and the number after the last slot is not a
    register."""
    lbr = LastBranchRecord(capacity=capacity)
    msrs = MsrFile()
    lbr.attach_msrs(msrs)
    lbr.enable()
    for filled in (capacity // 2, capacity + 3):
        lbr.reset()
        for index in range(filled):
            lbr.record(0x1000 + 4 * index, 0x9000 + 8 * index,
                       BranchKind.CONDITIONAL, Ring.USER)
        for slot in range(capacity):
            entry = lbr.entry_latest(slot + 1)
            assert msrs.rdmsr(msrdefs.MSR_LASTBRANCH_FROM_BASE + slot) \
                == (0 if entry is None else entry.from_address)
            assert msrs.rdmsr(msrdefs.MSR_LASTBRANCH_TO_BASE + slot) \
                == (0 if entry is None else entry.to_address)
    for base in (msrdefs.MSR_LASTBRANCH_FROM_BASE,
                 msrdefs.MSR_LASTBRANCH_TO_BASE):
        with pytest.raises(MsrAccessError):
            msrs.rdmsr(base + capacity)


def test_table1_msr_numbers():
    assert msrdefs.IA32_DEBUGCTL == 0x1D9
    assert msrdefs.LBR_SELECT == 0x1C8
    assert DEBUGCTL_ENABLE_VALUE == 0x801


def test_paper_mask_value():
    # The starred rows of Table 1: 0x1|0x8|0x10|0x20|0x40|0x100.
    assert int(LBR_SELECT_PAPER_MASK) == 0x179
