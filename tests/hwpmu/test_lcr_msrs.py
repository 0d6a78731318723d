"""Tests for the LCR's MSR interface and its driver ioctls."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.mesi import MesiState
from repro.hwpmu import msr as msrdefs
from repro.hwpmu.counters import UNIT_MASK
from repro.hwpmu.lcr import (
    AccessType,
    CONF_SPACE_CONSUMING,
    CONF_SPACE_SAVING,
    LastCacheCoherenceRecord,
    LcrConfig,
    decode_lcr_select,
    encode_lcr_select,
)
from repro.hwpmu.msr import MsrAccessError, MsrFile
from repro.isa.asm import halting_program
from repro.isa.instructions import Ring
from repro.kernel.driver import (
    DRIVER_CLEAN_LCR,
    DRIVER_CONFIG_LCR,
    DRIVER_DISABLE_LCR,
    DRIVER_ENABLE_LCR,
    DRIVER_PROFILE_LCR,
    LbrDriver,
)
from repro.machine.cpu import Machine


def test_encode_decode_round_trip_known_configs():
    for config in (CONF_SPACE_SAVING, CONF_SPACE_CONSUMING):
        decoded = decode_lcr_select(encode_lcr_select(config))
        assert decoded.events == config.events
        assert decoded.record_user == config.record_user
        assert decoded.record_kernel == config.record_kernel


@given(
    events=st.sets(
        st.tuples(st.sampled_from(list(AccessType)),
                  st.sampled_from(list(MesiState))),
        max_size=8,
    ),
    user=st.booleans(),
    kernel=st.booleans(),
)
def test_encode_decode_round_trip_any_config(events, user, kernel):
    config = LcrConfig(events=frozenset(events), record_user=user,
                       record_kernel=kernel)
    assert decode_lcr_select(encode_lcr_select(config)) == config


def test_lcr_msr_reads_entries():
    lcr = LastCacheCoherenceRecord(config=CONF_SPACE_CONSUMING)
    msrs = MsrFile()
    lcr.attach_msrs(msrs)
    lcr.enabled = True
    lcr.record(0x2000, MesiState.INVALID, AccessType.LOAD, Ring.USER)
    lcr.record(0x2004, MesiState.INVALID, AccessType.STORE, Ring.USER)
    # Slot 0 = newest entry.
    assert msrs.rdmsr(msrdefs.MSR_LASTCOHERENCE_PC_BASE) == 0x2004
    state = msrs.rdmsr(msrdefs.MSR_LASTCOHERENCE_STATE_BASE)
    assert state == (0x41 << 8) | 0x01          # store, Invalid
    assert msrs.rdmsr(msrdefs.MSR_LASTCOHERENCE_PC_BASE + 1) == 0x2000
    assert msrs.rdmsr(msrdefs.MSR_LASTCOHERENCE_PC_BASE + 5) == 0


@pytest.mark.parametrize("capacity", [4, 16, 32])
def test_every_slot_msr_reads_its_ring_entry(capacity):
    """Slot n of the PC/STATE blocks reads the (n+1)-th latest entry, 0
    once the ring runs out, and the number after the last slot is not a
    register."""
    lcr = LastCacheCoherenceRecord(capacity=capacity,
                                   config=CONF_SPACE_CONSUMING)
    msrs = MsrFile()
    lcr.attach_msrs(msrs)
    lcr.enabled = True
    events = sorted(CONF_SPACE_CONSUMING.events,
                    key=lambda event: (event[0].value, event[1].value))
    for filled in (capacity // 2, capacity + 3):
        lcr.reset()
        for index in range(filled):
            access, state = events[index % len(events)]
            lcr.record(0x2000 + 4 * index, state, access, Ring.USER)
        for slot in range(capacity):
            entry = lcr.entry_latest(slot + 1)
            assert msrs.rdmsr(msrdefs.MSR_LASTCOHERENCE_PC_BASE + slot) \
                == (0 if entry is None else entry.pc)
            assert msrs.rdmsr(
                msrdefs.MSR_LASTCOHERENCE_STATE_BASE + slot
            ) == (0 if entry is None else
                  (entry.access.event_code << 8) | UNIT_MASK[entry.state])
    # The PC block is 32 numbers long: at capacity 32 the number after
    # its last slot is the first STATE register.
    past = [msrdefs.MSR_LASTCOHERENCE_STATE_BASE + capacity]
    if msrdefs.MSR_LASTCOHERENCE_PC_BASE + capacity \
            < msrdefs.MSR_LASTCOHERENCE_STATE_BASE:
        past.append(msrdefs.MSR_LASTCOHERENCE_PC_BASE + capacity)
    for number in past:
        with pytest.raises(MsrAccessError):
            msrs.rdmsr(number)


def test_lcr_msr_configures():
    lcr = LastCacheCoherenceRecord()
    msrs = MsrFile()
    lcr.attach_msrs(msrs)
    msrs.wrmsr(msrdefs.LCR_SELECT, encode_lcr_select(CONF_SPACE_SAVING))
    assert lcr.config.events == CONF_SPACE_SAVING.events


def test_driver_lcr_ioctls():
    machine = Machine(halting_program())
    driver = LbrDriver(machine)
    fd = driver.open()
    driver.ioctl(fd, DRIVER_CONFIG_LCR,
                 encode_lcr_select(CONF_SPACE_CONSUMING))
    driver.ioctl(fd, DRIVER_ENABLE_LCR)
    core = machine.cores[0]
    assert core.lcr.enabled
    assert core.lcr.config.events == CONF_SPACE_CONSUMING.events
    core.lcr.record(0x3000, MesiState.INVALID, AccessType.LOAD,
                    Ring.USER)
    driver.ioctl(fd, DRIVER_DISABLE_LCR)
    assert not core.lcr.enabled
    pairs = driver.ioctl(fd, DRIVER_PROFILE_LCR)
    assert pairs == [(0x3000, (0x40 << 8) | 0x01)]
    driver.ioctl(fd, DRIVER_CLEAN_LCR)
    assert len(core.lcr) == 0
