"""Tests for the L1 cache model."""

import pytest

from repro.cache.l1cache import CacheConfig, L1Cache
from repro.cache.mesi import MesiState


def test_default_geometry_matches_paper():
    config = CacheConfig()
    assert config.total_size == 64 * 1024
    assert config.line_size == 64
    assert config.associativity == 2
    assert config.num_sets == 512


def test_line_address_alignment():
    config = CacheConfig()
    assert config.line_address(0) == 0
    assert config.line_address(63) == 0
    assert config.line_address(64) == 64
    assert config.line_address(130) == 128


def test_absent_line_reads_invalid():
    cache = L1Cache()
    assert cache.state_of(0x1000) is MesiState.INVALID


def test_install_and_state():
    cache = L1Cache()
    cache.install(0x1000, MesiState.EXCLUSIVE)
    assert cache.state_of(0x1000) is MesiState.EXCLUSIVE
    # Same line covers the full 64-byte block.
    assert cache.state_of(0x1001) is MesiState.EXCLUSIVE
    assert cache.state_of(0x1040) is MesiState.INVALID


def test_set_state_and_invalidate():
    cache = L1Cache()
    cache.install(0x2000, MesiState.MODIFIED)
    cache.set_state(0x2000, MesiState.SHARED)
    assert cache.state_of(0x2000) is MesiState.SHARED
    cache.invalidate(0x2000)
    assert cache.state_of(0x2000) is MesiState.INVALID


def test_lru_eviction_within_set():
    config = CacheConfig(total_size=256, line_size=64, associativity=2)
    # 2 sets of 2 ways.  Lines 0, 256, 512 all map to set 0.
    cache = L1Cache(config=config)
    cache.install(0, MesiState.EXCLUSIVE)
    cache.install(256, MesiState.EXCLUSIVE)
    cache.touch(0)  # 256 becomes LRU
    evicted = cache.install(512, MesiState.EXCLUSIVE)
    assert evicted == 256
    assert cache.state_of(0) is MesiState.EXCLUSIVE
    assert cache.state_of(256) is MesiState.INVALID
    assert cache.state_of(512) is MesiState.EXCLUSIVE
    assert cache.eviction_count == 1


def test_reinstall_does_not_evict():
    config = CacheConfig(total_size=256, line_size=64, associativity=2)
    cache = L1Cache(config=config)
    cache.install(0, MesiState.EXCLUSIVE)
    assert cache.install(0, MesiState.MODIFIED) is None
    assert cache.state_of(0) is MesiState.MODIFIED


def test_flush_empties_cache():
    cache = L1Cache()
    cache.install(0x3000, MesiState.SHARED)
    cache.flush()
    assert cache.state_of(0x3000) is MesiState.INVALID
    assert list(cache.resident_lines()) == []


#: One address in each of a spread of sets of the default geometry.
_SPREAD = [set_index * 64 + 0x10000 for set_index in (0, 1, 7, 255, 511)]


def test_empty_cache_is_invalid_everywhere():
    cache = L1Cache()
    for address in _SPREAD:
        assert cache.lookup(address) is None
        assert cache.state_of(address) is MesiState.INVALID
        cache.touch(address)
        cache.invalidate(address)
    assert list(cache.resident_lines()) == []
    assert cache.eviction_count == 0


def test_flush_after_installs_in_many_sets():
    cache = L1Cache()
    for address in _SPREAD:
        cache.install(address, MesiState.MODIFIED)
    assert [line.line_address for line in cache.resident_lines()] \
        == _SPREAD
    cache.flush()
    assert list(cache.resident_lines()) == []
    for address in _SPREAD:
        assert cache.state_of(address) is MesiState.INVALID
    cache.install(_SPREAD[0], MesiState.SHARED)
    assert cache.state_of(_SPREAD[0]) is MesiState.SHARED


def test_lru_eviction_within_one_default_set():
    # 512 sets of 64-byte lines: a 32 KB stride stays in one 2-way set,
    # and lines of other sets never compete with it.
    cache = L1Cache()
    stride = 512 * 64
    cache.install(64, MesiState.EXCLUSIVE)
    cache.install(0, MesiState.EXCLUSIVE)
    cache.install(stride, MesiState.EXCLUSIVE)
    cache.touch(0)
    assert cache.install(2 * stride, MesiState.EXCLUSIVE) == stride
    assert cache.eviction_count == 1
    assert [line.line_address for line in cache.resident_lines()] \
        == [0, 2 * stride, 64]
    assert cache.state_of(64) is MesiState.EXCLUSIVE


def test_degenerate_config_rejected():
    with pytest.raises(ValueError):
        CacheConfig(total_size=0).num_sets
