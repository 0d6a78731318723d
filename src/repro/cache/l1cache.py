"""Per-core L1 data cache.

The cache tracks only coherence metadata (tag + MESI state + LRU order);
data values live in the simulated main memory, mirroring the design of the
paper's PIN-based LCR simulator.  Geometry defaults follow Section 6 of the
paper: 2-way set associative, 64-byte blocks, 64 KB total per core.
"""

from dataclasses import dataclass

from repro.cache.mesi import MesiState


@dataclass
class CacheConfig:
    """Geometry of one L1 data cache."""

    total_size: int = 64 * 1024
    line_size: int = 64
    associativity: int = 2

    @property
    def num_sets(self):
        sets = self.total_size // (self.line_size * self.associativity)
        if sets <= 0:
            raise ValueError("cache configuration yields no sets")
        return sets

    def line_address(self, address):
        """Return the line-aligned address containing byte *address*."""
        return address - (address % self.line_size)

    def set_index(self, line_address):
        """Return the set index for *line_address*."""
        return (line_address // self.line_size) % self.num_sets


@dataclass
class CacheLine:
    """One resident cache line."""

    line_address: int
    state: MesiState
    last_use: int = 0


class L1Cache:
    """A set-associative L1 data cache with MESI metadata.

    The cache participates in coherence through a
    :class:`repro.cache.bus.CoherenceBus`; use the bus's ``load``/``store``
    entry points rather than calling :meth:`observe_and_load` directly when
    multiple caches are in play.
    """

    def __init__(self, config=None, core_id=0):
        self.config = config or CacheConfig()
        self.core_id = core_id
        #: set index -> {line address: CacheLine}, a set allocated by
        #: its first install: a run touches a few of a core's 512 sets,
        #: and a missing set is an empty one
        self._sets = {}
        self._tick = 0
        self.eviction_count = 0
        # Geometry snapshot: every simulated access computes a line
        # address and set index, and ``num_sets`` is a dividing property
        # — far too expensive to recompute per access.
        self._line_size = self.config.line_size
        self._num_sets = self.config.num_sets

    # ------------------------------------------------------------------
    # Lookup and state manipulation
    # ------------------------------------------------------------------

    def lookup(self, address):
        """Return the resident :class:`CacheLine` for *address*, or ``None``."""
        line_size = self._line_size
        line_address = address - address % line_size
        cache_set = self._sets.get(line_address // line_size % self._num_sets)
        if cache_set is None:
            return None
        return cache_set.get(line_address)

    def state_of(self, address):
        """Return the MESI state observed for *address* (I when absent)."""
        line = self.lookup(address)
        if line is None or line.state is MesiState.INVALID:
            return MesiState.INVALID
        return line.state

    def touch(self, address):
        """Refresh the LRU position of the line holding *address*."""
        line = self.lookup(address)
        if line is not None:
            self._tick += 1
            line.last_use = self._tick

    def install(self, address, state):
        """Install a line for *address* in *state*, evicting LRU if needed.

        Returns the evicted line address, or ``None``.
        """
        line_size = self._line_size
        line_address = address - address % line_size
        index = line_address // line_size % self._num_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = {}
        self._tick += 1
        existing = cache_set.get(line_address)
        if existing is not None:
            existing.state = state
            existing.last_use = self._tick
            return None
        evicted = None
        if len(cache_set) >= self.config.associativity:
            victim_address = min(
                cache_set, key=lambda addr: cache_set[addr].last_use
            )
            del cache_set[victim_address]
            self.eviction_count += 1
            evicted = victim_address
        cache_set[line_address] = CacheLine(
            line_address=line_address, state=state, last_use=self._tick
        )
        return evicted

    def set_state(self, address, state):
        """Force the state of a resident line (coherence downgrades)."""
        line = self.lookup(address)
        if line is None:
            return
        if state is MesiState.INVALID:
            line_size = self._line_size
            line_address = address - address % line_size
            del self._sets[line_address // line_size % self._num_sets] \
                [line_address]
        else:
            line.state = state

    def invalidate(self, address):
        """Drop the line holding *address*, if resident."""
        self.set_state(address, MesiState.INVALID)

    def resident_lines(self):
        """Yield all resident cache lines (testing/introspection), in
        set-index order."""
        for index in sorted(self._sets):
            yield from self._sets[index].values()

    def flush(self):
        """Empty the cache (used between simulated runs)."""
        self._sets.clear()
