"""N-level cache hierarchy (the paper's platform-extension future work).

Section 4: "we are extending our experiments to a spectrum of
representative platforms (including IA32, IA64, and Power4)".  Those
parts have three-level hierarchies, which the optimized two-level engine
of :mod:`repro.memsim.hierarchy` cannot express.  This clean, composable
engine stacks any number of :class:`~repro.memsim.cache.SetAssocCache`
levels (non-inclusive, write-back, write-allocate at every level) and
accepts the same :class:`~repro.memsim.events.AccessBatch` stream, so a
recorded codec trace can be replayed through arbitrary hierarchies.

It trades speed for generality; the study's headline experiments use the
two-level engine, and the platform ablation uses this one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memsim.cache import CacheGeometry, SetAssocCache
from repro.memsim.events import KIND_PREFETCH, KIND_WRITE, AccessBatch


@dataclass
class LevelCounters:
    """Per-level demand statistics."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0


@dataclass
class MultiLevelCounters:
    """Aggregate statistics for an N-level run."""

    accesses: int = 0
    levels: list = field(default_factory=list)
    memory_fills: int = 0
    stall_cycles: float = 0.0
    compute_cycles: float = 0.0

    @property
    def total_cycles(self) -> float:
        return self.compute_cycles + self.stall_cycles

    def miss_rate(self, level: int) -> float:
        """Demand miss rate of one level, relative to its own accesses."""
        counters = self.levels[level]
        seen = counters.hits + counters.misses
        return counters.misses / seen if seen else 0.0


class MultiLevelHierarchy:
    """Write-back, write-allocate, non-inclusive N-level cache stack.

    ``latencies`` holds the miss penalty (cycles) paid when level ``i``
    misses and level ``i+1`` is consulted; the final entry is the memory
    latency.  ``ipc`` converts instruction counts into compute cycles;
    ``hide`` is the fraction of serialized miss latency the out-of-order
    core overlaps with useful work.
    """

    def __init__(
        self,
        geometries: list[CacheGeometry],
        latencies: list[float],
        ipc: float = 1.5,
        clock_mhz: float = 1000.0,
        name: str = "",
        hide: float = 0.0,
    ) -> None:
        if not geometries:
            raise ValueError("need at least one cache level")
        if len(latencies) != len(geometries):
            raise ValueError("one latency per level (its miss penalty)")
        if not 0.0 <= hide < 1.0:
            raise ValueError("hide must be in [0, 1)")
        self.name = name
        self.hide = hide
        self.caches = [SetAssocCache(geometry) for geometry in geometries]
        self.latencies = list(latencies)
        self.ipc = ipc
        self.clock_mhz = clock_mhz
        self._shifts = [geometry.line_shift - 5 for geometry in geometries]
        self.counters = MultiLevelCounters(
            levels=[LevelCounters() for _ in geometries]
        )

    def process(self, batch: AccessBatch) -> None:
        """Replay one batch through every level (prefetches are ignored --
        this engine answers capacity/latency questions, not prefetch ones)."""
        if batch.kind == KIND_PREFETCH:
            return
        is_write = batch.kind == KIND_WRITE
        counters = self.counters
        n_accesses = int(batch.counts.sum())
        counters.accesses += n_accesses
        stall = 0.0
        for granule, count in zip(batch.lines.tolist(), batch.counts.tolist()):
            level_hit = self._walk(granule, is_write)
            if level_hit is None:
                counters.memory_fills += 1
                stall += sum(self.latencies)
            else:
                stall += sum(self.latencies[:level_hit])
            # Run-length remainder hits level 0 by construction.
            counters.levels[0].hits += count - 1
        counters.stall_cycles += stall * (1.0 - self.hide)
        counters.compute_cycles += (n_accesses + batch.alu_ops) / self.ipc

    def replay(self, batches) -> None:
        """Run a run of batches (a recorded trace, or a table chunk from
        a recorder), one :meth:`process` call per batch."""
        for batch in batches:
            self.process(batch)

    def _walk(self, granule: int, is_write: bool) -> int | None:
        """Access levels until one hits; fill all missing levels above.

        Returns the hitting level index, or None for a memory fill.
        """
        hit_level: int | None = None
        for index, cache in enumerate(self.caches):
            line = granule >> self._shifts[index]
            writebacks: list[int] = []
            if cache.access(line, is_write and index == 0, writebacks):
                self.counters.levels[index].hits += 1
                hit_level = index
            else:
                self.counters.levels[index].misses += 1
            if writebacks:
                self.counters.levels[index].writebacks += len(writebacks)
                self._spill(index, writebacks)
            if hit_level is not None:
                return hit_level
        return None

    def _spill(self, level: int, victim_lines: list[int]) -> None:
        """Fold dirty victims of ``level`` into ``level + 1`` (or memory)."""
        next_level = level + 1
        if next_level >= len(self.caches):
            return
        shift_delta = self._shifts[next_level] - self._shifts[level]
        cache = self.caches[next_level]
        for line in victim_lines:
            writebacks: list[int] = []
            cache.access(line >> shift_delta, True, writebacks)
            if writebacks:
                self.counters.levels[next_level].writebacks += len(writebacks)
                self._spill(next_level, writebacks)

    @property
    def seconds(self) -> float:
        return self.counters.total_cycles / (self.clock_mhz * 1e6)

    def l1_miss_rate(self) -> float:
        return self.counters.levels[0].misses / max(self.counters.accesses, 1)

    def stall_fraction(self) -> float:
        total = self.counters.total_cycles
        return self.counters.stall_cycles / total if total else 0.0

    def traffic_to_memory_bytes(self) -> int:
        last = self.caches[-1].geometry.line_bytes
        level = self.counters.levels[-1]
        return (self.counters.memory_fills + level.writebacks) * last

    def describe(self) -> str:
        levels = " / ".join(cache.geometry.describe() for cache in self.caches)
        return f"{self.name}: {levels} @ {self.clock_mhz:.0f} MHz"
