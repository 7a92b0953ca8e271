"""Two-level cache hierarchy engine.

Consumes :class:`~repro.memsim.events.AccessBatch` streams and maintains
the counters that the study's perfex-like facade reads: graduated
loads/stores, per-level hits/misses/writebacks, prefetch outcomes, traffic
bytes and the timing-model clock, each aggregated globally and per phase.

The hierarchy is modelled after the R10000/R12000 systems of the paper:

- L1 data cache: 32 KB, 2-way, 32-byte lines (== the trace granule);
- L2 unified cache: 1/2/8 MB, 2-way, 128-byte lines, **inclusive** of L1
  (evicting an L2 line back-invalidates the covered L1 granules);
- both levels write-back, write-allocate, true LRU.

The hot loop inlines both cache levels rather than composing two
:class:`~repro.memsim.cache.SetAssocCache` objects; a differential test
checks the inlined logic against the reference model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.memsim.cache import CacheGeometry
from repro.memsim.dram import BusSpec, DramSpec
from repro.memsim.events import (
    GRANULE_BYTES,
    KIND_PREFETCH,
    KIND_READ,
    KIND_WRITE,
    AccessBatch,
)
from repro.memsim.timing import Clock, TimingSpec


@dataclass(slots=True)
class HierarchyCounters:
    """Raw event counts for one aggregation scope (global or one phase)."""

    graduated_loads: int = 0
    graduated_stores: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l1_writebacks: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    l2_writebacks: int = 0
    prefetch_issued: int = 0
    prefetch_l1_hits: int = 0
    prefetch_l1_misses: int = 0
    prefetch_l2_misses: int = 0
    tlb_misses: int = 0
    alu_ops: int = 0
    clock: Clock = field(default_factory=Clock)

    def add(self, other: "HierarchyCounters") -> None:
        self.graduated_loads += other.graduated_loads
        self.graduated_stores += other.graduated_stores
        self.l1_hits += other.l1_hits
        self.l1_misses += other.l1_misses
        self.l1_writebacks += other.l1_writebacks
        self.l2_hits += other.l2_hits
        self.l2_misses += other.l2_misses
        self.l2_writebacks += other.l2_writebacks
        self.prefetch_issued += other.prefetch_issued
        self.prefetch_l1_hits += other.prefetch_l1_hits
        self.prefetch_l1_misses += other.prefetch_l1_misses
        self.prefetch_l2_misses += other.prefetch_l2_misses
        self.tlb_misses += other.tlb_misses
        self.alu_ops += other.alu_ops
        self.clock.add(other.clock)

    def scaled(self, factor: float) -> "HierarchyCounters":
        """Linearly scale every count (used to undo trace sampling).

        Independent fields are rounded; dependent fields (the hit counts)
        are derived *after* rounding so the conservation identities
        ``l1_hits + l1_misses == memory_accesses``,
        ``l2_hits + l2_misses == l1_misses`` and
        ``prefetch_l1_hits + prefetch_l1_misses == prefetch_issued``
        survive scaling exactly.
        """
        graduated_loads = round(self.graduated_loads * factor)
        graduated_stores = round(self.graduated_stores * factor)
        l1_misses = round(self.l1_misses * factor)
        l2_misses = round(self.l2_misses * factor)
        prefetch_issued = round(self.prefetch_issued * factor)
        prefetch_l1_misses = round(self.prefetch_l1_misses * factor)
        scaled = HierarchyCounters(
            graduated_loads=graduated_loads,
            graduated_stores=graduated_stores,
            l1_hits=graduated_loads + graduated_stores - l1_misses,
            l1_misses=l1_misses,
            l1_writebacks=round(self.l1_writebacks * factor),
            l2_hits=l1_misses - l2_misses,
            l2_misses=l2_misses,
            l2_writebacks=round(self.l2_writebacks * factor),
            prefetch_issued=prefetch_issued,
            prefetch_l1_hits=prefetch_issued - prefetch_l1_misses,
            prefetch_l1_misses=prefetch_l1_misses,
            prefetch_l2_misses=round(self.prefetch_l2_misses * factor),
            tlb_misses=round(self.tlb_misses * factor),
            alu_ops=round(self.alu_ops * factor),
        )
        scaled.clock = self.clock.scaled(factor)
        return scaled

    @property
    def memory_accesses(self) -> int:
        return self.graduated_loads + self.graduated_stores

    @property
    def l1_l2_bytes(self) -> int:
        """Traffic between L1 and L2 (fills, prefetch fills, writebacks)."""
        fills = self.l1_misses + self.prefetch_l1_misses
        return (fills + self.l1_writebacks) * GRANULE_BYTES

    def l2_dram_bytes(self, l2_line_bytes: int) -> int:
        fills = self.l2_misses + self.prefetch_l2_misses
        return (fills + self.l2_writebacks) * l2_line_bytes


class MemoryHierarchy:
    """L1 + inclusive L2 + DRAM with a perfex-style counter set."""

    def __init__(
        self,
        l1: CacheGeometry,
        l2: CacheGeometry,
        timing: TimingSpec,
        dram: DramSpec | None = None,
        bus: BusSpec | None = None,
        page_scatter: bool = False,
        tlb_entries: int = 64,
    ) -> None:
        if l1.line_bytes != GRANULE_BYTES:
            raise ValueError(
                f"L1 line must equal the {GRANULE_BYTES}-byte trace granule, "
                f"got {l1.line_bytes}"
            )
        if l2.line_bytes < l1.line_bytes:
            raise ValueError("L2 line must be at least as large as L1 line")
        self.l1_geometry = l1
        self.l2_geometry = l2
        self.timing = timing
        self.dram = dram or DramSpec()
        self.bus = bus or BusSpec()
        self._dram_latency_cycles = self.dram.latency_cycles(timing.clock_mhz)
        # Granules per L2 line and the shift between granule and L2-line index.
        self._l2_shift = l2.line_shift - 5
        self._l2_cover = 1 << self._l2_shift

        self._l1_sets: list[list[int]] = [[] for _ in range(l1.n_sets)]
        self._l2_sets: list[list[int]] = [[] for _ in range(l2.n_sets)]
        self._l1_mask = l1.n_sets - 1
        self._l2_mask = l2.n_sets - 1
        # Physical-page scatter: the L2 is physically indexed, and on a
        # loaded IRIX machine the virtual-to-physical mapping effectively
        # randomizes the index bits above the 4 KB page offset.  Model it
        # with a deterministic multiplicative page hash folded into the
        # set index; L1 (virtually indexed on these parts) is untouched.
        self._page_scatter = page_scatter
        self._page_shift = max(0, 12 - l2.line_shift)  # L2 lines per page
        # Data TLB (verifies the paper's "TLB misses are negligible").
        from repro.memsim.tlb import PAGE_SHIFT, Tlb

        self.tlb = Tlb(tlb_entries)
        self._tlb_page_shift = PAGE_SHIFT
        self._tlb_last_page = -1
        self._l1_ways = l1.ways
        self._l2_ways = l2.ways
        self._l1_dirty: set[int] = set()
        self._l2_dirty: set[int] = set()

        self.total = HierarchyCounters()
        self.phases: dict[str, HierarchyCounters] = {}

    # -- public API ---------------------------------------------------------

    def process(self, batch: AccessBatch) -> None:
        """Run one batch through both cache levels and the timing model.

        Every engine folds its counters here; only :meth:`_step`, which
        moves the cache state, differs between engines.
        """
        phase = self.phases.setdefault(batch.phase, HierarchyCounters())
        tlb_before = self.tlb.misses
        l1_misses, l2_misses, l1_wb, l2_wb = self._step(batch)
        n_accesses = int(batch.counts.sum())
        if batch.kind == KIND_PREFETCH:
            # Software prefetches fill without stalling and without
            # counting their TLB translations.  Within a run event of
            # ``count`` prefetches to one granule only the first can miss;
            # the rest hit the line it just fetched.
            for scope in (self.total, phase):
                scope.l1_writebacks += l1_wb
                scope.l2_writebacks += l2_wb
                scope.prefetch_l2_misses += l2_misses
                scope.prefetch_issued += n_accesses
                scope.prefetch_l1_misses += l1_misses
                scope.prefetch_l1_hits += n_accesses - l1_misses
                scope.alu_ops += batch.alu_ops
            return
        is_write = batch.kind == KIND_WRITE
        tlb_misses = self.tlb.misses - tlb_before
        for scope in (self.total, phase):
            if is_write:
                scope.graduated_stores += n_accesses
            else:
                scope.graduated_loads += n_accesses
            scope.l1_misses += l1_misses
            scope.l1_hits += n_accesses - l1_misses
            scope.l2_misses += l2_misses
            scope.l2_hits += l1_misses - l2_misses
            scope.l1_writebacks += l1_wb
            scope.l2_writebacks += l2_wb
            scope.tlb_misses += tlb_misses
            scope.alu_ops += batch.alu_ops
        self._charge_time(batch, n_accesses, is_write, l1_misses, l2_misses, phase)

    def replay(self, batches) -> None:
        """Run a whole recorded trace, one :meth:`process` call per batch.

        This loop is the oracle for :meth:`FastMemoryHierarchy.replay
        <repro.memsim.fastpath.FastMemoryHierarchy.replay>`, which runs
        the trace in one kernel call and must leave identical counters.
        """
        for batch in batches:
            self.process(batch)

    def access_line(self, granule: int, is_write: bool) -> bool:
        """Single demand access (testing convenience); returns L1 hit."""
        before = self.total.l1_hits
        kind = KIND_WRITE if is_write else KIND_READ
        batch = AccessBatch(kind, np.array([granule]), np.array([1]))
        self.process(batch)
        return self.total.l1_hits > before

    def snapshot(self) -> HierarchyCounters:
        """Copy of the global counters."""
        copy = HierarchyCounters()
        copy.add(self.total)
        return copy

    def l1_contents(self) -> set[int]:
        resident: set[int] = set()
        for ways in self._l1_sets:
            resident.update(ways)
        return resident

    def l2_contents(self) -> set[int]:
        resident: set[int] = set()
        for ways in self._l2_sets:
            resident.update(ways)
        return resident

    def check_inclusion(self) -> bool:
        """Every resident L1 granule must be covered by a resident L2 line."""
        l2_lines = self.l2_contents()
        return all((g >> self._l2_shift) in l2_lines for g in self.l1_contents())

    # -- internals ----------------------------------------------------------

    def _step(self, batch: AccessBatch):
        """Hot loop: inlined L1+L2 with inclusion over one batch's line events.

        Returns ``(l1_misses, l2_misses, l1_writebacks, l2_writebacks)``.
        A prefetch batch gets software-prefetch semantics: lines already
        resident in L1 are skipped without an LRU promotion or a TLB
        translation, and ``l1_misses`` counts the prefetch fills.  The miss
        path (evict, fill, L2 demand, inclusion) is shared verbatim, so a
        prefetch batch runs as one pass and later prefetches in it see the
        fills of earlier ones.
        """
        lines = batch.lines.tolist()
        is_write = batch.kind == KIND_WRITE
        prefetch = batch.kind == KIND_PREFETCH
        l1_sets = self._l1_sets
        l2_sets = self._l2_sets
        l1_mask = self._l1_mask
        l2_mask = self._l2_mask
        l1_ways = self._l1_ways
        l2_ways = self._l2_ways
        l1_dirty = self._l1_dirty
        l2_dirty = self._l2_dirty
        l2_shift = self._l2_shift
        l2_cover = self._l2_cover
        l1_misses = 0
        l2_misses = 0
        l1_wb = 0
        l2_wb = 0
        page_scatter = self._page_scatter
        page_shift = self._page_shift
        tlb = self.tlb
        tlb_shift = self._tlb_page_shift
        tlb_last = self._tlb_last_page

        for line in lines:
            s1 = l1_sets[line & l1_mask]
            if line in s1:
                if prefetch:
                    # Prefetch to a resident line: wasted, no state change.
                    continue
                page = line >> tlb_shift
                if page != tlb_last:
                    tlb.access(page)
                    tlb_last = page
                if s1[-1] != line:
                    s1.remove(line)
                    s1.append(line)
                if is_write:
                    l1_dirty.add(line)
                continue
            # TLB translation; consecutive events usually share a page.
            page = line >> tlb_shift
            if page != tlb_last:
                tlb.access(page)
                tlb_last = page
            # L1 miss: evict (write back dirty victim into L2), then fill.
            l1_misses += 1
            if len(s1) >= l1_ways:
                victim = s1.pop(0)
                if victim in l1_dirty:
                    l1_dirty.discard(victim)
                    l1_wb += 1
                    l2_dirty.add(victim >> l2_shift)
            s1.append(line)
            if is_write:
                l1_dirty.add(line)
            # L2 demand access for the covering 128-byte line.
            l2_line = line >> l2_shift
            if page_scatter:
                page = l2_line >> page_shift
                index = (l2_line ^ (page * 0x9E3779B1)) & l2_mask
            else:
                index = l2_line & l2_mask
            s2 = l2_sets[index]
            if l2_line in s2:
                if s2[-1] != l2_line:
                    s2.remove(l2_line)
                    s2.append(l2_line)
                continue
            l2_misses += 1
            if len(s2) >= l2_ways:
                victim2 = s2.pop(0)
                victim_dirty = victim2 in l2_dirty
                l2_dirty.discard(victim2)
                # Enforce inclusion: flush covered L1 granules.
                base = victim2 << l2_shift
                for g in range(base, base + l2_cover):
                    s1v = l1_sets[g & l1_mask]
                    if g in s1v:
                        s1v.remove(g)
                        if g in l1_dirty:
                            l1_dirty.discard(g)
                            l1_wb += 1
                            victim_dirty = True
                if victim_dirty:
                    l2_wb += 1
            s2.append(l2_line)

        self._tlb_last_page = tlb_last
        return l1_misses, l2_misses, l1_wb, l2_wb

    def _charge_time(
        self,
        batch: AccessBatch,
        n_accesses: int,
        is_write: bool,
        l1_misses: int,
        l2_misses: int,
        phase: HierarchyCounters,
    ) -> None:
        timing = self.timing
        loads = 0 if is_write else n_accesses
        stores = n_accesses if is_write else 0
        delta = Clock(
            compute_cycles=timing.compute_cycles(loads, stores, batch.alu_ops),
            l1_stall_cycles=timing.l1_miss_stall(l1_misses - l2_misses),
            dram_stall_cycles=timing.dram_stall(l2_misses, self._dram_latency_cycles),
        )
        self.total.clock.add(delta)
        phase.clock.add(delta)
