"""High-throughput two-level hierarchy engine (the study's fast path).

:class:`FastMemoryHierarchy` is a drop-in replacement for
:class:`~repro.memsim.hierarchy.MemoryHierarchy` that keeps cache state in
NumPy way matrices instead of per-set Python lists:

- ``tags[n_sets, ways]``: resident granule / L2-line index, ``-1`` = empty;
- ``stamp[n_sets, ways]``: last-touch timestamp from a global monotone
  counter -- true LRU falls out as the argmin of a set's stamps;
- ``dirty[n_sets, ways]``: write-back state per way.

A small C kernel (``_fastpath_kernel.c``) moves that state through the
line events.  It is an operation-for-operation transcription of
:meth:`MemoryHierarchy._step` -- eviction by LRU stamp, dirty
writeback into L2, physically-scattered L2 indexing, inclusion
back-invalidation of covered L1 granules, and the page-transition-deduped
fully-associative TLB -- so every counter (hits, misses, writebacks,
prefetch outcomes, TLB misses) and the derived timing are **bit-identical**
to the reference engine.  The kernel is compiled once per source digest
with the system C compiler and cached on disk; when no compiler is
available :func:`engine_class` falls back to the reference engine.

There are two ways in:

- :meth:`~MemoryHierarchy.process` takes one batch, for live sinks.  It
  collapses the batch (:meth:`AccessBatch.collapsed`), calls the
  kernel's ``process_batch`` and folds the result with the base class's
  scalar fold, which both engines share.  A live sink has no table to
  hand over, and routing one batch through the whole-trace path costs
  more than it saves, so this path stays per batch.
- :meth:`FastMemoryHierarchy.replay` takes a whole recorded trace as a
  :class:`~repro.memsim.events.BatchTable`: one ``replay_batches`` call
  reads the table's flat columns (events, batch offsets, kinds), runs
  every batch and returns each batch's accesses, misses, writebacks and
  TLB-miss delta, and a NumPy fold adds them to the totals and phases.
  The fold applies the :class:`TimingSpec` formulas to arrays and adds
  the float clocks in trace order, so it matches a ``process`` loop to
  the last bit; the study replays every machine this way.

Why a compiled loop rather than pure-NumPy windowing?  Measured on real
codec traces, run-length coalescing absorbs nearly all spatial locality
into event counts, leaving event-level L1 hit rates of only 17-44%; three
vectorization strategies (adaptive all-hit windows, frozen-state window
planning with hazard cuts, rank-synchronous set-parallel simulation) all
bottomed out at or below parity with the list engine once exact inclusion
back-invalidation was enforced, while the array-state C loop is ~20-60x
faster.  DESIGN.md's "Performance architecture" section records the
numbers.

``tests/memsim/test_fastpath_differential.py`` enforces the equivalence on
randomized read/write/prefetch streams, for ``process`` and ``replay``;
the list-based engine and its per-batch ``replay`` loop remain the
oracle.  Select engines with the ``REPRO_ENGINE`` environment variable
(``fast``, the default, or ``reference``).
"""

from __future__ import annotations

import ctypes
import os
import warnings
from pathlib import Path

import numpy as np

from repro.memsim.cache import CacheGeometry
from repro.memsim.dram import BusSpec, DramSpec
from repro.memsim.events import (
    KIND_PREFETCH,
    KIND_READ,
    KIND_WRITE,
    AccessBatch,
    BatchTable,
)
from repro.memsim.hierarchy import HierarchyCounters, MemoryHierarchy
from repro.memsim.timing import TimingSpec
from repro.native.build import load_library

_KERNEL_SOURCE = Path(__file__).with_name("_fastpath_kernel.c")

_kernel_lib = None
_kernel_tried = False


def _load_kernel():
    """The compiled kernel library, or ``None``.

    It exports ``process_batch`` (one batch) and ``replay_batches`` (the
    columns of a whole :class:`~repro.memsim.events.BatchTable`).
    Compilation/caching is shared machinery (:mod:`repro.native.build`):
    libraries are cached by source digest, so the build cost is paid once
    per kernel revision per machine.
    """
    global _kernel_lib, _kernel_tried
    if _kernel_tried:
        return _kernel_lib
    _kernel_tried = True
    lib = load_library(_KERNEL_SOURCE, "fastpath")
    if lib is None:
        return None
    # Pointers cross as raw addresses; all per-hierarchy array bases sit in
    # one ctx table so a call converts only four arguments.
    pointer, count = ctypes.c_void_p, ctypes.c_int64
    lib.process_batch.argtypes = [pointer, count, count, pointer]
    lib.replay_batches.argtypes = [pointer] * 4 + [count, pointer, pointer]
    for fn in (lib.process_batch, lib.replay_batches):
        fn.restype = ctypes.c_int64
    _kernel_lib = lib
    return lib


def kernel_available() -> bool:
    """True when the compiled fast-path kernel can be used."""
    return _load_kernel() is not None


class _TlbView:
    """Array-backed stand-in for :class:`repro.memsim.tlb.Tlb`.

    The fast engine keeps TLB state in flat tag/stamp arrays shared with
    the C kernel; this adapter preserves the reference TLB's inspection
    API (``hits``, ``misses``, ``resident``, ``contents``) and its exact
    access semantics for callers that drive it from Python.
    """

    def __init__(self, tags: np.ndarray, stamp: np.ndarray, state: np.ndarray):
        self._tags = tags
        self._stamp = stamp
        self._state = state
        self.entries = int(tags.size)

    @property
    def hits(self) -> int:
        return int(self._state[2])

    @property
    def misses(self) -> int:
        return int(self._state[3])

    @property
    def resident(self) -> int:
        return int((self._tags >= 0).sum())

    def contents(self) -> set[int]:
        tags = self._tags
        return set(tags[tags >= 0].tolist())

    def access(self, page: int) -> bool:
        """Translate one page; returns True on hit (mirrors the kernel)."""
        tags = self._tags
        state = self._state
        hit = np.flatnonzero(tags == page)
        if hit.size:
            self._stamp[hit[0]] = state[0]
            state[0] += 1
            state[2] += 1
            return True
        state[3] += 1
        empty = np.flatnonzero(tags == -1)
        slot = int(empty[0]) if empty.size else int(self._stamp.argmin())
        tags[slot] = page
        self._stamp[slot] = state[0]
        state[0] += 1
        return False


class FastMemoryHierarchy(MemoryHierarchy):
    """Array-based L1 + inclusive L2 + DRAM, counter-identical to the base."""

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
        super().__init__(l1, l2, timing, dram, bus, page_scatter, tlb_entries)
        lib = _load_kernel()
        if lib is None:
            raise RuntimeError(
                "the fast engine needs a C compiler (cc/gcc/clang) to build "
                "its kernel; set REPRO_ENGINE=reference to use the pure-"
                "Python engine"
            )
        self._kernel = lib.process_batch
        self._replay_kernel = lib.replay_batches
        # The list-based sets of the parent stay empty; all state lives in
        # the arrays below, which the kernel mutates in place.
        self._l1_tags = np.full((l1.n_sets, l1.ways), -1, dtype=np.int64)
        self._l1_stamp = np.zeros((l1.n_sets, l1.ways), dtype=np.int64)
        self._l1_dirty_ways = np.zeros((l1.n_sets, l1.ways), dtype=np.uint8)
        self._l2_tags = np.full((l2.n_sets, l2.ways), -1, dtype=np.int64)
        self._l2_stamp = np.zeros((l2.n_sets, l2.ways), dtype=np.int64)
        self._l2_dirty_ways = np.zeros((l2.n_sets, l2.ways), dtype=np.uint8)
        self._tlb_tags = np.full(tlb_entries, -1, dtype=np.int64)
        self._tlb_stamp = np.zeros(tlb_entries, dtype=np.int64)
        # state: [global time, last TLB page, TLB hits, TLB misses]
        self._state = np.array([1, -1, 0, 0], dtype=np.int64)
        self._params = np.array(
            [
                self._l1_mask,
                l1.ways,
                self._l2_mask,
                l2.ways,
                self._l2_shift,
                self._l2_cover,
                1 if page_scatter else 0,
                self._page_shift,
                self._tlb_page_shift,
                tlb_entries,
            ],
            dtype=np.int64,
        )
        self._out = np.zeros(4, dtype=np.int64)
        self.tlb = _TlbView(self._tlb_tags, self._tlb_stamp, self._state)
        self._ctx = np.array(
            [
                self._l1_tags.ctypes.data,
                self._l1_stamp.ctypes.data,
                self._l1_dirty_ways.ctypes.data,
                self._l2_tags.ctypes.data,
                self._l2_stamp.ctypes.data,
                self._l2_dirty_ways.ctypes.data,
                self._tlb_tags.ctypes.data,
                self._tlb_stamp.ctypes.data,
                self._params.ctypes.data,
                self._state.ctypes.data,
                self._out.ctypes.data,
            ],
            dtype=np.int64,
        )
        self._ctx_ptr = int(self._ctx.ctypes.data)

    # -- public API ---------------------------------------------------------

    def replay(self, batches) -> None:
        """Run a whole recorded trace in one kernel call, then fold it.

        The kernel returns each batch's accesses, misses, writebacks and
        TLB-miss delta; the fold adds them to ``total`` and each phase as
        :meth:`process` would, batch after batch.  ``batches`` is best a
        :class:`~repro.memsim.events.BatchTable` built once per recording;
        any other sequence of batches gets a table built here.
        """
        table = batches if isinstance(batches, BatchTable) else BatchTable(batches)
        results = np.empty((len(table), 6), dtype=np.int64)
        self._replay_kernel(
            table.lines.ctypes.data, table.counts.ctypes.data,
            table.bounds.ctypes.data, table.kinds.ctypes.data,
            len(table), self._ctx_ptr, results.ctypes.data,
        )
        self._fold(table, results)

    def l1_contents(self) -> set[int]:
        tags = self._l1_tags
        return set(tags[tags >= 0].tolist())

    def l2_contents(self) -> set[int]:
        tags = self._l2_tags
        return set(tags[tags >= 0].tolist())

    # -- internals ----------------------------------------------------------

    def _step(self, batch: AccessBatch):
        """One kernel call over a whole (collapsed) event array."""
        lines = batch.collapsed().lines
        self._kernel(lines.ctypes.data, lines.size, batch.kind, self._ctx_ptr)
        return self._out.tolist()

    def _fold(self, table: BatchTable, results: np.ndarray) -> None:
        """Add a replay's per-batch results to ``total`` and the phases.

        Integer counters are order-free sums.  The clocks are not: each
        field adds the batches' float deltas one at a time, in trace
        order, from its current value, exactly as :meth:`process` does
        (a pairwise ``np.sum`` would move the last bits).
        """
        kinds = table.kinds
        accesses, l1_misses, l2_misses, l1_wb, l2_wb, tlb_misses = results.T
        is_read = kinds == KIND_READ
        is_write = kinds == KIND_WRITE
        demand = kinds != KIND_PREFETCH
        prefetch = ~demand
        by_field = {
            "graduated_loads": accesses * is_read,
            "graduated_stores": accesses * is_write,
            "l1_hits": (accesses - l1_misses) * demand,
            "l1_misses": l1_misses * demand,
            "l1_writebacks": l1_wb,
            "l2_hits": (l1_misses - l2_misses) * demand,
            "l2_misses": l2_misses * demand,
            "l2_writebacks": l2_wb,
            "prefetch_issued": accesses * prefetch,
            "prefetch_l1_hits": (accesses - l1_misses) * prefetch,
            "prefetch_l1_misses": l1_misses * prefetch,
            "prefetch_l2_misses": l2_misses * prefetch,
            # Prefetch fills touch the TLB, but process() never counts them.
            "tlb_misses": tlb_misses * demand,
            "alu_ops": table.alu_ops,
        }
        names = list(by_field)
        deltas = np.stack(list(by_field.values()), axis=1)
        timing = self.timing
        clocks = np.stack(
            [
                timing.compute_cycles(by_field["graduated_loads"],
                                      by_field["graduated_stores"], table.alu_ops),
                timing.l1_miss_stall(l1_misses - l2_misses),
                timing.dram_stall(l2_misses, self._dram_latency_cycles),
            ],
            axis=1,
        )
        # Phases appear in trace order, as process() would create them.
        phases = [self.phases.setdefault(name, HierarchyCounters())
                  for name in table.phase_names]
        scopes = [(self.total, np.ones(len(table), dtype=bool))]
        scopes += [(phase, table.phase_ids == index) for index, phase in enumerate(phases)]
        for scope, rows in scopes:
            for name, value in zip(names, deltas[rows].sum(axis=0).tolist()):
                setattr(scope, name, getattr(scope, name) + value)
            clock = scope.clock
            start = [[clock.compute_cycles, clock.l1_stall_cycles, clock.dram_stall_cycles]]
            end = np.cumsum(np.concatenate([start, clocks[rows & demand]]), axis=0)[-1]
            clock.compute_cycles, clock.l1_stall_cycles, clock.dram_stall_cycles = end.tolist()


ENGINES = {
    "fast": FastMemoryHierarchy,
    "reference": MemoryHierarchy,
}


def engine_name() -> str:
    """The name of the hierarchy engine a run uses.

    ``REPRO_ENGINE`` when set; unset, ``fast`` when the C kernel loads
    and ``reference`` when it does not.  An explicit ``REPRO_ENGINE=fast``
    with no kernel still raises at construction, so misconfigured
    performance runs fail loudly rather than run 50x slow.
    """
    name = os.environ.get("REPRO_ENGINE")
    if name is None:
        return "fast" if kernel_available() else "reference"
    if name not in ENGINES:
        raise ValueError(f"REPRO_ENGINE must be one of {sorted(ENGINES)}, got {name!r}")
    return name


def engine_class() -> type[MemoryHierarchy]:
    """The hierarchy engine :func:`engine_name` names.

    Falling back to the reference engine because no kernel loads warns
    (once per call site).
    """
    name = engine_name()
    if name == "reference" and "REPRO_ENGINE" not in os.environ:
        warnings.warn(
            "C kernel unavailable (no compiler, or the kernel cache is not "
            "writable); falling back to the reference simulation engine "
            "(set REPRO_ENGINE=reference to silence)",
            RuntimeWarning,
            stacklevel=2,
        )
    return ENGINES[name]
