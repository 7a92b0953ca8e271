"""Access-event batches exchanged between the codec and the simulator.

The instrumented codec does not emit one event per load or store -- that
would be hopelessly slow for multi-megapixel video.  Instead kernels emit
*run-length line events*: ``(granule, count)`` pairs meaning "``count``
consecutive scalar accesses landed in the 32-byte granule ``granule``".
A 16-byte macroblock row read byte-by-byte is a single event with
``count == 16``.

The 32-byte granule matches the L1 line size of every machine in the
study (Table 1 of the paper); the L2's 128-byte lines are derived by
shifting granule indices right by two.  Granules keep the trace
machine-independent so one trace can be replayed through several cache
configurations.

Batches carry a ``kind`` (read / write / prefetch), a ``phase`` label used
for the paper's Table 8 burstiness breakdown, and the ALU instruction count
of the kernel section that produced them (the timing model turns that into
compute cycles).

A sink takes a single :class:`AccessBatch` through ``process`` and a run
of batches -- a macroblock row as the recorder emits it, or a whole
recording -- as a :class:`BatchTable` through ``replay``.  A finished
recording is a :class:`BatchTable`: its batches' run-collapsed events in
flat columns, the one form the replay kernel, the ``.npz`` trace cache
and a replay worker's pickle all read.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

#: Bytes per trace granule.  Matches the 32-byte L1 line of the R10K/R12K.
GRANULE_BYTES = 32
#: ``byte_address >> GRANULE_SHIFT`` yields the granule index.
GRANULE_SHIFT = 5

KIND_READ = 0
KIND_WRITE = 1
KIND_PREFETCH = 2

_KIND_NAMES = {KIND_READ: "read", KIND_WRITE: "write", KIND_PREFETCH: "prefetch"}


def coalesce_lines(lines: np.ndarray, counts: np.ndarray | None = None):
    """Collapse consecutive duplicate granule indices into run-length form.

    ``lines`` is the granule index per scalar access, in program order.
    Returns ``(unique_lines, counts)`` where consecutive repeats are merged
    and ``counts`` sums the scalar accesses per merged event.  Order (and
    therefore cache behaviour) is preserved exactly.
    """
    lines = np.asarray(lines, dtype=np.int64)
    if lines.size == 0:
        return lines, np.zeros(0, dtype=np.int64)
    boundaries = np.empty(lines.size, dtype=bool)
    boundaries[0] = True
    np.not_equal(lines[1:], lines[:-1], out=boundaries[1:])
    starts = np.flatnonzero(boundaries)
    ends = np.append(starts[1:], lines.size)
    if counts is None:
        merged_counts = (ends - starts).astype(np.int64)
    else:
        counts = np.asarray(counts, dtype=np.int64)
        cumulative = np.concatenate(([0], np.cumsum(counts)))
        merged_counts = cumulative[ends] - cumulative[starts]
    return lines[starts], merged_counts


@dataclass(slots=True)
class AccessBatch:
    """One kernel section's worth of memory events.

    Attributes:
        kind: ``KIND_READ``, ``KIND_WRITE`` or ``KIND_PREFETCH``.
        lines: granule indices in program order (run-length compressed).
        counts: scalar accesses represented by each line event.
        phase: label for per-phase counter aggregation (Table 8).
        alu_ops: non-memory instructions executed by the section; feeds the
            timing model's compute-cycle estimate.
    """

    kind: int
    lines: np.ndarray
    counts: np.ndarray
    phase: str = "other"
    alu_ops: int = 0

    def __post_init__(self) -> None:
        self.lines = np.ascontiguousarray(self.lines, dtype=np.int64)
        self.counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if self.lines.shape != self.counts.shape:
            raise ValueError(
                f"lines and counts must align: {self.lines.shape} vs {self.counts.shape}"
            )
        if self.kind not in _KIND_NAMES:
            raise ValueError(f"unknown access kind {self.kind!r}")

    @classmethod
    def from_accesses(
        cls,
        kind: int,
        lines: np.ndarray,
        counts: np.ndarray | None = None,
        phase: str = "other",
        alu_ops: int = 0,
    ) -> "AccessBatch":
        """Build a batch from a raw per-access granule stream, coalescing runs."""
        merged_lines, merged_counts = coalesce_lines(lines, counts)
        return cls(kind, merged_lines, merged_counts, phase=phase, alu_ops=alu_ops)

    def collapsed(self) -> "AccessBatch":
        """Merge consecutive same-line run events into one event.

        Back-to-back events on one granule are behaviour-identical to a
        single event with the summed count: after the first access the line
        is resident and MRU, repeats cannot change cache or TLB state, and
        every engine counts the remainder of a run as L1 hits.  Batch
        front-ends call this before the simulation engines so the hot loop
        sees the minimum number of events.  Returns ``self`` when there is
        nothing to merge.
        """
        lines = self.lines
        if lines.size < 2 or not (lines[1:] == lines[:-1]).any():
            return self
        merged_lines, merged_counts = coalesce_lines(lines, self.counts)
        return AccessBatch(
            self.kind, merged_lines, merged_counts, phase=self.phase, alu_ops=self.alu_ops
        )

    @property
    def n_events(self) -> int:
        """Number of run-length line events (cache lookups) in this batch."""
        return int(self.lines.size)

    @property
    def n_accesses(self) -> int:
        """Number of scalar accesses (graduated loads/stores) represented."""
        return int(self.counts.sum())

    def __repr__(self) -> str:
        return (
            f"AccessBatch({_KIND_NAMES[self.kind]}, events={self.n_events}, "
            f"accesses={self.n_accesses}, phase={self.phase!r})"
        )


#: Events a table build collapses per vectorized pass.
CHUNK_EVENTS = 1 << 16


class BatchTable(Sequence[AccessBatch]):
    """A recorded trace as seven flat columns.

    - ``lines`` and ``counts``: every batch's events, back to back;
    - ``bounds``: ``n + 1`` offsets, so batch ``i`` owns events
      ``bounds[i]:bounds[i + 1]``;
    - ``kinds`` and ``alu_ops``: one entry per batch;
    - ``phase_ids`` and ``phase_names``: ``phase_names`` lists the phases
      in order of first appearance and ``phase_ids`` indexes it.

    The whole-trace replay kernel (:meth:`FastMemoryHierarchy.replay
    <repro.memsim.fastpath.FastMemoryHierarchy.replay>`) reads the
    columns by offset; the ``.npz`` trace cache stores them and a pickle
    carries them.  Indexing or iterating yields :class:`AccessBatch`
    views, so anything that reads a batch list (the reference replay
    loop, :class:`TraceStats`, live sinks) reads a table the same way.
    Treat the columns as frozen.

    Building a table from batches, or from a capture's event slabs
    (:func:`fold_pieces`), collapses each batch's runs
    (:meth:`AccessBatch.collapsed` semantics) in one vectorized pass per
    chunk of about :data:`CHUNK_EVENTS` events, written straight into the
    preallocated columns, and lets go of each piece once it is folded
    in.  :meth:`of_columns` wraps columns built elsewhere (the row
    emitters' tables) without a copy.
    """

    __slots__ = (
        "lines", "counts", "bounds", "kinds", "alu_ops", "phase_ids", "phase_names",
    )

    def __init__(self, batches: Iterable[AccessBatch] = ()) -> None:
        pending = list(batches)
        n = len(pending)
        phase_index: dict[str, int] = {}
        self.kinds = np.fromiter((batch.kind for batch in pending), np.int64, n)
        self.alu_ops = np.fromiter((batch.alu_ops for batch in pending), np.int64, n)
        self.phase_ids = np.fromiter(
            (phase_index.setdefault(batch.phase, len(phase_index)) for batch in pending),
            np.int64,
            n,
        )
        self.phase_names = list(phase_index)
        sizes = np.fromiter((batch.lines.size for batch in pending), np.int64, n)
        # Each batch is a piece of its own; the fold lets go of it.
        for index, batch in enumerate(pending):
            pending[index] = (batch.lines, batch.counts)
        self.lines, self.counts, self.bounds = fold_pieces(
            pending, np.ones(n, dtype=np.int64), sizes
        )

    @classmethod
    def of_columns(
        cls, lines, counts, bounds, kinds, alu_ops, phase_ids, phase_names
    ) -> "BatchTable":
        """A table over columns its caller built (collapsed, int64), unchecked."""
        table = cls.__new__(cls)
        table.lines, table.counts, table.bounds = lines, counts, bounds
        table.kinds, table.alu_ops, table.phase_ids = kinds, alu_ops, phase_ids
        table.phase_names = phase_names
        return table

    @classmethod
    def from_columns(
        cls, lines, counts, bounds, kinds, alu_ops, phase_ids, phase_names
    ) -> "BatchTable":
        """A table over stored columns (a trace-cache entry), checked first.

        The replay kernel trusts the offsets, so columns that do not
        describe a trace raise :class:`ValueError` here.
        """
        table = cls.__new__(cls)
        columns = (lines, counts, bounds, kinds, alu_ops, phase_ids)
        for name, column in zip(cls.__slots__, columns):
            setattr(table, name, np.ascontiguousarray(column, dtype=np.int64))
        table.phase_names = [str(name) for name in phase_names]
        n = table.kinds.size
        if not (
            table.lines.ndim == 1
            and table.counts.shape == table.lines.shape
            and table.bounds.shape == (n + 1,)
            and table.alu_ops.shape == (n,)
            and table.phase_ids.shape == (n,)
            and table.bounds[0] == 0
            and table.bounds[-1] == table.lines.size
            and (np.diff(table.bounds) >= 0).all()
            and np.isin(table.kinds, list(_KIND_NAMES)).all()
            and ((table.phase_ids >= 0) & (table.phase_ids < len(table.phase_names))).all()
        ):
            raise ValueError("columns do not describe a batch table")
        return table

    def __len__(self) -> int:
        return self.kinds.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        if not -n <= index < n:
            raise IndexError("batch index out of range")
        index %= n
        start, stop = self.bounds[index : index + 2].tolist()
        return AccessBatch(
            int(self.kinds[index]),
            self.lines[start:stop],
            self.counts[start:stop],
            phase=self.phase_names[self.phase_ids[index]],
            alu_ops=int(self.alu_ops[index]),
        )

    def __iter__(self) -> Iterator[AccessBatch]:
        lines, counts, names = self.lines, self.counts, self.phase_names
        bounds = self.bounds.tolist()
        columns = zip(self.kinds.tolist(), self.alu_ops.tolist(), self.phase_ids.tolist())
        for index, (kind, alu_ops, phase_id) in enumerate(columns):
            start, stop = bounds[index], bounds[index + 1]
            yield AccessBatch(
                kind, lines[start:stop], counts[start:stop],
                phase=names[phase_id], alu_ops=alu_ops,
            )


def fold_pieces(pieces: list, piece_batches: np.ndarray, sizes: np.ndarray):
    """The ``(lines, counts, bounds)`` columns of a recording given in pieces.

    ``pieces`` lists ``(lines, counts)`` event arrays in trace order, piece
    ``i`` holding ``piece_batches[i]`` whole batches back to back;
    ``sizes`` holds every batch's event count.  The columns are allocated
    once and filled about :data:`CHUNK_EVENTS` events at a time, each
    chunk run-collapsed in place (:func:`collapse_runs`); each entry of
    ``pieces`` is released (set to None) once folded in, so a draining
    caller never holds a recording twice.
    """
    n = sizes.size
    capacity = int(sizes.sum())
    # One allocation holds both event columns.  On the 720x576 cell the
    # run's peak RSS then stays at ~150 MB; two allocations read 148 or
    # 153 MB from one run to the next.
    lines, counts = np.empty((2, capacity), dtype=np.int64)
    bounds = np.zeros(n + 1, dtype=np.int64)
    batch_ends = np.cumsum(piece_batches)
    piece_ends = np.zeros(len(pieces), dtype=np.int64)
    piece_ends[batch_ends > 0] = np.cumsum(sizes)[batch_ends[batch_ends > 0] - 1]
    filled = first = 0
    while first < len(pieces):
        # A chunk takes pieces until it holds CHUNK_EVENTS events.
        begin = int(piece_ends[first - 1]) if first else 0
        stop = min(int(np.searchsorted(piece_ends, begin + CHUNK_EVENTS)) + 1, len(pieces))
        b0 = int(batch_ends[first - 1]) if first else 0
        b1 = int(batch_ends[stop - 1])
        chunk = pieces[first:stop]
        pieces[first:stop] = [None] * (stop - first)
        window = slice(filled, filled + int(piece_ends[stop - 1]) - begin)
        np.concatenate([piece[0] for piece in chunk], out=lines[window])
        np.concatenate([piece[1] for piece in chunk], out=counts[window])
        del chunk
        n_events, chunk_sizes = collapse_runs(lines[window], counts[window], sizes[b0:b1])
        np.cumsum(chunk_sizes, out=bounds[b0 + 1 : b1 + 1])
        bounds[b0 + 1 : b1 + 1] += filled
        filled += n_events
        first = stop
    return lines[:filled], counts[:filled], bounds


def collapse_runs(lines: np.ndarray, counts: np.ndarray, sizes: np.ndarray):
    """Collapse the runs of back-to-back batches' events, in place.

    ``lines``/``counts`` hold the events of batches of ``sizes`` events.
    A run starts at every batch's first event and wherever the granule
    changes, and a run's count is the sum of its events' counts --
    :meth:`AccessBatch.collapsed`, batch by batch.  Runs are packed to the
    front of the arrays; returns the number of runs and each batch's run
    count.
    """
    run_start = np.ones(lines.size, dtype=bool)
    np.not_equal(lines[1:], lines[:-1], out=run_start[1:])
    if run_start.all():
        return lines.size, sizes
    firsts = np.cumsum(sizes) - sizes
    run_start[firsts[sizes > 0]] = True
    starts = np.flatnonzero(run_start)
    runs_before = np.zeros(lines.size + 1, dtype=np.int64)
    np.cumsum(run_start, out=runs_before[1:])
    merged = np.add.reduceat(counts, starts)
    lines[: starts.size] = lines[starts]
    counts[: starts.size] = merged
    return starts.size, runs_before[firsts + sizes] - runs_before[firsts]


@dataclass
class TraceStats:
    """Summary statistics over a sequence of batches (for tests and reports)."""

    reads: int = 0
    writes: int = 0
    prefetches: int = 0
    events: int = 0
    alu_ops: int = 0
    phases: dict = field(default_factory=dict)

    def add(self, batch: AccessBatch) -> None:
        if batch.kind == KIND_READ:
            self.reads += batch.n_accesses
        elif batch.kind == KIND_WRITE:
            self.writes += batch.n_accesses
        else:
            self.prefetches += batch.n_accesses
        self.events += batch.n_events
        self.alu_ops += batch.alu_ops
        self.phases[batch.phase] = self.phases.get(batch.phase, 0) + batch.n_accesses
