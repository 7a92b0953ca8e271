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


class BatchTable(Sequence[AccessBatch]):
    """A recorded trace: its batches plus the table a whole-trace replay reads.

    Row ``i`` of ``rows`` holds batch ``i``'s lines address, counts
    address, event count and kind -- what one C call needs to run the
    whole trace (:meth:`FastMemoryHierarchy.replay`).  ``alu_ops`` and
    ``phase_ids`` carry the rest of each batch; ``phase_names`` lists the
    phases in order of first appearance and ``phase_ids`` indexes it.

    Reading an array's address costs one to two microseconds from Python,
    so build a table once per recording and replay it into every machine.
    The table holds its batches, which keeps the addresses valid; treat
    them as frozen.  It pickles as its batch list, so each process that
    unpickles one reads the addresses of its own copies.
    """

    __slots__ = ("_batches", "rows", "alu_ops", "phase_ids", "phase_names")

    def __init__(self, batches: Iterable[AccessBatch] = ()) -> None:
        self._batches = list(batches)
        phase_index: dict[str, int] = {}
        rows = []
        alu_ops = []
        phase_ids = []
        for batch in self._batches:
            rows.append((batch.lines.ctypes.data, batch.counts.ctypes.data,
                         batch.lines.size, batch.kind))
            alu_ops.append(batch.alu_ops)
            phase_ids.append(phase_index.setdefault(batch.phase, len(phase_index)))
        self.rows = np.array(rows, dtype=np.int64).reshape(len(rows), 4)
        self.alu_ops = np.array(alu_ops, dtype=np.int64)
        self.phase_ids = np.array(phase_ids, dtype=np.int64)
        self.phase_names = list(phase_index)

    def __len__(self) -> int:
        return len(self._batches)

    def __getitem__(self, index):
        return self._batches[index]

    def __iter__(self) -> Iterator[AccessBatch]:
        return iter(self._batches)

    def __reduce__(self):
        return BatchTable, (self._batches,)


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
