"""Trace recorder: sampling, phase tagging, and sink fan-out.

The recorder sits between the instrumented codec and one or more simulated
memory hierarchies.  Codec kernels call the emitters in
:mod:`repro.trace.kernels`, which translate (buffer, coordinates) into
granule streams and hand them to the recorder; the recorder attaches the
current phase label and forwards them to every sink.
The codec reaches the emitters through the recorder it is handed
(:attr:`TraceRecorder.kernels`), so it never imports this package.

A sink takes a run of batches as one
:class:`~repro.memsim.events.BatchTable` through ``replay(table)`` (a
macroblock row, :meth:`TraceRecorder.emit_table`) and a single
:class:`~repro.memsim.events.AccessBatch` through ``process(batch)``
(:meth:`TraceRecorder.emit`: the per-VOP emitters and the per-MB hooks).
Every memory hierarchy, the N-level stack and
:class:`~repro.trace.persistence.TraceCapture` have both.

Sampling: tracing multi-megapixel video exactly is feasible but slow, so
the recorder supports *band sampling* -- trace a contiguous band of
macroblock rows per VOP (preserving the horizontal window-overlap locality
that drives the paper's results) and optionally only the first K coded
VOPs.  All counters in the sinks can then be rescaled by
:meth:`TraceRecorder.scale_factor`; because every reported metric is a
ratio or a per-second rate, the scaling cancels out of the metrics and
only widens confidence in absolute counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.memsim.events import (
    KIND_PREFETCH,
    KIND_READ,
    KIND_WRITE,
    AccessBatch,
    BatchTable,
)
from repro.trace import kernels
from repro.trace.layout import AddressSpace, FrameMap, LinearRegion


class TraceEverything:
    """Null sampling policy: trace every VOP and every macroblock row."""

    def trace_vop(self, coded_index: int, vop_type: str) -> bool:
        return True

    def trace_mb_row(self, row: int) -> bool:
        return True


@dataclass
class BandSampling:
    """Trace the first ``ceil(fraction * rows)`` macroblock rows per VOP.

    A *contiguous* band keeps both the horizontal overlap between adjacent
    macroblock search windows and (within the band) the vertical overlap
    between macroblock rows, which is where motion estimation's cache-line
    reuse comes from.  ``max_vops`` additionally truncates tracing to the
    first K coded VOPs (K should cover at least one full GOP so the I/P/B
    mix matches the sequence).
    """

    row_fraction: float = 1.0
    max_vops: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.row_fraction <= 1.0:
            raise ValueError("row_fraction must be in (0, 1]")
        if self.max_vops is not None and self.max_vops < 1:
            raise ValueError("max_vops must be positive")

    def trace_vop(self, coded_index: int, vop_type: str) -> bool:
        return self.max_vops is None or coded_index < self.max_vops

    def trace_mb_row(self, row: int) -> bool:
        # The recorder tells us total rows via configure_rows().
        return row < self._band_rows

    def configure_rows(self, n_rows: int) -> None:
        self._band_rows = max(1, math.ceil(self.row_fraction * n_rows))

    _band_rows: int = 1


class TraceRecorder:
    """Routes instrumented-kernel events into simulator sinks."""

    #: The emitters (:mod:`repro.trace.kernels`) the codec calls with this
    #: recorder.
    kernels = kernels

    def __init__(self, sinks, sampling=None) -> None:
        self.sinks = list(sinks)
        self.sampling = sampling or TraceEverything()
        self.space = AddressSpace()
        self._phases = ["other"]
        self._vop_active = True
        self._row_active = True
        self._in_vop = False
        # Sampling tallies for scale-factor computation.
        self.rows_seen = 0
        self.rows_traced = 0
        self.vops_seen = 0
        self.vops_traced = 0

    # -- address-space registration (called by codec at construction) --------

    def map_frame_store(self, name: str, y_shape, uv_shape) -> FrameMap:
        return self.space.map_frame(name, y_shape, uv_shape)

    def map_linear(self, name: str, n_bytes: int) -> LinearRegion:
        return self.space.map_linear(name, n_bytes)

    # -- sampling control (called by codec at VOP/row boundaries) -------------

    def begin_vop(self, coded_index: int, vop_type: str, display_index: int) -> None:
        self.vops_seen += 1
        self._vop_active = self.sampling.trace_vop(coded_index, vop_type)
        if self._vop_active:
            self.vops_traced += 1
        self._row_active = True
        self._in_vop = True

    def begin_mb_row(self, row: int) -> None:
        self.rows_seen += 1
        self._row_active = self.sampling.trace_mb_row(row)
        if self.active:
            self.rows_traced += 1

    def resume_vop_scope(self) -> None:
        """Re-enable emission for VOP-level work after the macroblock loop.

        Row sampling only gates per-row work; per-VOP kernels (padding,
        buffer copies, bitstream flush) are always traced for sampled VOPs.
        """
        self._row_active = True

    def configure_rows(self, n_rows: int) -> None:
        """Tell a band-sampling policy the macroblock-row count per VOP."""
        if hasattr(self.sampling, "configure_rows"):
            self.sampling.configure_rows(n_rows)

    @property
    def active(self) -> bool:
        return self._vop_active and self._row_active

    def scale_factor(self) -> float:
        """Linear factor that rescales sink counters to the full workload."""
        if self.rows_traced == 0:
            return 1.0
        return self.rows_seen / self.rows_traced

    # -- phases (Table 8 burstiness) ------------------------------------------

    def push_phase(self, name: str) -> None:
        self._phases.append(name)

    def pop_phase(self) -> None:
        if len(self._phases) == 1:
            raise RuntimeError("phase stack underflow")
        self._phases.pop()

    @property
    def phase(self) -> str:
        return self._phases[-1]

    # -- emission --------------------------------------------------------------

    def emit(self, kind: int, lines: np.ndarray, counts: np.ndarray, alu_ops: int = 0) -> None:
        """Forward one batch to all sinks (no-op when sampling is inactive)."""
        if not self.active:
            return
        batch = AccessBatch(kind, lines, counts, phase=self.phase, alu_ops=alu_ops)
        for sink in self.sinks:
            sink.process(batch)

    def emit_table(self, table: BatchTable) -> None:
        """Forward a run of batches (a macroblock row) to every sink's
        :meth:`replay` (no-op when sampling is inactive)."""
        if not self.active:
            return
        for sink in self.sinks:
            sink.replay(table)

    def emit_read(self, lines, counts, alu_ops: int = 0) -> None:
        self.emit(KIND_READ, lines, counts, alu_ops)

    def emit_write(self, lines, counts, alu_ops: int = 0) -> None:
        self.emit(KIND_WRITE, lines, counts, alu_ops)

    def emit_prefetch(self, lines, counts) -> None:
        self.emit(KIND_PREFETCH, lines, counts)

    def emit_alu(self, alu_ops: int) -> None:
        """Charge compute-only work (no memory events)."""
        self.emit(KIND_READ, _NO_EVENTS, _NO_EVENTS, alu_ops)


#: The event arrays of a compute-only batch.
_NO_EVENTS = np.zeros(0, dtype=np.int64)
_NO_EVENTS.flags.writeable = False
