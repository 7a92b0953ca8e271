"""Codec-to-simulator trace binding.

The paper reads hardware counters while the reference codec runs; we
instead *instrument* our codec: every kernel call site emits the memory
accesses the corresponding C inner loop would perform, against a virtual
address space in which the codec's frame stores, bitstream buffers and
scratch areas are laid out (:mod:`repro.trace.layout`).  The
:class:`~repro.trace.recorder.TraceRecorder` routes those events into one
or more simulated memory hierarchies and implements the sampling policy
that keeps multi-megapixel runs tractable.

Instruction counts (loads/stores come from the traces themselves; ALU
operations from :mod:`repro.trace.costmodel`) feed the timing model.
"""

from repro.trace.persistence import TraceCapture, replay_trace
from repro.trace.recorder import BandSampling, TraceRecorder

__all__ = ["BandSampling", "TraceCapture", "TraceRecorder", "replay_trace"]
