"""Out-of-order latency-hiding timing model.

The paper's DRAM-time metric is "cycles during which the processor is
stalled due to secondary data cache misses; this is the latency that
out-of-order execution hardware and compilation techniques fail to hide"
(Section 3.1).  We model that hiding explicitly but cheaply:

- compute cycles for a kernel section are ``instructions / ipc`` where
  ``instructions`` counts graduated loads, stores and ALU operations;
- every L1 miss that hits in L2 costs the L2 access latency, of which the
  core hides ``hide_l2`` (R10K/R12K non-blocking caches overlap most L2
  hits with independent work);
- every L2 miss costs the DRAM latency; misses within the same kernel
  section overlap up to the MSHR count (memory-level parallelism), and the
  core additionally hides ``hide_dram`` of the serialized remainder.

This is a parametric model, not a pipeline simulator; the parameters are
per-machine (:mod:`repro.core.machines`) and their sensitivity is covered
by the ``bench_ablation_speed_ratio`` benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class TimingSpec:
    """Processor-side timing parameters for one machine."""

    clock_mhz: float
    ipc: float
    l2_hit_latency_cycles: float
    mshr: int
    hide_l2: float
    hide_dram: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.hide_l2 < 1.0:
            raise ValueError(f"hide_l2 must be in [0, 1), got {self.hide_l2}")
        if not 0.0 <= self.hide_dram < 1.0:
            raise ValueError(f"hide_dram must be in [0, 1), got {self.hide_dram}")
        if self.mshr < 1:
            raise ValueError("mshr must be at least 1")
        if self.ipc <= 0:
            raise ValueError("ipc must be positive")

    def compute_cycles(self, loads: int, stores: int, alu_ops: int) -> float:
        """Cycles the section needs with a perfect memory system."""
        return (loads + stores + alu_ops) / self.ipc

    def l1_miss_stall(self, l1_misses_hitting_l2: int) -> float:
        """Stall cycles charged to L1 misses that the L2 satisfies."""
        exposed = self.l2_hit_latency_cycles * (1.0 - self.hide_l2)
        return l1_misses_hitting_l2 * exposed

    def dram_stall(self, l2_misses: int, dram_latency_cycles: float) -> float:
        """Stall cycles charged to L2 misses after MLP overlap and OoO hiding.

        Like the other formulas it takes NumPy arrays as well as ints.
        """
        # Misses overlap in groups of up to ``mshr``; each group exposes one
        # full DRAM latency, of which the OoO core hides ``hide_dram``.
        groups = -(-l2_misses // self.mshr)
        return groups * dram_latency_cycles * (1.0 - self.hide_dram)


@dataclass(slots=True)
class Clock:
    """Accumulates the three execution-time components of the model."""

    compute_cycles: float = 0.0
    l1_stall_cycles: float = 0.0
    dram_stall_cycles: float = 0.0

    @property
    def total_cycles(self) -> float:
        return self.compute_cycles + self.l1_stall_cycles + self.dram_stall_cycles

    def seconds(self, clock_mhz: float) -> float:
        return self.total_cycles / (clock_mhz * 1e6)

    def add(self, other: "Clock") -> None:
        self.compute_cycles += other.compute_cycles
        self.l1_stall_cycles += other.l1_stall_cycles
        self.dram_stall_cycles += other.dram_stall_cycles

    def scaled(self, factor: float) -> "Clock":
        return Clock(
            compute_cycles=self.compute_cycles * factor,
            l1_stall_cycles=self.l1_stall_cycles * factor,
            dram_stall_cycles=self.dram_stall_cycles * factor,
        )
