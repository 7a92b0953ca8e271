"""Memory-hierarchy simulator.

This package stands in for the SGI hardware (MIPS R10000/R12000 with
two-level cache hierarchies) that the paper measured with perfex/SpeedShop
counters.  It provides:

- :mod:`repro.memsim.events` -- the run-length, cache-line-granularity
  access-event batches that instrumented codec kernels emit.
- :mod:`repro.memsim.cache` -- a reference set-associative, write-back,
  write-allocate, true-LRU cache model.
- :mod:`repro.memsim.hierarchy` -- the two-level hierarchy engine that
  consumes event batches and maintains the counter state the study reads.
- :mod:`repro.memsim.dram` -- DRAM and system-bus parameters.
- :mod:`repro.memsim.timing` -- the out-of-order latency-hiding timing
  model that converts miss counts into stall cycles and execution time.
- :mod:`repro.memsim.prefetch` -- helpers for modelling compiler-inserted
  software prefetching.
"""
