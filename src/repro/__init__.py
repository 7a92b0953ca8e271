"""repro: reproduction of "An MPEG-4 Performance Study for non-SIMD,
General Purpose Architectures" (McKee, Fang, Valero; ISPASS 2003).

The package pairs a from-scratch MPEG-4 visual codec with a simulated
two-level cache hierarchy and a perfex-style counter facade, and uses them
to regenerate every table and figure of the paper's evaluation.

Public entry points:

- :mod:`repro.codec` -- the MPEG-4 encoder/decoder;
- :mod:`repro.video` -- synthetic scene generation;
- :mod:`repro.memsim` -- the cache/DRAM/timing simulator;
- :mod:`repro.trace` -- codec instrumentation;
- :mod:`repro.audio` -- the MP3-class audio codec (Section 1 claim);
- :mod:`repro.core` -- machines, metrics, and the experiment registry
  (:func:`repro.core.experiments.run_experiment` regenerates any paper
  artifact).
"""

__version__ = "1.0.0"
