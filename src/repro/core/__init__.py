"""The characterization study: machines, metrics, experiments.

- :mod:`repro.core.machines` -- the three SGI platforms (Table 1);
- :mod:`repro.core.metrics` -- the paper's metric formulas (Section 3.1);
- :mod:`repro.core.counters` -- the perfex-like counter facade;
- :mod:`repro.core.study` -- workload construction + characterization runs;
- :mod:`repro.core.experiments` -- the per-table/figure registry;
- :mod:`repro.core.paperdata` -- transcribed reference values.
"""
