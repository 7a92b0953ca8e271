"""Conformance and robustness tooling for the codec and the study pipeline.

Two correctness gates live here, both exercised by ``python -m repro``:

- **Fault injection** (:mod:`repro.conformance.fuzzer`,
  :mod:`repro.conformance.harness`): a seeded corruption taxonomy over
  encoded bitstreams, plus a sweep harness enforcing the decoder's
  robustness contract -- every corrupted stream either decodes (with
  concealment) or raises a typed
  :class:`~repro.codec.errors.BitstreamError`, within a per-case time
  budget.  ``python -m repro fuzz`` runs a bounded smoke sweep.

- **Golden vectors** (:mod:`repro.conformance.golden`): deterministic
  digests of encoded bitstream bytes, reconstructed frames, and
  simulator counter snapshots for representative study cells, committed
  under ``vectors/``.  ``python -m repro conformance --check`` verifies
  them; ``--update`` regenerates after an intentional codec change.
"""
