"""Crash-safe study orchestration: supervision, manifests, chaos.

- :mod:`repro.core.runner.supervisor` -- the supervised worker pool
  (heartbeats, watchdog budgets, retry/backoff, quarantine);
- :mod:`repro.core.runner.manifest` -- atomic write-ahead run manifests
  enabling ``repro study --resume``;
- :mod:`repro.core.runner.chaos` -- deterministic fault injection
  (``REPRO_CHAOS=<seed>:<profile>``);
- :mod:`repro.core.runner.deadline` -- the shared wall-clock budget
  utility (SIGALRM + portable async-exception fallback);
- :mod:`repro.core.runner.clock` -- injectable real/fake clocks;
- :mod:`repro.core.runner.sweep` -- the per-cell publish/resume loop
  the four grid studies share;
- :mod:`repro.core.runner.orchestrator` -- ``repro study`` itself.
"""
