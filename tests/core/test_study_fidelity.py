"""Counter-fidelity tests for the record-once/replay-many pipeline.

The acceptance bar for the performance work: for real study cells (the
Table 2 encode and Table 5 decode workload shapes, at test scale) every
perfex counter must be **equal** -- not approximately equal -- across

- the fast (array + kernel) engine and the reference list engine,
- a live recording and a replay of its on-disk cached trace, and
- sequential and process-pool replay.
"""

import pytest

from repro.core.machines import STUDY_MACHINES
from repro.core.study import (
    Workload,
    characterize_decode,
    characterize_encode,
    default_jobs,
    replay_into_machines,
)
from repro.memsim.fastpath import kernel_available

#: Table 2's cell shape (encode, 1 VO, 1 layer) and Table 5's (decode,
#: 3 VOs, 1 layer), shrunk to test scale.
TABLE2_CELL = Workload(name="t2", width=96, height=64, n_vos=1, n_layers=1, n_frames=3)
TABLE5_CELL = Workload(name="t5", width=96, height=64, n_vos=3, n_layers=1, n_frames=3)

COUNTER_FIELDS = (
    "graduated_loads", "graduated_stores", "l1_hits", "l1_misses",
    "l1_writebacks", "l2_hits", "l2_misses", "l2_writebacks",
    "prefetch_issued", "prefetch_l1_hits", "prefetch_l1_misses",
    "prefetch_l2_misses", "tlb_misses", "alu_ops",
)


def assert_results_identical(a, b):
    assert set(a.raw_counters) == set(b.raw_counters)
    for machine, counters in a.raw_counters.items():
        other = b.raw_counters[machine]
        for field in COUNTER_FIELDS:
            assert getattr(counters, field) == getattr(other, field), (
                machine, field,
            )
        assert counters.clock == other.clock, machine
    assert a.scale == b.scale
    assert a.footprint_bytes == b.footprint_bytes
    # Table 8's per-phase reports: the same phases, in the same order (the
    # order a trace first entered them), and identical reports.
    assert list(a.phase_reports) == list(b.phase_reports)
    for phase, reports in a.phase_reports.items():
        assert reports == b.phase_reports[phase], phase


def run_cell(workload, direction, monkeypatch, engine, **kwargs):
    monkeypatch.setenv("REPRO_ENGINE", engine)
    if direction == "encode":
        return characterize_encode(workload, **kwargs)
    return characterize_decode(workload, **kwargs)


@pytest.mark.skipif(not kernel_available(), reason="no C compiler for fast engine")
class TestEngineFidelity:
    @pytest.mark.parametrize(
        "workload,direction",
        [(TABLE2_CELL, "encode"), (TABLE5_CELL, "decode")],
        ids=["table2-encode-1vo1l", "table5-decode-3vo1l"],
    )
    def test_fast_engine_matches_reference(self, workload, direction, monkeypatch):
        fast = run_cell(workload, direction, monkeypatch, "fast")
        reference = run_cell(workload, direction, monkeypatch, "reference")
        assert_results_identical(fast, reference)


class TestCachedReplayFidelity:
    @pytest.mark.parametrize(
        "workload,direction",
        [(TABLE2_CELL, "encode"), (TABLE5_CELL, "decode")],
        ids=["table2-encode-1vo1l", "table5-decode-3vo1l"],
    )
    def test_cached_replay_matches_live(self, workload, direction, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        live = (characterize_encode if direction == "encode" else characterize_decode)(
            workload
        )
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        run = characterize_encode if direction == "encode" else characterize_decode
        recorded = run(workload)  # populates the cache
        replayed = run(workload)  # must hit it
        assert list(tmp_path.iterdir()), "recording was not persisted"
        assert_results_identical(live, recorded)
        assert_results_identical(live, replayed)


class TestParallelReplayFidelity:
    def test_parallel_equals_sequential(self):
        result = characterize_encode(TABLE2_CELL)
        parallel = characterize_encode(TABLE2_CELL, jobs=3)
        assert_results_identical(result, parallel)

    def test_replay_preserves_machine_order(self):
        replayed = replay_into_machines([], STUDY_MACHINES, jobs=2)
        assert list(replayed) == [machine.label for machine in STUDY_MACHINES]

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert default_jobs() == 4
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            default_jobs()
