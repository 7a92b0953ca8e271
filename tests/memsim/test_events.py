"""Tests for access-event batches and run-length coalescing."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.events import (
    KIND_PREFETCH,
    KIND_READ,
    KIND_WRITE,
    AccessBatch,
    BatchTable,
    TraceStats,
    coalesce_lines,
)


class TestCoalesceLines:
    def test_empty(self):
        lines, counts = coalesce_lines(np.array([], dtype=np.int64))
        assert lines.size == 0
        assert counts.size == 0

    def test_all_distinct(self):
        lines, counts = coalesce_lines(np.array([1, 2, 3]))
        assert lines.tolist() == [1, 2, 3]
        assert counts.tolist() == [1, 1, 1]

    def test_runs_merge(self):
        lines, counts = coalesce_lines(np.array([5, 5, 5, 7, 7, 5]))
        assert lines.tolist() == [5, 7, 5]
        assert counts.tolist() == [3, 2, 1]

    def test_existing_counts_are_summed(self):
        lines, counts = coalesce_lines(np.array([1, 1, 2]), np.array([4, 6, 10]))
        assert lines.tolist() == [1, 2]
        assert counts.tolist() == [10, 10]

    def test_order_preserved(self):
        stream = np.array([3, 1, 3, 1])
        lines, _ = coalesce_lines(stream)
        assert lines.tolist() == [3, 1, 3, 1]


@given(st.lists(st.integers(min_value=0, max_value=9), max_size=200))
@settings(max_examples=60, deadline=None)
def test_property_coalesce_preserves_totals_and_order(raw):
    stream = np.array(raw, dtype=np.int64)
    lines, counts = coalesce_lines(stream)
    assert counts.sum() == len(raw)
    # No two adjacent merged lines are equal.
    assert not np.any(lines[1:] == lines[:-1])
    # Expanding the run-length form reproduces the original stream.
    assert np.repeat(lines, counts).tolist() == raw


class TestAccessBatch:
    def test_from_accesses_coalesces(self):
        batch = AccessBatch.from_accesses(KIND_READ, np.array([1, 1, 2]))
        assert batch.n_events == 2
        assert batch.n_accesses == 3

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            AccessBatch(KIND_READ, np.array([1, 2]), np.array([1]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AccessBatch(7, np.array([1]), np.array([1]))

    def test_repr_mentions_kind_and_phase(self):
        batch = AccessBatch(KIND_WRITE, np.array([1]), np.array([2]), phase="dct")
        assert "write" in repr(batch)
        assert "dct" in repr(batch)


class TestBatchTable:
    def batches(self):
        return [
            AccessBatch(KIND_READ, np.array([3, 4]), np.array([1, 2]), phase="me", alu_ops=5),
            AccessBatch(KIND_WRITE, np.array([9]), np.array([4]), phase="dct"),
            AccessBatch(KIND_PREFETCH, np.array([7, 8, 9]), np.ones(3), phase="me"),
            AccessBatch(KIND_READ, np.zeros(0), np.zeros(0), phase="vlc", alu_ops=11),
        ]

    def test_is_a_sequence_of_its_batches(self):
        batches = self.batches()
        table = BatchTable(batches)
        assert len(table) == 4
        assert list(table) == batches
        assert table[1] is batches[1]
        assert table[-1] is batches[-1]

    def test_rows_describe_each_batch(self):
        batches = self.batches()
        table = BatchTable(batches)
        assert table.rows[:, 2].tolist() == [2, 1, 3, 0]
        assert table.rows[:, 3].tolist() == [KIND_READ, KIND_WRITE, KIND_PREFETCH, KIND_READ]
        assert table.rows[0, 0] == batches[0].lines.ctypes.data
        assert table.rows[0, 1] == batches[0].counts.ctypes.data
        assert table.alu_ops.tolist() == [5, 0, 0, 11]

    def test_phases_in_order_of_first_appearance(self):
        table = BatchTable(self.batches())
        assert table.phase_names == ["me", "dct", "vlc"]
        assert table.phase_ids.tolist() == [0, 1, 0, 2]

    def test_empty(self):
        table = BatchTable()
        assert len(table) == 0
        assert table.rows.shape == (0, 4)
        assert table.phase_names == []

    def test_pickles_as_its_batches(self):
        table = BatchTable(self.batches())
        copy = pickle.loads(pickle.dumps(table))
        assert isinstance(copy, BatchTable)
        assert copy.phase_names == table.phase_names
        assert [b.lines.tolist() for b in copy] == [b.lines.tolist() for b in table]
        # The copy's rows point at its own arrays.
        assert copy.rows[0, 0] == copy[0].lines.ctypes.data
        assert copy.rows[0, 0] != table.rows[0, 0]


class TestTraceStats:
    def test_aggregation(self):
        stats = TraceStats()
        stats.add(AccessBatch(KIND_READ, np.array([1]), np.array([5]), phase="me"))
        stats.add(AccessBatch(KIND_WRITE, np.array([2]), np.array([3]), phase="me"))
        assert stats.reads == 5
        assert stats.writes == 3
        assert stats.events == 2
        assert stats.phases == {"me": 8}
