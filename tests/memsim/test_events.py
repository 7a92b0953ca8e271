"""Tests for access-event batches and run-length coalescing."""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import events
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


def same_batch(a: AccessBatch, b: AccessBatch) -> bool:
    return (
        a.kind == b.kind
        and a.phase == b.phase
        and a.alu_ops == b.alu_ops
        and a.lines.tolist() == b.lines.tolist()
        and a.counts.tolist() == b.counts.tolist()
    )


class TestBatchTable:
    def batches(self):
        return [
            AccessBatch(KIND_READ, np.array([3, 4]), np.array([1, 2]), phase="me", alu_ops=5),
            AccessBatch(KIND_WRITE, np.array([9]), np.array([4]), phase="dct"),
            AccessBatch(KIND_PREFETCH, np.array([7, 8, 9]), np.ones(3), phase="me"),
            AccessBatch(KIND_READ, np.zeros(0), np.zeros(0), phase="vlc", alu_ops=11),
        ]

    def test_is_a_sequence_of_its_batches(self):
        """Indexing and iterating yield views equal to the batches."""
        batches = self.batches()
        table = BatchTable(batches)
        assert len(table) == 4
        assert all(same_batch(a, b) for a, b in zip(table, batches, strict=True))
        assert same_batch(table[1], batches[1])
        assert same_batch(table[-1], batches[-1])
        assert [b.alu_ops for b in table[1:3]] == [0, 0]
        assert np.shares_memory(table[2].lines, table.lines)
        with pytest.raises(IndexError):
            table[4]
        with pytest.raises(IndexError):
            table[-5]

    def test_columns_describe_each_batch(self):
        table = BatchTable(self.batches())
        assert table.lines.tolist() == [3, 4, 9, 7, 8, 9]
        assert table.counts.tolist() == [1, 2, 4, 1, 1, 1]
        assert table.bounds.tolist() == [0, 2, 3, 6, 6]
        assert table.kinds.tolist() == [KIND_READ, KIND_WRITE, KIND_PREFETCH, KIND_READ]
        assert table.alu_ops.tolist() == [5, 0, 0, 11]
        for name in ("lines", "counts", "bounds", "kinds", "alu_ops", "phase_ids"):
            column = getattr(table, name)
            assert column.dtype == np.int64 and column.flags.c_contiguous, name

    def test_phases_in_order_of_first_appearance(self):
        table = BatchTable(self.batches())
        assert table.phase_names == ["me", "dct", "vlc"]
        assert table.phase_ids.tolist() == [0, 1, 0, 2]

    def test_empty(self):
        table = BatchTable()
        assert len(table) == 0
        assert list(table) == []
        assert table.lines.size == 0 and table.counts.size == 0
        assert table.bounds.tolist() == [0]
        assert table.phase_names == []

    def test_pickles_as_its_columns(self):
        table = BatchTable(self.batches())
        copy = pickle.loads(pickle.dumps(table))
        assert isinstance(copy, BatchTable)
        assert copy.phase_names == table.phase_names
        for name in ("lines", "counts", "bounds", "kinds", "alu_ops", "phase_ids"):
            assert getattr(copy, name).tolist() == getattr(table, name).tolist(), name
            assert not np.shares_memory(getattr(copy, name), getattr(table, name))
        assert all(same_batch(a, b) for a, b in zip(copy, table, strict=True))

    def test_build_collapses_runs(self):
        table = BatchTable([
            AccessBatch(KIND_READ, np.array([5, 5, 6, 6, 6, 5]), np.arange(1, 7)),
            AccessBatch(KIND_WRITE, np.array([5, 5]), np.array([2, 3])),
        ])
        assert table.lines.tolist() == [5, 6, 5, 5]
        assert table.counts.tolist() == [3, 12, 6, 5]
        assert table.bounds.tolist() == [0, 3, 4]

    def test_from_columns_round_trips(self):
        table = BatchTable(self.batches())
        copy = BatchTable.from_columns(
            table.lines, table.counts, table.bounds, table.kinds, table.alu_ops,
            table.phase_ids, table.phase_names,
        )
        assert all(same_batch(a, b) for a, b in zip(copy, table, strict=True))

    @pytest.mark.parametrize(
        "column,value",
        [
            ("bounds", [0, 2, 1, 6, 6]),  # a batch ends before it starts
            ("bounds", [0, 2, 3, 6, 7]),  # past the last event
            ("bounds", [1, 2, 3, 6, 6]),  # not starting at zero
            ("bounds", [0, 2, 3, 6]),  # one offset short
            ("kinds", [0, 1, 2, 3]),
            ("phase_ids", [0, 1, 0, 3]),
            ("alu_ops", [5, 0, 0]),
        ],
    )
    def test_from_columns_rejects_malformed_columns(self, column, value):
        table = BatchTable(self.batches())
        columns = {
            name: getattr(table, name)
            for name in ("lines", "counts", "bounds", "kinds", "alu_ops", "phase_ids")
        }
        columns[column] = np.array(value)
        with pytest.raises(ValueError):
            BatchTable.from_columns(**columns, phase_names=table.phase_names)


batch_specs = st.lists(
    st.tuples(
        st.sampled_from([KIND_READ, KIND_WRITE, KIND_PREFETCH]),
        # Few distinct granules, so runs (and all-duplicate batches) are common.
        st.lists(st.integers(min_value=0, max_value=3), max_size=12),
        st.sampled_from(["me", "dct", "vlc"]),
        st.integers(min_value=0, max_value=50),
    ),
    max_size=25,
)


@given(batch_specs, st.integers(min_value=1, max_value=16))
@settings(max_examples=150, deadline=None)
def test_property_chunked_build_equals_per_batch_collapse(specs, chunk_events):
    """Any chunking gives the columns of the batches collapsed one by one:
    empty batches, batches straddling chunks and all-duplicate runs."""
    batches = [
        AccessBatch(kind, np.array(lines, dtype=np.int64),
                    np.arange(1, len(lines) + 1), phase=phase, alu_ops=alu)
        for kind, lines, phase, alu in specs
    ]
    with mock.patch.object(events, "CHUNK_EVENTS", chunk_events):
        table = BatchTable(iter(batches))
    expected = [batch.collapsed() for batch in batches]
    assert len(table) == len(expected)
    assert all(same_batch(a, b) for a, b in zip(table, expected, strict=True))
    assert table.bounds.tolist() == np.cumsum(
        [0] + [batch.n_events for batch in expected]
    ).tolist()
    assert table.phase_names == list(dict.fromkeys(spec[2] for spec in specs))


class TestTraceStats:
    def test_aggregation(self):
        stats = TraceStats()
        stats.add(AccessBatch(KIND_READ, np.array([1]), np.array([5]), phase="me"))
        stats.add(AccessBatch(KIND_WRITE, np.array([2]), np.array([3]), phase="me"))
        assert stats.reads == 5
        assert stats.writes == 3
        assert stats.events == 2
        assert stats.phases == {"me": 8}
