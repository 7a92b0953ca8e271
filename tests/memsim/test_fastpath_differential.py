"""Differential tests: the vectorized engine vs the list-based oracle.

Every test drives :class:`~repro.memsim.fastpath.FastMemoryHierarchy` and
:class:`~repro.memsim.hierarchy.MemoryHierarchy` with the same batch
stream and requires **bit-identical** counters -- hits, misses, writebacks
at both levels, prefetch outcomes, TLB misses, and the derived timing --
plus identical resident contents, under page-scatter indexing, inclusion
back-invalidation, and mixed read/write/prefetch traffic.

The fast engine's whole-trace :meth:`~FastMemoryHierarchy.replay` is held
to a per-batch ``process`` loop of the reference engine the same way,
including phase order and the float clocks' last bits.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.cache import CacheGeometry, SetAssocCache
from repro.memsim.events import (
    KIND_PREFETCH,
    KIND_READ,
    KIND_WRITE,
    AccessBatch,
    BatchTable,
)
from repro.memsim.fastpath import FastMemoryHierarchy, engine_class, kernel_available
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.timing import TimingSpec

pytestmark = pytest.mark.skipif(
    not kernel_available(), reason="no C compiler to build the fast-path kernel"
)

COUNTER_FIELDS = [
    "graduated_loads",
    "graduated_stores",
    "l1_hits",
    "l1_misses",
    "l1_writebacks",
    "l2_hits",
    "l2_misses",
    "l2_writebacks",
    "prefetch_issued",
    "prefetch_l1_hits",
    "prefetch_l1_misses",
    "prefetch_l2_misses",
    "tlb_misses",
    "alu_ops",
]


def make_timing(**overrides):
    params = dict(
        clock_mhz=300.0,
        ipc=1.2,
        l2_hit_latency_cycles=10.0,
        mshr=4,
        hide_l2=0.6,
        hide_dram=0.3,
    )
    params.update(overrides)
    return TimingSpec(**params)


def make_pair(l1_kb=1, l2_kb=4, l1_ways=2, l2_ways=2, page_scatter=False,
              tlb_entries=4):
    args = (
        CacheGeometry(l1_kb << 10, 32, l1_ways),
        CacheGeometry(l2_kb << 10, 128, l2_ways),
        make_timing(),
    )
    kwargs = dict(page_scatter=page_scatter, tlb_entries=tlb_entries)
    return MemoryHierarchy(*args, **kwargs), FastMemoryHierarchy(*args, **kwargs)


def assert_counters_equal(reference, fast, scope="total"):
    ref_counters = getattr(reference, scope) if scope == "total" else reference
    fast_counters = getattr(fast, scope) if scope == "total" else fast
    for field_name in COUNTER_FIELDS:
        assert getattr(fast_counters, field_name) == getattr(
            ref_counters, field_name
        ), field_name
    assert fast_counters.clock.compute_cycles == ref_counters.clock.compute_cycles
    assert fast_counters.clock.l1_stall_cycles == ref_counters.clock.l1_stall_cycles
    assert fast_counters.clock.dram_stall_cycles == ref_counters.clock.dram_stall_cycles


def assert_state_equal(reference, fast):
    assert fast.l1_contents() == reference.l1_contents()
    assert fast.l2_contents() == reference.l2_contents()
    assert fast.check_inclusion() and reference.check_inclusion()
    assert fast.tlb.misses == reference.tlb.misses
    assert fast.tlb.hits == reference.tlb.hits
    assert fast.tlb.contents() == reference.tlb.contents()


def assert_same(reference, fast):
    assert_counters_equal(reference, fast)
    assert_state_equal(reference, fast)
    assert list(fast.phases) == list(reference.phases)
    for phase in reference.phases:
        assert_counters_equal(reference.phases[phase], fast.phases[phase], scope="")


def run_both(reference, fast, batches):
    for batch in batches:
        reference.process(batch)
        fast.process(batch)
    assert_same(reference, fast)


def replay_both(reference, fast, batches):
    """The reference engine batch by batch; the fast engine in one replay."""
    for batch in batches:
        reference.process(batch)
    fast.replay(BatchTable(batches))
    assert_same(reference, fast)


def random_batches(rng, n_batches, max_line, max_events=200, kinds=(0, 1, 2)):
    batches = []
    for _ in range(n_batches):
        kind = int(rng.choice(kinds))
        size = int(rng.integers(1, max_events))
        if rng.random() < 0.5:
            # Spatially local stream with runs, like codec kernels emit.
            start = int(rng.integers(0, max_line))
            steps = rng.integers(-2, 3, size=size)
            lines = np.abs(start + np.cumsum(steps)) % max_line
        else:
            lines = rng.integers(0, max_line, size=size)
        counts = rng.integers(1, 8, size=size)
        phase = str(rng.choice(["me", "dct", "other"]))
        batches.append(
            AccessBatch(kind, lines, counts, phase=phase, alu_ops=int(rng.integers(0, 50)))
        )
    return batches


class TestDifferentialRandom:
    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_traffic(self, seed):
        rng = np.random.default_rng(seed)
        reference, fast = make_pair()
        run_both(reference, fast, random_batches(rng, 30, 4096))

    @pytest.mark.parametrize("seed", range(4))
    def test_page_scatter_and_tiny_tlb(self, seed):
        """Physically-scattered L2 indexing and a 4-entry TLB stress the
        paths that diverge most easily (index hashing, page-transition
        dedup)."""
        rng = np.random.default_rng(100 + seed)
        reference, fast = make_pair(page_scatter=True, tlb_entries=4)
        run_both(reference, fast, random_batches(rng, 30, 1 << 16))

    @pytest.mark.parametrize("seed", range(4))
    def test_inclusion_churn(self, seed):
        """A 2x-L1-sized single-way L2 forces constant back-invalidation."""
        rng = np.random.default_rng(200 + seed)
        args = (
            CacheGeometry(1 << 10, 32, 2),
            CacheGeometry(2 << 10, 128, 1),
            make_timing(),
        )
        reference = MemoryHierarchy(*args)
        fast = FastMemoryHierarchy(*args)
        run_both(reference, fast, random_batches(rng, 40, 512))

    def test_write_heavy_dirty_traffic(self, rng):
        reference, fast = make_pair(l1_kb=1, l2_kb=2)
        run_both(
            reference, fast, random_batches(rng, 50, 1024, kinds=(1, 1, 1, 0))
        )

    def test_prefetch_heavy_traffic(self, rng):
        reference, fast = make_pair(l1_kb=1, l2_kb=2)
        run_both(
            reference, fast, random_batches(rng, 50, 1024, kinds=(2, 2, 0, 1))
        )

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([KIND_READ, KIND_WRITE, KIND_PREFETCH]),
                st.lists(st.integers(min_value=0, max_value=2047), min_size=1,
                         max_size=60),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_streams(self, stream):
        reference, fast = make_pair(l1_kb=1, l2_kb=2, page_scatter=True)
        batches = [
            AccessBatch(kind, np.array(lines), np.ones(len(lines), dtype=np.int64))
            for kind, lines in stream
        ]
        run_both(reference, fast, batches)


def alu_only(phase="other", alu_ops=7):
    empty = np.zeros(0, dtype=np.int64)
    return AccessBatch(KIND_READ, empty, empty, phase=phase, alu_ops=alu_ops)


class TestReplayDifferential:
    """``FastMemoryHierarchy.replay`` against a reference ``process`` loop."""

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_traffic(self, seed):
        rng = np.random.default_rng(300 + seed)
        reference, fast = make_pair()
        replay_both(reference, fast, random_batches(rng, 120, 4096))

    @pytest.mark.parametrize("seed", range(3))
    def test_page_scatter_and_tiny_tlb(self, seed):
        rng = np.random.default_rng(400 + seed)
        reference, fast = make_pair(page_scatter=True, tlb_entries=4)
        replay_both(reference, fast, random_batches(rng, 80, 1 << 16))

    def test_inclusion_churn(self, rng):
        args = (
            CacheGeometry(1 << 10, 32, 2),
            CacheGeometry(2 << 10, 128, 1),
            make_timing(),
        )
        reference = MemoryHierarchy(*args)
        fast = FastMemoryHierarchy(*args)
        replay_both(reference, fast, random_batches(rng, 80, 512))

    @pytest.mark.parametrize("seed", range(3))
    def test_prefetch_heavy_streams(self, seed):
        """Prefetch fills touch the TLB on new pages, but only demand
        batches may count TLB misses."""
        rng = np.random.default_rng(500 + seed)
        reference, fast = make_pair(l1_kb=1, l2_kb=2, tlb_entries=4)
        batches = random_batches(rng, 120, 1 << 15, kinds=(2, 2, 2, 0, 1))
        replay_both(reference, fast, batches)
        assert fast.total.prefetch_issued > 0

    def test_alu_only_batches(self, rng):
        """Empty batches charge compute and phases, and nothing else."""
        batches = random_batches(rng, 40, 2048)
        for index in (0, 5, 17, len(batches)):
            batches.insert(index, alu_only("vlc", alu_ops=index + 3))
        reference, fast = make_pair()
        replay_both(reference, fast, batches)

    def test_only_alu_batches(self):
        reference, fast = make_pair()
        replay_both(reference, fast, [alu_only(p, n) for n, p in enumerate("abca")])
        assert list(fast.phases) == ["a", "b", "c"]

    def test_empty_trace(self):
        reference, fast = make_pair()
        replay_both(reference, fast, [])
        assert fast.phases == {}

    def test_interleaved_phases(self, rng):
        """Phases come and go; they must appear in first-use order."""
        batches = random_batches(rng, 90, 4096)
        names = ["me", "dct", "me", "vlc", "pad", "dct", "other"]
        for index, batch in enumerate(batches):
            batch.phase = names[index % len(names)] if index < 80 else "late"
        reference, fast = make_pair()
        replay_both(reference, fast, batches)
        assert list(fast.phases) == ["me", "dct", "vlc", "pad", "other", "late"]

    @pytest.mark.parametrize("seed", range(3))
    def test_replay_onto_a_used_hierarchy(self, seed):
        """The fold starts from non-zero counters, clocks and phases."""
        rng = np.random.default_rng(600 + seed)
        reference, fast = make_pair(page_scatter=True)
        run_both(reference, fast, random_batches(rng, 30, 4096))
        replay_both(reference, fast, random_batches(rng, 60, 4096))
        # ... and a second replay onto the first one's state.
        replay_both(reference, fast, random_batches(rng, 60, 4096))
        for batch in random_batches(rng, 10, 4096):
            batch.phase = "fresh"
            reference.process(batch)
            fast.process(batch)
        assert_same(reference, fast)

    def test_plain_batch_list(self, rng):
        batches = random_batches(rng, 40, 2048)
        reference, fast = make_pair()
        for batch in batches:
            reference.process(batch)
        fast.replay(batches)
        assert_same(reference, fast)

    def test_uncollapsed_runs(self, rng):
        """A table of uncollapsed batches replays like their collapsed form."""
        batches = []
        for kind in (0, 1, 2, 0, 1):
            raw = np.repeat(rng.integers(0, 512, size=80), rng.integers(1, 4, size=80))
            batches.append(AccessBatch(kind, raw, np.ones_like(raw), alu_ops=9))
        reference, fast = make_pair()
        replay_both(reference, fast, batches)

    def test_unpickled_table_replays_identically(self, rng):
        """A table pickles as its columns; the copy replays its own arrays."""
        table = BatchTable(random_batches(rng, 50, 4096))
        copy = pickle.loads(pickle.dumps(table))
        assert isinstance(copy, BatchTable)
        assert not np.shares_memory(copy.lines, table.lines)
        assert not np.shares_memory(copy.counts, table.counts)
        _, fast = make_pair()
        _, fast_copy = make_pair()
        fast.replay(table)
        fast_copy.replay(copy)
        assert_same(fast, fast_copy)

    def test_reference_replay_is_the_process_loop(self, rng):
        batches = random_batches(rng, 40, 2048)
        reference, _ = make_pair()
        replayed, _ = make_pair()
        for batch in batches:
            reference.process(batch)
        replayed.replay(BatchTable(batches))
        assert_same(reference, replayed)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([KIND_READ, KIND_WRITE, KIND_PREFETCH]),
                st.lists(st.integers(min_value=0, max_value=2047), max_size=60),
                st.sampled_from(["a", "b", "c"]),
                st.integers(min_value=0, max_value=100),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_streams(self, stream):
        reference, fast = make_pair(l1_kb=1, l2_kb=2, page_scatter=True)
        batches = [
            AccessBatch(kind, np.array(lines, dtype=np.int64),
                        np.ones(len(lines), dtype=np.int64), phase=phase,
                        alu_ops=alu)
            for kind, lines, phase, alu in stream
        ]
        replay_both(reference, fast, batches)


class TestSinkProtocol:
    """A recorder hands its sinks a macroblock row as one table
    (``replay``) and every other batch alone (``process``).  Any
    interleaving of the two must leave both engines where one ``process``
    per batch leaves the reference engine: the same totals, phases in the
    same order, and the same float clocks."""

    @staticmethod
    def feed(sink, batches, cuts, as_tables):
        bounds = [0, *cuts, len(batches)]
        for start, stop, as_table in zip(bounds, bounds[1:], as_tables):
            if as_table:
                sink.replay(BatchTable(batches[start:stop]))
            else:
                for batch in batches[start:stop]:
                    sink.process(batch)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_interleavings(self, data):
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
        n = data.draw(st.integers(min_value=0, max_value=60))
        batches = random_batches(
            rng, n, data.draw(st.sampled_from([512, 4096, 1 << 15])),
            max_events=data.draw(st.sampled_from([2, 40, 200])),
        )
        phases = ["vop_encode", "other", "me", "vop_decode"]
        for batch in batches:
            batch.phase = phases[int(rng.integers(0, len(phases)))]
        for index in data.draw(st.lists(st.integers(min_value=0, max_value=n), max_size=4)):
            batches.insert(index, alu_only(phases[index % len(phases)], alu_ops=index + 1))
        cuts = sorted(
            data.draw(st.lists(st.integers(min_value=0, max_value=len(batches)), max_size=10))
        )
        as_tables = data.draw(
            st.lists(st.booleans(), min_size=len(cuts) + 1, max_size=len(cuts) + 1)
        )
        scatter = data.draw(st.booleans())
        oracle, _ = make_pair(page_scatter=scatter)
        for batch in batches:
            oracle.process(batch)
        reference, fast = make_pair(page_scatter=scatter)
        self.feed(reference, batches, cuts, as_tables)
        self.feed(fast, batches, cuts, as_tables)
        assert_same(oracle, reference)
        assert_same(oracle, fast)


class TestDifferentialAgainstCacheModel:
    """The fast engine must also match the composed SetAssocCache oracle on
    write-free streams (mirrors the existing hierarchy differential)."""

    @given(
        st.lists(st.integers(min_value=0, max_value=1023), min_size=1, max_size=400)
    )
    @settings(max_examples=40, deadline=None)
    def test_read_stream_differential(self, raw_lines):
        l1_geom = CacheGeometry(1 << 10, 32, 2)
        l2_geom = CacheGeometry(4 << 10, 128, 2)
        fast = FastMemoryHierarchy(l1_geom, l2_geom, make_timing())
        lines = np.array(raw_lines)
        fast.process(AccessBatch(KIND_READ, lines, np.ones_like(lines)))

        ref_l1 = SetAssocCache(l1_geom)
        ref_l2 = SetAssocCache(l2_geom)
        for granule in raw_lines:
            if ref_l1.access(granule, False):
                continue
            if not ref_l2.access(granule >> 2, False) and ref_l2.last_victim is not None:
                base = ref_l2.last_victim << 2
                for covered in range(base, base + 4):
                    ref_l1.invalidate(covered)
        assert fast.total.l1_misses == ref_l1.misses
        assert fast.total.l2_misses == ref_l2.misses


class TestBatchSlicingInvariance:
    def test_split_batches_match_one_batch(self, rng):
        """Counters must not depend on how a stream is chopped into batches
        (the windowed fast path crosses batch boundaries statefully)."""
        lines = rng.integers(0, 2048, size=1200)
        _, fast_one = make_pair()
        _, fast_many = make_pair()
        fast_one.process(AccessBatch(KIND_READ, lines, np.ones_like(lines)))
        for part in np.array_split(lines, 13):
            if part.size:
                fast_many.process(AccessBatch(KIND_READ, part, np.ones_like(part)))
        assert fast_many.total.l1_misses == fast_one.total.l1_misses
        assert fast_many.total.l2_misses == fast_one.total.l2_misses
        assert fast_many.total.tlb_misses == fast_one.total.tlb_misses

    def test_collapsed_batches_are_equivalent(self, rng):
        """The run-collapsing front-end must not change any counter."""
        raw = np.repeat(rng.integers(0, 256, size=300), rng.integers(1, 4, size=300))
        counts = np.ones_like(raw)
        batch = AccessBatch(KIND_READ, raw, counts)
        assert batch.collapsed().n_events < batch.n_events
        assert batch.collapsed().n_accesses == batch.n_accesses
        reference, fast = make_pair()
        reference.process(batch)
        fast.process(batch)
        assert_counters_equal(reference, fast)

    def test_collapsed_noop_returns_self(self):
        batch = AccessBatch(KIND_READ, np.array([1, 2, 3]), np.array([1, 1, 1]))
        assert batch.collapsed() is batch


class TestEngineSelection:
    def test_default_is_fast(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert engine_class() is FastMemoryHierarchy

    def test_reference_selectable(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert engine_class() is MemoryHierarchy

    def test_unknown_engine_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "simd")
        with pytest.raises(ValueError):
            engine_class()


class TestScaledInvariants:
    """Satellite: scaled() must preserve the conservation identities."""

    @pytest.mark.parametrize("factor", [1.0, 2.0, 3.7, 0.4, 11.0 / 3.0])
    def test_identities_survive_rounding(self, factor, rng):
        reference, fast = make_pair()
        run_both(reference, fast, random_batches(rng, 20, 2048))
        for hier in (reference, fast):
            scaled = hier.total.scaled(factor)
            assert scaled.l1_hits + scaled.l1_misses == scaled.memory_accesses
            assert scaled.l2_hits + scaled.l2_misses == scaled.l1_misses
            assert (
                scaled.prefetch_l1_hits + scaled.prefetch_l1_misses
                == scaled.prefetch_issued
            )
