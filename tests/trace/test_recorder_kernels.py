"""Tests for the trace recorder, sampling, and kernel emitters.

Includes the key modelling-validation test: the resident-set collapsed
motion-estimation emission must produce the same L1/L2 miss counts as a
literal per-candidate emission.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codec.framestore import BORDER
from repro.memsim.cache import CacheGeometry
from repro.memsim.events import GRANULE_SHIFT, KIND_READ, KIND_WRITE
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.timing import TimingSpec
from repro.trace import BandSampling, TraceRecorder
from repro.trace import kernels as tk


class CollectingSink:
    def __init__(self):
        self.batches = []

    def process(self, batch):
        self.batches.append(batch)


def make_recorder(sinks=None, sampling=None):
    return TraceRecorder(sinks if sinks is not None else [CollectingSink()], sampling)


def make_hierarchy():
    return MemoryHierarchy(
        CacheGeometry(32 << 10, 32, 2),
        CacheGeometry(1 << 20, 128, 2),
        TimingSpec(300.0, 1.2, 10.0, 4, 0.5, 0.25),
    )


class TestRecorderBasics:
    def test_phase_stack(self):
        rec = make_recorder()
        assert rec.phase == "other"
        rec.push_phase("vop_encode")
        assert rec.phase == "vop_encode"
        rec.pop_phase()
        assert rec.phase == "other"
        with pytest.raises(RuntimeError):
            rec.pop_phase()

    def test_emit_tags_phase(self):
        sink = CollectingSink()
        rec = make_recorder([sink])
        rec.push_phase("me")
        rec.emit_read(np.array([1]), np.array([4]))
        assert sink.batches[0].phase == "me"

    def test_emit_fans_out_to_all_sinks(self):
        sinks = [CollectingSink(), CollectingSink()]
        rec = make_recorder(sinks)
        rec.emit_write(np.array([1]), np.array([1]))
        assert len(sinks[0].batches) == len(sinks[1].batches) == 1

    def test_inactive_suppresses_emission(self):
        sink = CollectingSink()
        rec = make_recorder([sink], BandSampling(row_fraction=0.5))
        rec.configure_rows(10)
        rec.begin_vop(0, "P", 0)
        rec.begin_mb_row(9)  # outside the band
        rec.emit_read(np.array([1]), np.array([1]))
        assert sink.batches == []
        rec.begin_mb_row(0)
        rec.emit_read(np.array([1]), np.array([1]))
        assert len(sink.batches) == 1

    def test_scale_factor(self):
        rec = make_recorder([CollectingSink()], BandSampling(row_fraction=0.5))
        rec.configure_rows(10)
        rec.begin_vop(0, "P", 0)
        for row in range(10):
            rec.begin_mb_row(row)
        assert rec.scale_factor() == pytest.approx(2.0)

    def test_vop_sampling(self):
        sink = CollectingSink()
        rec = make_recorder([sink], BandSampling(row_fraction=1.0, max_vops=2))
        rec.configure_rows(4)
        for coded_index in range(4):
            rec.begin_vop(coded_index, "P", coded_index)
            rec.begin_mb_row(0)
            rec.emit_read(np.array([1]), np.array([1]))
        assert len(sink.batches) == 2
        assert rec.vops_traced == 2

    def test_band_sampling_validation(self):
        with pytest.raises(ValueError):
            BandSampling(row_fraction=0.0)
        with pytest.raises(ValueError):
            BandSampling(max_vops=0)


class TestStridedLines:
    def test_aligned_block(self):
        lines, counts = tk._strided_lines(0, 64, 0, 0, 2, 32)
        assert lines.tolist() == [0, 2]
        assert counts.tolist() == [32, 32]

    def test_unaligned_block_splits_granules(self):
        lines, counts = tk._strided_lines(0, 64, 0, 24, 1, 16)
        # Bytes 24..39 span granules 0 and 1.
        assert lines.tolist() == [0, 1]
        assert counts.tolist() == [8, 8]

    def test_total_accesses_exact(self):
        lines, counts = tk._strided_lines(1000, 752, 16, 16, 64, 48)
        assert counts.sum() == 64 * 48

    @given(
        base=st.integers(min_value=0, max_value=1 << 40),
        stride=st.integers(min_value=1, max_value=5000),
        y0=st.integers(min_value=0, max_value=300),
        x0=st.integers(min_value=0, max_value=300),
        h=st.integers(min_value=1, max_value=24),
        w=st.integers(min_value=1, max_value=120),
    )
    @example(base=0, stride=64, y0=0, x0=24, h=3, w=16)  # rows cross granules
    @example(base=31, stride=33, y0=1, x0=0, h=5, w=97)  # w > 32, odd stride
    @settings(max_examples=300, deadline=None)
    def test_templates_match_the_direct_formula(self, base, stride, y0, x0, h, w):
        """Template runs plus ``start >> 5`` equal each row's byte-by-byte
        granule runs, for any start, stride and shape."""
        lines, counts = tk._strided_lines(base, stride, y0, x0, h, w)
        expected_lines, expected_counts = [], []
        for row in range(h):
            row_start = base + (y0 + row) * stride + x0
            granules = np.arange(row_start, row_start + w) >> GRANULE_SHIFT
            runs, sizes = np.unique(granules, return_counts=True)
            expected_lines += runs.tolist()
            expected_counts += sizes.tolist()
        assert lines.tolist() == expected_lines
        assert counts.tolist() == expected_counts
        assert not counts.flags.writeable
        with pytest.raises(ValueError):
            counts[0] = 0

    def test_templates_are_shared_by_translated_rectangles(self):
        """Rectangles a whole number of granules apart share one template."""
        first_lines, first_counts = tk._strided_lines(40, 752, 16, 16, 16, 16)
        lines, counts = tk._strided_lines(40 + 7 * 32, 752, 16, 16, 16, 16)
        assert counts is first_counts
        assert (lines - first_lines).tolist() == [7] * lines.size
        assert lines.flags.writeable  # the translated lines are the caller's

    def test_sequential_lines(self):
        lines, counts = tk._sequential_lines(10, 100)
        assert counts.sum() == 100
        assert lines[0] == 10 >> GRANULE_SHIFT

    def test_sequential_empty(self):
        lines, counts = tk._sequential_lines(0, 0)
        assert lines.size == 0


class TestMeCollapsedEmissionEquivalence:
    """The collapsed ME emission must match a literal per-candidate replay."""

    def _literal_me_batches(self, fmap_ref, fmap_cur, mb_y, mb_x, search_range):
        """Exact per-candidate, per-row access stream of the full search."""
        n = 16
        lines = []
        y_base = fmap_ref.y.base
        stride = fmap_ref.y.stride
        cur_base = fmap_cur.y.base
        cur_stride = fmap_cur.y.stride
        for dy in range(-search_range, search_range + 1):
            for dx in range(-search_range, search_range + 1):
                for row in range(n):
                    # Current block row bytes.
                    start = cur_base + (BORDER + mb_y + row) * cur_stride + BORDER + mb_x
                    for byte in range(start, start + n):
                        lines.append(byte >> GRANULE_SHIFT)
                    # Reference candidate row bytes.
                    start = (
                        y_base
                        + (BORDER + mb_y + dy + row) * stride
                        + BORDER + mb_x + dx
                    )
                    for byte in range(start, start + n):
                        lines.append(byte >> GRANULE_SHIFT)
        return np.array(lines, dtype=np.int64)

    def test_miss_counts_match_literal_emission(self):
        from repro.codec.motion import SearchResult, ZERO_MV

        search_range = 4
        hier_collapsed = make_hierarchy()
        hier_literal = make_hierarchy()
        rec = TraceRecorder([hier_collapsed])
        fmap_ref = rec.map_frame_store("ref", (96, 128), (64, 96))
        fmap_cur = rec.map_frame_store("cur", (96, 128), (64, 96))
        n_candidates = (2 * search_range + 1) ** 2
        search = SearchResult(mv=ZERO_MV, sad=0, candidates_evaluated=n_candidates)
        tk.me_search(rec, fmap_ref, fmap_cur, 16, 16, search_range, search, 0)

        literal = self._literal_me_batches(fmap_ref, fmap_cur, 16, 16, search_range)
        from repro.memsim.events import AccessBatch

        hier_literal.process(AccessBatch.from_accesses(KIND_READ, literal))

        # Identical totals...
        assert (
            hier_collapsed.total.graduated_loads == hier_literal.total.graduated_loads
        )
        # ...and identical miss counts (the resident-set argument).
        assert hier_collapsed.total.l1_misses == hier_literal.total.l1_misses
        assert hier_collapsed.total.l2_misses == hier_literal.total.l2_misses

    def test_total_reads_match_candidate_math(self):
        from repro.codec.motion import SearchResult, ZERO_MV

        sink = CollectingSink()
        rec = make_recorder([sink])
        fmap_ref = rec.map_frame_store("ref", (96, 128), (64, 96))
        fmap_cur = rec.map_frame_store("cur", (96, 128), (64, 96))
        search_range = 8
        n_candidates = (2 * search_range + 1) ** 2
        search = SearchResult(mv=ZERO_MV, sad=0, candidates_evaluated=n_candidates)
        tk.me_search(rec, fmap_ref, fmap_cur, 16, 16, search_range, search, 0)
        total_reads = sum(b.n_accesses for b in sink.batches if b.kind == KIND_READ)
        assert total_reads == 2 * n_candidates * 256


class TestKernelEmitters:
    def _rec_and_maps(self):
        sink = CollectingSink()
        rec = make_recorder([sink])
        fmap = rec.map_frame_store("store", (96, 128), (64, 96))
        return rec, sink, fmap

    def test_mc_mb_fullpel_vs_halfpel_reads(self):
        rec, sink, fmap = self._rec_and_maps()
        tk.mc_mb(rec, fmap, 16, 16, 0)
        full = sum(b.n_accesses for b in sink.batches)
        sink.batches.clear()
        tk.mc_mb(rec, fmap, 16, 16, 1)
        half = sum(b.n_accesses for b in sink.batches)
        assert half > full

    def test_mb_texture_encode_reads_cur_decode_does_not(self):
        from repro.memsim.events import GRANULE_SHIFT

        rec, sink, fmap = self._rec_and_maps()
        cur = rec.map_frame_store("cur", (96, 128), (64, 96))
        cur_granules = set(
            range(cur.y.base >> GRANULE_SHIFT, (cur.v.base + 96 * 64) >> GRANULE_SHIFT)
        )

        def touches_cur(batches):
            return any(
                b.kind == KIND_READ and set(b.lines.tolist()) & cur_granules
                for b in batches
            )

        tk.mb_texture(rec, "intra_enc", cur, fmap, 0, 0, 6, 20)
        assert touches_cur(sink.batches)
        sink.batches.clear()
        tk.mb_texture(rec, "intra_dec", None, fmap, 0, 0, 6, 20)
        assert not touches_cur(sink.batches)

    def test_mb_texture_writes_recon(self):
        rec, sink, fmap = self._rec_and_maps()
        tk.mb_texture(rec, "inter_dec", None, fmap, 0, 0, 3, 10)
        writes = sum(b.n_accesses for b in sink.batches if b.kind == KIND_WRITE)
        assert writes >= 16 * 16 + 2 * 64  # at least the frame-store blocks

    def test_stream_write_advances_cursor_even_untraced(self):
        rec = make_recorder([CollectingSink()], BandSampling(row_fraction=0.5))
        rec.configure_rows(10)
        region = rec.map_linear("bits", 4096)
        rec.begin_vop(0, "P", 0)
        rec.begin_mb_row(9)  # inactive
        tk.stream_write(rec, region, 100)
        assert region.cursor == 100

    def test_stream_read_emits_prefetches(self):
        rec, sink, _ = self._rec_and_maps()
        region = rec.map_linear("bits", 65536)
        tk.stream_read(rec, region, 4096)
        from repro.memsim.events import KIND_PREFETCH

        kinds = {b.kind for b in sink.batches}
        assert KIND_PREFETCH in kinds

    def test_plane_copy_totals(self):
        rec, sink, fmap = self._rec_and_maps()
        region = rec.map_linear("input", 128 * 96 * 3 // 2)
        tk.plane_copy(rec, region, fmap, 96, 64)
        reads = sum(b.n_accesses for b in sink.batches if b.kind == KIND_READ)
        writes = sum(b.n_accesses for b in sink.batches if b.kind == KIND_WRITE)
        assert reads == 96 * 64 * 3 // 2
        assert writes == 96 * 64 * 3 // 2

    def test_padding_pass_touches_all_planes_twice(self):
        rec, sink, fmap = self._rec_and_maps()
        tk.padding_pass(rec, fmap, 96, 64)
        reads = sum(b.n_accesses for b in sink.batches if b.kind == KIND_READ)
        assert reads == 2 * 96 * 64 * 3 // 2

    def test_border_expand_emits_writes_only(self):
        rec, sink, fmap = self._rec_and_maps()
        tk.border_expand(rec, fmap, 96, 64)
        assert all(b.kind == KIND_WRITE for b in sink.batches)
        assert sum(b.n_accesses for b in sink.batches) > 0

    def test_shape_code_volumes(self):
        from repro.codec.shape import ShapeStats

        rec, sink, _ = self._rec_and_maps()
        region = rec.map_linear("alpha", 96 * 64)
        stats = ShapeStats(coded_babs=4, coded_pixels=1024, cae_bytes=100)
        tk.shape_code(rec, region, stats, decode=False)
        reads = sum(b.n_accesses for b in sink.batches if b.kind == KIND_READ)
        assert reads == 96 * 64 + 1024 * 10
