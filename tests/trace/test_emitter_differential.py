"""The template-driven macroblock emitters against their direct-geometry oracle.

:mod:`repro.trace.kernels` takes a search window's runs, row map and
column weights, a macroblock's Y/U/V runs and the scratch region's scaled
counts from caches keyed on geometry.  These tests hold every emitted
batch -- kind, lines, counts, phase and ALU count -- to the direct
computation in :mod:`tests.trace.emitter_oracle` at any plane alignment.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.motion import ZERO_MV, SearchResult
from repro.trace import TraceCapture, TraceRecorder
from repro.trace import kernels as tk
from repro.trace.layout import FrameMap, PlaneMap

from . import emitter_oracle as oracle


def run(emitter, *args, scratch=None):
    """The batches one emitter call sends, from a fresh recorder."""
    sink = TraceCapture()
    rec = TraceRecorder([sink])
    rec.push_phase("vop_encode")
    if scratch is not None:
        rec.space.regions["scratch"] = scratch
    emitter(rec, *args)
    return sink.batches


def assert_same_batches(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.kind == want.kind
        assert got.phase == want.phase
        assert got.alu_ops == want.alu_ops
        assert got.lines.tolist() == want.lines.tolist()
        assert got.counts.tolist() == want.counts.tolist()


addresses = st.integers(min_value=0, max_value=1 << 24)
strides = st.integers(min_value=64, max_value=2200)
mb_coords = st.integers(min_value=0, max_value=60).map(lambda k: 16 * k)


@st.composite
def frame_maps(draw):
    """A frame map whose planes start at any byte, not only page starts."""
    y_stride = draw(strides)
    c_stride = draw(st.one_of(st.just(y_stride // 2), strides))
    return FrameMap(
        "f",
        PlaneMap(draw(addresses), y_stride, 1),
        PlaneMap(draw(addresses), c_stride, 1),
        PlaneMap(draw(addresses), c_stride, 1),
    )


@st.composite
def searches(draw, search_range):
    window = 2 * search_range + 16
    candidates = draw(st.integers(min_value=0, max_value=(2 * search_range + 1) ** 2))
    coverage = draw(
        st.sampled_from(["none", "window", "wrong_size", "zero"])
    )
    if coverage == "none":
        row_coverage = None
    else:
        size = window + (3 if coverage == "wrong_size" else 0)
        values = draw(
            st.lists(st.integers(min_value=0, max_value=400), min_size=size, max_size=size)
        )
        row_coverage = np.array(values, dtype=np.int64)
        if coverage == "zero":
            row_coverage[:] = 0
    return SearchResult(
        mv=ZERO_MV,
        sad=0,
        candidates_evaluated=candidates,
        ref_reads=draw(st.integers(min_value=0, max_value=1 << 20)),
        cur_reads=draw(st.integers(min_value=0, max_value=1 << 18)),
        row_coverage=row_coverage,
    )


@st.composite
def me_calls(draw):
    search_range = draw(st.integers(min_value=1, max_value=20))
    return (
        draw(frame_maps()),
        draw(frame_maps()),
        draw(mb_coords),
        draw(mb_coords),
        search_range,
        draw(searches(search_range)),
        draw(st.integers(min_value=0, max_value=8)),
    )


@given(me_calls())
@settings(max_examples=300, deadline=None)
def test_me_search_matches_direct_geometry(call):
    assert_same_batches(run(tk.me_search, *call), run(oracle.me_search, *call))


@given(frame_maps(), mb_coords, mb_coords, st.integers(min_value=-64, max_value=64))
@settings(max_examples=200, deadline=None)
def test_mc_mb_matches_direct_geometry(fmap, mb_y, mb_x, halfpel):
    args = (fmap, mb_y, mb_x, halfpel)
    assert_same_batches(run(tk.mc_mb, *args), run(oracle.mc_mb, *args))


@given(
    st.sampled_from(["intra_enc", "inter_enc", "intra_dec", "inter_dec"]),
    st.one_of(st.none(), frame_maps()),
    frame_maps(),
    mb_coords,
    mb_coords,
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=700),
    st.tuples(addresses, st.integers(min_value=1, max_value=4096)),
)
@settings(max_examples=300, deadline=None)
def test_mb_texture_matches_direct_geometry(
    kind, cur, recon, mb_y, mb_x, n_coded_blocks, n_events, scratch
):
    args = (kind, cur, recon, mb_y, mb_x, n_coded_blocks, n_events)
    assert_same_batches(
        run(tk.mb_texture, *args, scratch=scratch),
        run(oracle.mb_texture, *args, scratch=scratch),
    )


def test_mb_texture_maps_the_scratch_region_once():
    """Unmapped, the scratch region is mapped on first use, as before."""
    fmap = FrameMap(
        "f", PlaneMap(4096, 192, 1), PlaneMap(65536, 96, 1), PlaneMap(98304, 96, 1)
    )
    args = ("inter_dec", None, fmap, 32, 48, 3, 40)
    assert_same_batches(run(tk.mb_texture, *args), run(oracle.mb_texture, *args))
