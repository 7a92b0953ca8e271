"""The template-driven emitters against their oracles.

:mod:`repro.trace.kernels` takes a search window's runs, row map and
column weights, a macroblock's Y/U/V runs and the scratch region's scaled
counts from caches keyed on geometry.  These tests hold every emitted
batch -- kind, lines, counts, phase and ALU count -- to the direct
computation in :mod:`tests.trace.emitter_oracle` at any plane alignment,
and the row emitters (``encode_row``, ``decode_row``), which build a
whole macroblock row's batches in one call, to the per-MB emitters
called macroblock by macroblock.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.motion import ZERO_MV, SearchResult
from repro.trace import BandSampling, TraceCapture, TraceRecorder
from repro.trace import kernels as tk
from repro.trace.layout import FrameMap, LinearRegion, PlaneMap

from . import emitter_oracle as oracle


class BatchList:
    """A sink that keeps each single batch as the recorder hands it."""

    def __init__(self):
        self.batches = []

    def process(self, batch):
        self.batches.append(batch)

    def replay(self, table):
        self.batches.extend(table)


def recorder(scratch=None, sampling=None):
    capture, batches = TraceCapture(), BatchList()
    rec = TraceRecorder([capture, batches], sampling)
    rec.push_phase("vop_encode")
    if scratch is not None:
        rec.space.regions["scratch"] = scratch
    return rec, capture, batches


def run(emitter, *args, scratch=None):
    """What one emitter call records, from a fresh recorder: the
    capture's table and the batches as a batch sink receives them."""
    rec, capture, batches = recorder(scratch)
    emitter(rec, *args)
    return capture.table(), batches.batches


def table_columns(table):
    return (
        table.lines.tolist(), table.counts.tolist(), table.bounds.tolist(),
        table.kinds.tolist(), table.alu_ops.tolist(), table.phase_ids.tolist(),
        table.phase_names,
    )


def assert_same_batches(actual, expected):
    (table, batches), (want_table, want_batches) = actual, expected
    assert table_columns(table) == table_columns(want_table)
    assert len(batches) == len(want_batches)
    for got, want in zip(batches, want_batches):
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


# -- the row emitters against the per-MB emitters ---------------------------------

#: Per VOP type, the encoder's macroblock shapes: the references each
#: compensates from and its texture.  Every macroblock of a P-VOP is
#: searched in the past reference, of a B-VOP in both.
ENCODE_SHAPES = {
    "I": [((), "intra")],
    "P": [((0,), None), ((), "intra"), ((0,), "inter")],
    # Skipped, then forward, backward and bidirectional (all compensate
    # from both references; the mode only picks the prediction).
    "B": [((0, 1), None), ((0, 1), "inter"), ((0, 1), "inter"), ((0, 1), "inter")],
}
SEARCHED = {"I": 0, "P": 1, "B": 2}


@st.composite
def row_searches(draw, n, search_range):
    """One reference's per-MB search work, coverage present, absent, of
    the wrong size or all zero."""
    window = 2 * search_range + 16
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 20),
                st.integers(min_value=0, max_value=(2 * search_range + 1) ** 2),
                st.integers(min_value=0, max_value=8),
                st.sampled_from(["window", "none", "short", "long", "zero"]),
            ),
            min_size=n, max_size=n,
        )
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    coverage = rng.integers(0, 400, size=(n, window + 3))
    cover_rows = []
    for index, (_, _, _, kind) in enumerate(rows):
        cover_rows.append({"window": window, "none": 0, "short": window - 1,
                           "long": window + 3, "zero": window}[kind])
        if kind == "zero":
            coverage[index] = 0
    reads, candidates, evaluated, _ = (np.array(column) for column in zip(*rows))
    return reads, candidates, evaluated, coverage, np.array(cover_rows)


@st.composite
def row_calls(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    search_range = draw(st.integers(min_value=1, max_value=20))
    encode = draw(st.booleans())
    refs = [draw(frame_maps()), draw(frame_maps())]
    if encode:
        vop = draw(st.sampled_from("IPB"))
        shapes = [draw(st.sampled_from(ENCODE_SHAPES[vop])) for _ in range(n)]
        searches = [
            (refs[index], *draw(row_searches(n, search_range)))
            for index in range(SEARCHED[vop])
        ]
    else:
        # Skipped, intra or inter, from any of the two references.
        shapes = [
            (
                draw(st.sampled_from([(), (0,), (1,), (0, 1)])),
                draw(st.sampled_from([None, "intra", "inter"])),
            )
            for _ in range(n)
        ]
        searches = []
    cbp = draw(st.lists(st.integers(min_value=0, max_value=63), min_size=n, max_size=n))
    n_events = draw(st.lists(st.integers(min_value=0, max_value=700), min_size=n, max_size=n))
    halfpel = [
        draw(st.lists(st.integers(min_value=-64, max_value=64), min_size=n, max_size=n))
        for _ in refs
    ]
    return {
        "n": n,
        "encode": encode,
        "row": draw(st.integers(min_value=0, max_value=40)),
        "search_range": search_range,
        "cur": draw(frame_maps()),
        "recon": draw(frame_maps()),
        "refs": refs,
        "searches": searches,
        "shapes": shapes,
        "cbp": cbp,
        "n_events": n_events,
        "halfpel": halfpel,
        "n_bytes": draw(
            st.lists(st.integers(min_value=0, max_value=400), min_size=n, max_size=n)
        ),
        "stream": (draw(addresses), draw(st.integers(min_value=0, max_value=4096))),
        "scratch": draw(st.tuples(addresses, st.integers(min_value=1, max_value=4096))),
    }


def texture_of(call):
    """The row emitters' texture columns: kind, coded blocks, events."""
    kinds = {None: tk.TEXTURE_NONE, "intra": tk.TEXTURE_INTRA, "inter": tk.TEXTURE_INTER}
    texture = [kinds[texture] for _, texture in call["shapes"]]
    blocks = np.where(
        np.array(texture) == tk.TEXTURE_INTRA, 6, tk.coded_blocks(call["cbp"])
    )
    return np.array(texture), blocks, np.array(call["n_events"])


def stream_region(call):
    # The cursor starts near the end, so the row's writes wrap.
    base, tail = call["stream"]
    return LinearRegion("bits", base, 4096, cursor=4096 - tail)


def emit_row(rec, call, region):
    compensations = [
        (
            ref,
            np.array(call["halfpel"][index]),
            np.array([index in used for used, _ in call["shapes"]]),
        )
        for index, ref in enumerate(call["refs"])
    ]
    if call["encode"]:
        tk.encode_row(
            rec, region, call["row"], call["n_bytes"], call["cur"], call["recon"],
            call["search_range"], call["searches"], compensations, texture_of(call),
        )
    else:
        tk.decode_row(rec, call["row"], call["recon"], compensations, texture_of(call))


def emit_per_mb(rec, call, region):
    """The per-MB emitters, macroblock by macroblock, as the reference
    codec calls them."""
    encode = call["encode"]
    for col, (used, texture) in enumerate(call["shapes"]):
        mb_y, mb_x = 16 * call["row"], 16 * col
        for ref, reads, candidates, evaluated, coverage, cover_rows in call["searches"]:
            size = int(cover_rows[col])
            search = SearchResult(
                mv=ZERO_MV, sad=0, candidates_evaluated=int(candidates[col]),
                ref_reads=int(reads[col]), cur_reads=int(reads[col]),
                row_coverage=coverage[col, :size] if size else None,
            )
            tk.me_search(
                rec, ref, call["cur"], mb_y, mb_x, call["search_range"], search,
                int(evaluated[col]),
            )
        for index in used:
            tk.mc_mb(rec, call["refs"][index], mb_y, mb_x, call["halfpel"][index][col])
        if texture is not None:
            cbp = call["cbp"][col]
            tk.mb_texture(
                rec, f"{texture}_{'enc' if encode else 'dec'}",
                call["cur"] if encode else None, call["recon"], mb_y, mb_x,
                6 if texture == "intra" else bin(cbp).count("1"), call["n_events"][col],
            )
        if encode:
            tk.stream_write(rec, region, call["n_bytes"][col])


@given(row_calls())
@settings(max_examples=300, deadline=None)
def test_row_emitter_matches_per_mb_emitters(call):
    got_rec, got, _ = recorder(call["scratch"])
    got_region = stream_region(call)
    emit_row(got_rec, call, got_region)
    want_rec, want, _ = recorder(call["scratch"])
    want_region = stream_region(call)
    emit_per_mb(want_rec, call, want_region)
    assert table_columns(got.table()) == table_columns(want.table())
    assert got_region.cursor == want_region.cursor


@given(row_calls())
@settings(max_examples=50, deadline=None)
def test_a_row_band_sampling_skips_only_moves_the_cursor(call):
    def emit(emitter):
        rec, capture, batches = recorder(call["scratch"], BandSampling(0.5))
        rec.configure_rows(2)
        rec.begin_vop(0, "P", 0)
        rec.begin_mb_row(1)
        region = stream_region(call)
        emitter(rec, call, region)
        return capture.table(), batches.batches, region.cursor

    table, batches, cursor = emit(emit_row)
    assert len(table) == 0 and batches == []
    assert cursor == emit(emit_per_mb)[2]
