"""The whole-VOP I-VOP plan against the per-macroblock intra serializer.

The batched encoder predicts every block's DC and AC line and prepares
its VLC events for a whole I-VOP before it writes a bit
(``VopEncoder._plan_intra_vop``).  Its output must be that of
``VopEncoder._serialize_intra_mb`` run macroblock by macroblock with a
fresh predictor set per video packet -- the bits, the per-MB event
counts, the VOP statistics and the trace (the batched serializer's row
emitter against the per-MB hooks, table column for column) -- on any
level grid.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.bitstream import BitWriter
from repro.codec.encoder import VopEncoder
from repro.codec.types import CodecConfig, VopStats, VopType
from repro.trace import TraceCapture, TraceRecorder
from repro.video.yuv import MB_SIZE

#: (resync_markers, data_partitioning, reversible_vlc) combinations a
#: configuration allows.
RESILIENCE = [
    (False, False, False),
    (True, False, False),
    (True, True, False),
    (True, True, True),
]


def make_encoder(rows, cols, resilience, qp):
    resync, partitioned, reversible = resilience
    config = CodecConfig(
        MB_SIZE * cols, MB_SIZE * rows, qp=qp, resync_markers=resync,
        data_partitioning=partitioned, reversible_vlc=reversible,
    )
    sink = TraceCapture()
    recorder = TraceRecorder([sink])
    return VopEncoder(config, recorder), sink


def new_stats(qp):
    return VopStats(vop_type=VopType.I, display_index=0, coded_index=0, qp=qp)


def planned(levels, resilience, qp):
    encoder, sink = make_encoder(*levels.shape[:2], resilience, qp)
    writer, stats = BitWriter(), new_stats(qp)
    encoder._serialize_i_vop(writer, qp, levels, encoder._anchors[0], stats)
    n_events = encoder._plan_intra_vop(levels)[3]
    return writer.getvalue(), n_events, stats, sink.table()


def per_macroblock(levels, resilience, qp):
    """The per-MB serializer, predictors reset at every video packet."""
    encoder, sink = make_encoder(*levels.shape[:2], resilience, qp)
    config = encoder.config
    writer, stats = BitWriter(), new_stats(qp)
    recon_store = encoder._anchors[0]
    state = {"dc_preds": encoder._make_dc_predictors()}
    n_events = []

    def on_row(row):
        if config.resync_markers and row > 0:
            state["dc_preds"] = encoder._make_dc_predictors()

    def code_mb(writer, texture, row, col):
        n_events.append(
            encoder._serialize_intra_mb(
                writer, texture, levels[row, col], state["dc_preds"], row, col,
                stats, inter_allowed=False,
            )
        )
        encoder._tk.mb_texture(
            encoder._rec, "intra_enc", encoder._cur.fmap, recon_store.fmap,
            row * MB_SIZE, col * MB_SIZE, n_coded_blocks=6, n_events=n_events[-1],
        )

    encoder._serialize_rows(writer, qp, code_mb, on_row)
    return writer.getvalue(), n_events, stats, sink.table()


@st.composite
def level_grids(draw):
    """Sparse quantized I-VOP levels, (rows, cols, 6, 8, 8) int32.

    DCs come from a handful of values, so DC-gradient ties are common;
    AC magnitudes reach the escape range; zero density gives all-zero
    blocks; shared first rows and columns make AC prediction pay.
    """
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.03, 0.15, 0.6]))
    max_level = draw(st.sampled_from([1, 3, 12, 40, 2000]))
    shape = (rows, cols, 6, 8, 8)
    magnitudes = rng.integers(1, max_level + 1, size=shape)
    signs = rng.choice([-1, 1], size=shape)
    levels = np.where(rng.random(shape) < density, magnitudes * signs, 0)
    if draw(st.booleans()):
        levels[..., 0, 1:8] = rng.integers(-5, 6, size=7)
        levels[..., 1:8, 0] = rng.integers(-5, 6, size=7)
    if draw(st.booleans()):
        levels[..., 0, 0] = rng.choice([0, 1, 2, 128], size=shape[:3])
    else:
        levels[..., 0, 0] = rng.integers(-300, 300, size=shape[:3])
    return levels.astype(np.int32)


@given(
    level_grids(),
    st.sampled_from(RESILIENCE),
    st.integers(min_value=1, max_value=31),
)
@settings(max_examples=200, deadline=None)
def test_plan_matches_per_macroblock_serializer(levels, resilience, qp):
    bits, n_events, stats, trace = planned(levels, resilience, qp)
    want_bits, want_events, want_stats, want_trace = per_macroblock(levels, resilience, qp)
    assert bits == want_bits
    assert n_events == want_events
    assert stats == want_stats
    for name in ("lines", "counts", "bounds", "kinds", "alu_ops", "phase_ids"):
        assert getattr(trace, name).tolist() == getattr(want_trace, name).tolist(), name
    assert trace.phase_names == want_trace.phase_names


def test_ac_prediction_is_used_and_ties_go_left():
    """Equal DC gradients pick the left neighbour, and a block that
    repeats that neighbour's AC line switches AC prediction on."""
    levels = np.zeros((1, 1, 6, 8, 8), dtype=np.int32)
    levels[0, 0, :4, 0, 0] = [10, 0, 20, 50]
    # Y3's gradients tie (|10 - 20| == |10 - 0|): it predicts from Y2, on
    # its left, and so does its first column.
    levels[0, 0, 2:4, 1:8, 0] = 7
    encoder, _ = make_encoder(1, 1, RESILIENCE[0], 8)
    _, ac_pred, dc_deltas, _, _, _ = encoder._plan_intra_vop(levels)
    assert ac_pred == [1]
    assert dc_deltas == [10 - 128, 0 - 10, 20 - 10, 50 - 20, -128, -128]
    assert planned(levels, RESILIENCE[0], 8)[0] == per_macroblock(levels, RESILIENCE[0], 8)[0]
