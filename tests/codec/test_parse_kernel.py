"""The C macroblock-row parser against the decoder's parser of record.

The batched decoder parses each row of a rectangular, non-partitioned
VOP in one call to ``_parse_kernel.c`` (:meth:`MacroblockRows.parse`).
The oracle is :meth:`VopDecoder._parse_mb_row` with the checks and
counts of the row loop, packed into the same arrays
(:meth:`MacroblockRows.pack`).  On every row of an encoder's stream the
two must agree field by field -- kind, coded-block pattern, both
vectors, event count, levels and end bit -- and leave the same intra
predictor state and vector grid.  The kernel never decides an error: on
damaged input it hands rows back, and a decode with the kernel must end
exactly as one without it, error class and bit position included.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.codec import CodecConfig, VopDecoder, VopEncoder, batched, vlc
from repro.codec.batched import MacroblockRows, parse_kernel_available
from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.engine import ENGINE_BATCHED, ENGINE_ENV
from repro.codec.errors import BitstreamError
from repro.codec.framestore import BORDER, FrameStore
from repro.codec.motion import ZERO_MV, MotionVector
from repro.codec.types import VopStats, VopType
from repro.conformance.fuzzer import MUTATIONS, BitstreamFuzzer
from repro.video import SceneSpec, SyntheticScene

pytestmark = pytest.mark.skipif(
    not parse_kernel_available(), reason="no C compiler to build the parse kernel"
)


@pytest.fixture(autouse=True)
def batched_engine(monkeypatch):
    """The row kernel serves the batched engine, whichever one a run selects."""
    monkeypatch.setenv(ENGINE_ENV, ENGINE_BATCHED)


def scene_frames(width, height, n_frames, seed=0):
    spec = dataclasses.replace(SceneSpec.default(width, height), background_seed=seed)
    scene = SyntheticScene(spec)
    return [scene.frame(index) for index in range(n_frames)]


def encode(width, height, n_frames, seed=0, **options):
    config = CodecConfig(width, height, **options)
    return VopEncoder(config).encode_sequence(scene_frames(width, height, n_frames, seed))


def predictor_state(dc_preds):
    if dc_preds is None:
        return None
    return [array.copy() for plane in "yuv" for array in dc_preds[plane].arrays()]


def restore_predictors(dc_preds, state):
    if dc_preds is None:
        return
    arrays = [array for plane in "yuv" for array in dc_preds[plane].arrays()]
    for array, saved in zip(arrays, state):
        array[...] = saved


class DifferentialDecoder(VopDecoder):
    """Parses every batched row twice, with the kernel and with the parser
    of record from the same state, and records both."""

    def __init__(self):
        super().__init__()
        self.rows = []

    def _parse_row(
        self, reader, vop_type, dc_preds, mv_grid, row, past, future,
        recon_store, vop_stats, parsed,
    ):
        start = reader.bit_position
        predictors = predictor_state(dc_preds)
        grid = None if parsed.mv_grid is None else parsed.mv_grid.copy()
        parsed_by_kernel = parsed.parse(reader, row, dc_preds)
        kernel = (
            reader.bit_position, parsed.info[row].copy(), parsed.levels[row].copy(),
            predictor_state(dc_preds),
            None if grid is None else parsed.mv_grid.copy(),
        )
        restore_predictors(dc_preds, predictors)
        if grid is not None:
            parsed.mv_grid[...] = grid
        reader.seek_bits(start)
        parsed.parse = lambda *args: False  # the parser of record only
        try:
            super()._parse_row(
                reader, vop_type, dc_preds, mv_grid, row, past, future,
                recon_store, vop_stats, parsed,
            )
        finally:
            del parsed.parse
        python = (
            reader.bit_position, parsed.info[row].copy(), parsed.levels[row].copy(),
            predictor_state(dc_preds),
            None if grid is None else parsed.mv_grid.copy(),
        )
        self.rows.append((vop_type, row, parsed_by_kernel, kernel, python))


def assert_rows_agree(decoder):
    assert decoder.rows
    for vop_type, row, parsed_by_kernel, kernel, python in decoder.rows:
        where = (vop_type.name, row)
        assert parsed_by_kernel, f"the kernel handed back clean row {where}"
        end, info, levels, predictors, grid = kernel
        assert end == python[0], where
        np.testing.assert_array_equal(info, python[1], err_msg=str(where))
        np.testing.assert_array_equal(levels, python[2], err_msg=str(where))
        if predictors is None:
            assert python[3] is None
        else:
            for got, want in zip(predictors, python[3]):
                np.testing.assert_array_equal(got, want, err_msg=str(where))
        if grid is None:
            assert python[4] is None
        else:
            np.testing.assert_array_equal(grid, python[4], err_msg=str(where))


def without_kernels(monkeypatch):
    """Run the batched engine on its Python parse and NumPy compensation."""
    monkeypatch.setattr(batched, "_load_parse_kernel", lambda: None)
    monkeypatch.setattr(batched, "_load_sad_kernel", lambda: None)


def outcome(data, tolerant, recorder=None):
    """(error class and bit, or frames and vop_stats) of one decode."""
    try:
        decoded = VopDecoder(recorder).decode_sequence(data, tolerate_errors=tolerant)
    except BitstreamError as error:
        return type(error).__name__, error.bit_position
    frames = [plane.tobytes() for f in decoded.frames for plane in (f.y, f.u, f.v)]
    return frames, decoded.vop_stats, decoded.concealed_frames


def strict_and_tolerant(cases):
    """Each case's strict and tolerant :func:`traced_decode`."""
    return [
        (case, tolerant, traced_decode(data, tolerant))
        for case, data in cases
        for tolerant in (False, True)
    ]


class BailCounter:
    """Counts the rows the kernel parsed and the rows it handed back."""

    def __init__(self, monkeypatch):
        self.parsed = 0
        self.bails = 0
        original = MacroblockRows.parse

        def parse(rows, reader, row, predictors):
            done = original(rows, reader, row, predictors)
            if done:
                self.parsed += 1
            else:
                self.bails += 1
            return done

        monkeypatch.setattr(MacroblockRows, "parse", parse)


GEOMETRIES = [(16, 16), (32, 16), (48, 32), (64, 48), (32, 64)]


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    n_frames=st.integers(2, 5),
    m_distance=st.integers(1, 3),
    gop_extra=st.integers(0, 4),
    qp=st.integers(1, 31),
    resync=st.booleans(),
    quant_method=st.sampled_from([1, 2]),
    search_range=st.sampled_from([2, 7, 16]),
    seed=st.integers(0, 50),
)
def test_kernel_rows_equal_the_parser_of_record(
    geometry, n_frames, m_distance, gop_extra, qp, resync, quant_method,
    search_range, seed,
):
    width, height = geometry
    encoded = encode(
        width, height, n_frames, seed, qp=qp, gop_size=m_distance + gop_extra,
        m_distance=m_distance, resync_markers=resync, quant_method=quant_method,
        search_range=search_range,
    )
    decoder = DifferentialDecoder()
    decoded = decoder.decode_sequence(encoded.data)
    assert_rows_agree(decoder)
    for got, want in zip(decoded.frames, encoded.reconstructions):
        assert got.y.tobytes() == want.y.tobytes()


@pytest.mark.parametrize("qp", [1, 2, 3])
def test_escape_heavy_streams_parse_without_bails(qp, monkeypatch):
    """Low qp codes many levels past the table, so escapes dominate."""
    encoded = encode(48, 32, 4, qp=qp, gop_size=4, m_distance=2, resync_markers=True)
    counter = BailCounter(monkeypatch)
    decoded = VopDecoder().decode_sequence(encoded.data)
    assert counter.bails == 0 and counter.parsed > 0
    for got, want in zip(decoded.frames, encoded.reconstructions):
        assert got.y.tobytes() == want.y.tobytes()
        assert got.v.tobytes() == want.v.tobytes()


def test_kernel_decode_equals_python_decode(monkeypatch):
    """Statistics tallied from the arrays and the array reconstruction
    match the parser of record's per-macroblock counts."""
    data = encode(64, 48, 7, qp=5, gop_size=6, m_distance=3, resync_markers=True).data
    with_kernel = outcome(data, tolerant=False)
    without_kernels(monkeypatch)
    assert outcome(data, tolerant=False) == with_kernel


FUZZ_CONFIGS = {
    "resync_b": dict(qp=8, gop_size=6, m_distance=3, resync_markers=True),
    "plain_m1": dict(qp=8, gop_size=4, m_distance=1),
    "escapes": dict(qp=2, gop_size=5, m_distance=2, resync_markers=True),
}


@pytest.mark.parametrize("config", sorted(FUZZ_CONFIGS))
def test_fuzzed_streams_decode_as_without_the_kernel(config, monkeypatch):
    """Fuzzed streams, whose VOPs mix kernel rows and hand-backs, decode
    with the kernel as without it: outcome, frames, statistics and the
    recorded trace."""
    pristine = encode(64, 48, 7, **FUZZ_CONFIGS[config]).data
    cases = BitstreamFuzzer(21).corpus(pristine, 4 * len(MUTATIONS))
    assert {case.mutation for case, _ in cases} == set(MUTATIONS)
    with pytest.MonkeyPatch.context() as patch:
        counter = BailCounter(patch)
        with_kernel = strict_and_tolerant(cases)
    without_kernels(monkeypatch)
    python = strict_and_tolerant(cases)
    for (case, tolerant, got), (_, _, want) in zip(with_kernel, python):
        assert got == want, (str(case), "tolerant" if tolerant else "strict")
    assert counter.bails > 0 and counter.parsed > 0


def traced_decode(data, tolerant):
    """A decode's :func:`outcome` and a digest of each column of its
    recorded trace (kernel rows come from the row emitter, every other
    row from the per-MB hooks)."""
    from repro.trace import TraceCapture, TraceRecorder

    sink = TraceCapture()
    result = outcome(data, tolerant, TraceRecorder([sink]))
    table = sink.table()
    columns = {
        name: hashlib.sha256(getattr(table, name).tobytes()).hexdigest()
        for name in ("lines", "counts", "bounds", "kinds", "alu_ops", "phase_ids")
    }
    return result, columns, table.phase_names


@pytest.mark.parametrize("discard", [{0}, {1, 2}, {0, 2}])
def test_discarding_kernel_rows_changes_nothing(discard, monkeypatch):
    """A row the kernel parsed, then handed back anyway, re-parses on the
    state the kernel already wrote (predictors, vector grid, arrays) to
    the same frames, statistics and trace batches."""
    clean = encode(48, 48, 6, qp=6, gop_size=6, m_distance=3, resync_markers=True).data
    plain = encode(48, 48, 5, qp=4, gop_size=5, m_distance=1).data
    streams = [(clean, False), (plain, False)] + [
        (data, tolerant)
        for _, data in BitstreamFuzzer(5).corpus(clean, len(MUTATIONS))
        for tolerant in (False, True)
    ]
    expected = [traced_decode(data, tolerant) for data, tolerant in streams]
    original = MacroblockRows.parse

    def parse(rows, reader, row, predictors):
        start = reader.bit_position
        done = original(rows, reader, row, predictors)
        if done and row in discard:
            reader.seek_bits(start)
            return False
        return done

    monkeypatch.setattr(MacroblockRows, "parse", parse)
    for (data, tolerant), want in zip(streams, expected):
        assert traced_decode(data, tolerant) == want


# -- hostile rows: every bail against the parser of record ----------------------


def dc_difference(rng):
    """Mostly small; now and then one that takes a DC just inside or
    just past int32, or one past BitReader's 32-bit Exp-Golomb window."""
    draw = rng.random()
    if draw < 0.04:
        return rng.choice((1, -1)) * (2**31 + rng.randint(-400, 400))
    if draw < 0.06:
        return rng.randint(-(2**34), 2**34)
    return rng.randint(-40, 40)


def vector_difference(rng):
    """Mostly small; now and then one near the reference plane's edge (a
    16-pixel border is 32 half pels), far past it, or past the window."""
    draw = rng.random()
    if draw < 0.12:
        return rng.choice((1, -1)) * rng.choice((31, 32, 33, 34, 63, 64, 65, 66))
    if draw < 0.13:
        return rng.randint(-(2**20), 2**20)
    if draw < 0.15:
        return rng.randint(-(2**34), 2**34)
    return rng.randint(-6, 6)


def block_events(rng):
    """(last, run, level) events: table codes, escapes (level 0 too),
    runs past the block, and blocks that never send LAST."""
    n_events = rng.randint(62, 66) if rng.random() < 0.15 else rng.randint(1, 4)
    events = [
        (
            0,
            rng.randint(0, 63) if rng.random() < 0.1 else rng.randint(0, 3),
            rng.randint(-4095, 4095) if rng.random() < 0.2 else rng.randint(-3, 3),
        )
        for _ in range(n_events)
    ]
    if rng.random() < 0.9:
        events[-1] = (1,) + events[-1][1:]
    return events


def write_events(writer, events):
    for last, run, level in events:
        if level:
            vlc.encode_coefficient_event(writer, last, run, level)
        else:  # only an escape carries a zero level
            vlc.COEFF_TABLE.encode(writer, vlc.ESCAPE)
            writer.write_bit(last)
            writer.write_bits(run, vlc.ESCAPE_RUN_BITS)
            writer.write_bits(0, 1 + vlc.ESCAPE_LEVEL_BITS)


@st.composite
def hostile_row(draw, vop_type, mb_cols):
    """One macroblock row's bits: valid syntax around hostile values."""
    writer = BitWriter()
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    for _ in range(mb_cols):
        kind = "intra" if vop_type is VopType.I else draw(
            st.sampled_from(["skip", "intra", "inter"])
        )
        cbp = 0 if rng.random() < 0.3 else rng.randint(1, 63)
        vlc.encode_macroblock_header(
            writer, kind == "intra", kind == "skip", cbp,
            inter_allowed=vop_type is not VopType.I,
        )
        if kind == "skip":
            continue
        if kind == "intra":
            if vop_type is VopType.I:
                writer.write_bit(draw(st.integers(0, 1)))  # ac_pred_flag
            for index in range(6):
                writer.write_se(dc_difference(rng))
                if cbp & (1 << (5 - index)):
                    write_events(writer, block_events(rng))
            continue
        if vop_type is VopType.B:
            mode = draw(st.integers(0, 3))
            writer.write_bits(mode, 2)
            n_vectors = (1, 1, 2, 0)[mode]
        else:
            n_vectors = 1
        for _ in range(2 * n_vectors):
            writer.write_se(vector_difference(rng))
        for index in range(6):
            if cbp & (1 << (5 - index)):
                write_events(writer, block_events(rng))
    data = writer.getvalue()
    cut = draw(st.sampled_from(["none", "tail", "anywhere"]))
    if cut == "tail":  # into the row's last codes
        return data[: max(0, len(data) - draw(st.integers(1, 3)))]
    if cut == "anywhere":
        return data[: draw(st.integers(0, len(data)))]
    return data + bytes(draw(st.lists(st.integers(0, 255), max_size=3)))


def row_outcome(data, vop_type, mb_cols, row, resync, above, kernel, stale):
    """Everything one call of the batched row parse leaves behind.

    ``stale`` leaves an earlier parse's arrays in the row, as when a
    damaged resync marker sends the row loop back to a row it parsed."""
    decoder = VopDecoder()
    decoder.width, decoder.height = mb_cols * 16, 2 * 16
    decoder.resync_markers = resync
    decoder.data_partitioning = decoder.reversible_vlc = False
    decoder.quant_method = 2
    past = FrameStore(decoder.width, decoder.height)
    future = FrameStore(decoder.width, decoder.height) if vop_type is VopType.B else None
    dc_preds = decoder._make_dc_predictors(vop_type)
    mv_grid = [[ZERO_MV] * mb_cols for _ in range(2)]
    with pytest.MonkeyPatch.context() as patch:
        if not kernel:
            patch.setattr(batched, "_load_parse_kernel", lambda: None)
        parsed = MacroblockRows(
            data, vop_type, 2, mb_cols, not resync, past, future, BORDER,
        )
    # The row above: DC/AC predictor state, or the vectors it decoded.
    # Vectors left in this row by an earlier parse of it (a damaged
    # resync marker can send the row loop back) must not leak into it.
    for col, (dx, dy, dc) in enumerate(above):
        if dc_preds is not None:
            for plane, r, c in (("y", 1, 2 * col + 1), ("u", 0, col)):
                if row:
                    dc_preds[plane].store(r, c, dc)
                    dc_preds[plane].store_ac(r, c, np.full(7, dx), np.full(7, dy))
            continue
        for r, (vx, vy) in ((0, (dx, dy)), (1, (dy + 1, dx - 1))):
            mv_grid[r][col] = MotionVector(vx, vy)
            if parsed.mv_grid is not None:
                parsed.mv_grid[r, col] = vx, vy
    if stale:
        parsed.info[row] = 7
        parsed.levels[row] = -3
    reader = BitReader(data)
    stats = VopStats(vop_type, 0, 0, 8)
    try:
        decoder._parse_row(
            reader, vop_type, dc_preds, mv_grid, row, past, future, past, stats,
            parsed,
        )
        result = ("parsed", reader.bit_position, parsed.info[row].tolist(),
                  parsed.levels[row].tolist())
    except Exception as error:  # the parser of record's own errors
        result = (type(error).__name__, getattr(error, "bit_position", None),
                  str(error))
    if parsed.mv_grid is not None:
        grid = parsed.mv_grid[row].tolist()
    else:
        grid = [[mv.dx, mv.dy] for mv in mv_grid[row]]
    predictors = predictor_state(dc_preds)
    return result, stats, grid if vop_type is not VopType.I else None, (
        None if predictors is None else [array.tolist() for array in predictors]
    )


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_hostile_rows_end_as_the_parser_of_record_ends_them(data):
    """Whatever a row holds -- escapes, huge vectors and DCs, runs past
    the block, blocks without LAST, B mode 3, truncation -- the batched
    row parse leaves exactly what the parser of record leaves: the same
    error at the same bit with the same partial statistics, or the same
    arrays, end bit, predictor state and vector grid."""
    vop_type = data.draw(st.sampled_from(list(VopType)))
    mb_cols = data.draw(st.integers(1, 4))
    row = data.draw(st.integers(0, 1))
    resync = data.draw(st.booleans())
    above = data.draw(st.lists(
        st.tuples(st.integers(-40, 40), st.integers(-40, 40), st.integers(-300, 300)),
        min_size=mb_cols, max_size=mb_cols,
    ))
    bits = data.draw(hostile_row(vop_type, mb_cols))
    args = (bits, vop_type, mb_cols, row, resync, above)
    with_kernel = row_outcome(*args, kernel=True, stale=data.draw(st.booleans()))
    python = row_outcome(*args, kernel=False, stale=data.draw(st.booleans()))
    event(f"{vop_type.name}: {python[0][0]}")
    assert with_kernel == python


EDGE_VECTORS = [-66, -65, -64, -63, -34, -33, -32, -31, 0, 31, 32, 33, 34, 63, 64, 65, 66]


@pytest.mark.parametrize("vop_type", [VopType.P, VopType.B])
@pytest.mark.parametrize("row", [0, 1])
def test_vectors_at_the_reference_edges(vop_type, row):
    """Each macroblock of a two-column row moves one vector component to
    just inside, onto, or just past an edge of its reference plane, in
    full and half pels: the kernel accepts exactly the vectors
    motion.compensate accepts."""
    for offset in EDGE_VECTORS:
        for horizontal in (True, False):
            writer = BitWriter()
            for _ in range(2):
                vlc.encode_macroblock_header(writer, False, False, 0, inter_allowed=True)
                if vop_type is VopType.B:
                    writer.write_bits(0, 2)  # forward only
                writer.write_se(offset if horizontal else 0)
                writer.write_se(0 if horizontal else offset)
            data = writer.getvalue()
            args = (data, vop_type, 2, row, True, [(0, 0, 0)] * 2)
            with_kernel = row_outcome(*args, kernel=True, stale=False)
            python = row_outcome(*args, kernel=False, stale=False)
            assert with_kernel == python, (offset, horizontal)
