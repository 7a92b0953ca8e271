"""Overhead guard: with ``REPRO_OBS`` off, instrumentation is near-free.

The contract is <2% added wall time on the batched encode path.  Timing
two full encodes against each other is noise-dominated at test scale, so
the guard is built from stable quantities instead:

1. count how many facade calls one encode actually makes (recorded run);
2. measure the per-call cost of the *disabled* facade path directly;
3. assert (calls x per-call cost) stays under 2% of the encode time.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.codec.batched import sad_kernel_available
from repro.codec.bench import engine_env
from repro.codec.encoder import VopEncoder
from repro.codec.engine import ENGINE_BATCHED
from repro.codec.types import CodecConfig
from repro.video import SceneSpec, SyntheticScene

WIDTH, HEIGHT, N_FRAMES = 176, 144, 8
OVERHEAD_BUDGET = 0.02

#: The batched engine exists only with the plane kernel.
needs_kernel = pytest.mark.skipif(
    not sad_kernel_available(), reason="no C compiler to build the plane kernel"
)


@pytest.fixture(autouse=True)
def obs_disabled(monkeypatch):
    monkeypatch.delenv(obs.OBS_ENV, raising=False)
    obs.reset()
    yield
    obs.reset()


def _encode(frames):
    config = CodecConfig(WIDTH, HEIGHT, qp=8, gop_size=4, m_distance=2)
    return VopEncoder(config).encode_sequence(frames)


@needs_kernel
def test_disabled_span_overhead_under_two_percent():
    scene = SyntheticScene(SceneSpec.default(WIDTH, HEIGHT))
    frames = [scene.frame(i) for i in range(N_FRAMES)]

    with engine_env(ENGINE_BATCHED):
        _encode(frames)  # warm caches/imports outside the timed region
        start = time.perf_counter()
        _encode(frames)
        encode_seconds = time.perf_counter() - start

        with obs.recording() as session:
            _encode(frames)
        spans_per_encode = session.tracer.completed_total
    assert spans_per_encode > 0

    # Disabled-path unit cost, averaged over enough calls to be stable.
    calls = 50_000
    assert not obs.enabled()
    start = time.perf_counter()
    for _ in range(calls):
        with obs.span("overhead.probe"):
            pass
    per_call = (time.perf_counter() - start) / calls

    overhead = per_call * spans_per_encode
    assert overhead < OVERHEAD_BUDGET * encode_seconds, (
        f"disabled obs costs {overhead * 1e6:.1f}us per encode "
        f"({spans_per_encode} spans x {per_call * 1e9:.0f}ns) against a "
        f"{encode_seconds * 1e3:.1f}ms encode"
    )


def test_disabled_counter_path_is_cheap():
    calls = 50_000
    start = time.perf_counter()
    for _ in range(calls):
        obs.counter_add("overhead.probe")
    per_call = (time.perf_counter() - start) / calls
    assert per_call < 2e-6  # generous: a no-op call must stay sub-2us


@needs_kernel
def test_span_count_is_bounded_per_encode():
    """The hot layers emit stage-level spans, not per-MB spans: a QCIF
    encode must stay in the hundreds, or the 'cheap when on' promise and
    the ring-buffer sizing both break."""
    scene = SyntheticScene(SceneSpec.default(WIDTH, HEIGHT))
    frames = [scene.frame(i) for i in range(N_FRAMES)]
    with engine_env(ENGINE_BATCHED):
        with obs.recording() as session:
            _encode(frames)
    assert session.tracer.completed_total < 200
