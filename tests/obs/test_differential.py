"""Observation must not perturb the observed system.

Telemetry is only trustworthy if switching it on changes *nothing* about
the pipeline's outputs: bitstreams stay bit-identical, decoded frames
stay equal, golden vectors (codec digests, memsim counters, resilience
curves) keep matching.  These tests run the same workloads with the
recorder on and off and diff the results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.codec.batched import sad_kernel_available
from repro.codec.bench import engine_env
from repro.codec.decoder import VopDecoder
from repro.codec.encoder import VopEncoder
from repro.codec.engine import ENGINE_BATCHED, ENGINE_REFERENCE
from repro.codec.types import CodecConfig
from repro.video import SceneSpec, SyntheticScene

WIDTH, HEIGHT, N_FRAMES = 96, 80, 5


@pytest.fixture(scope="module")
def frames():
    scene = SyntheticScene(SceneSpec.default(WIDTH, HEIGHT))
    return [scene.frame(i) for i in range(N_FRAMES)]


def encode(frames):
    config = CodecConfig(WIDTH, HEIGHT, qp=8, gop_size=4, m_distance=2)
    return VopEncoder(config).encode_sequence(frames).data


class TestBitstreamInvariance:
    @pytest.mark.parametrize("engine", [ENGINE_BATCHED, ENGINE_REFERENCE])
    def test_encode_bitstream_identical_with_obs_on(self, frames, engine):
        if engine == ENGINE_BATCHED and not sad_kernel_available():
            pytest.skip("no C compiler to build the plane kernel")
        with engine_env(engine):
            baseline = encode(frames)
            with obs.recording() as session:
                observed = encode(frames)
            assert session.tracer.completed_total > 0  # obs actually ran
        assert observed == baseline

    def test_decode_output_identical_with_obs_on(self, frames):
        data = encode(frames)
        baseline = VopDecoder().decode_sequence(data)
        with obs.recording() as session:
            observed = VopDecoder().decode_sequence(data)
        assert session.tracer.completed_total > 0
        for expected, actual in zip(baseline.frames, observed.frames):
            assert np.array_equal(expected.y, actual.y)
            assert np.array_equal(expected.u, actual.u)
            assert np.array_equal(expected.v, actual.v)


class TestMemsimInvariance:
    def test_simulated_counters_identical_with_obs_on(self, frames):
        """The work-model trace (and hence every simulated counter) must
        not see the wall-clock spans."""
        from repro.core.machines import STUDY_MACHINES
        from repro.trace.persistence import TraceCapture
        from repro.trace.recorder import TraceRecorder

        def counters():
            capture = TraceCapture()
            config = CodecConfig(WIDTH, HEIGHT, qp=8, gop_size=4, m_distance=2)
            VopEncoder(config, TraceRecorder([capture])).encode_sequence(frames)
            hierarchy = STUDY_MACHINES[0].build_hierarchy()
            for batch in capture.table():
                hierarchy.process(batch)
            return hierarchy.total

        baseline = counters()
        with obs.recording():
            observed = counters()
        assert observed == baseline


class TestGoldenVectors:
    def test_golden_vectors_pass_under_recording(self):
        """The conformance gate itself, with the recorder armed."""
        from repro.conformance.golden import check_golden

        with obs.recording() as session:
            problems = check_golden()
        assert problems == []
        assert session.tracer.completed_total > 0
