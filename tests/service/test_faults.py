"""Fault-plan tests: determinism, draw semantics, and the corruption
model's contract with the real decoder.

The plan's whole claim is statelessness: any process computes the same
fault for the same ``(fleet_seed, session_id, attempt)`` without
coordination, and neighbouring draws are independent.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.faults import (
    FAULT_KINDS,
    FaultConfig,
    FaultPlan,
    corrupt_stream,
)

HOT = FaultConfig(intensity=1.0)


class TestFaultConfig:
    def test_defaults_are_disabled(self):
        assert not FaultConfig().enabled
        assert FaultConfig(intensity=0.1).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"intensity": -0.1},
            {"intensity": 1.5},
            {"mix": (1.0, 1.0)},
            {"mix": (-1.0, 1.0, 1.0, 1.0, 1.0)},
            {"mix": (0.0, 0.0, 0.0, 0.0, 0.0)},
            {"stall_factor_range": (5.0, 2.0)},
            {"crash_fraction_range": (-0.5, 0.5)},
            {"blackout_fatal_packets": 0},
            {"blackout_fatal_packets": 99, "blackout_max_packets": 24},
            {"blackout_start_range": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultConfig(**kwargs)

    def test_slow_stays_below_default_timeout(self):
        """The slow fault must model latency, not loss: its inflation
        range sits below the retry policies' timeout factor of 3."""
        config = FaultConfig()
        assert config.slow_factor_range[1] < 3.0


class TestFaultPlanDeterminism:
    @given(
        fleet_seed=st.integers(min_value=0, max_value=2**31),
        session_id=st.integers(min_value=0, max_value=10_000),
        attempt=st.integers(min_value=1, max_value=8),
        intensity=st.sampled_from([0.1, 0.5, 1.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_fault_is_pure_function_of_coordinates(
        self, fleet_seed, session_id, attempt, intensity
    ):
        config = FaultConfig(intensity=intensity)
        a = FaultPlan(fleet_seed, config).fault_for(session_id, attempt)
        b = FaultPlan(fleet_seed, config).fault_for(session_id, attempt)
        assert a == b

    def test_disabled_plan_never_faults(self):
        plan = FaultPlan(4, FaultConfig())
        assert not plan.enabled
        assert all(
            plan.fault_for(s, a) is None
            for s in range(64) for a in (1, 2, 3)
        )

    def test_full_intensity_always_faults(self):
        plan = FaultPlan(4, HOT)
        for session_id in range(64):
            fault = plan.fault_for(session_id, 1)
            assert fault is not None
            assert fault.kind in FAULT_KINDS

    def test_intensity_controls_fault_rate(self):
        lo = FaultPlan(4, FaultConfig(intensity=0.1))
        hi = FaultPlan(4, FaultConfig(intensity=0.7))
        n = 500
        lo_hits = sum(lo.fault_for(s, 1) is not None for s in range(n))
        hi_hits = sum(hi.fault_for(s, 1) is not None for s in range(n))
        assert lo_hits < hi_hits
        assert 0.03 * n < lo_hits < 0.2 * n
        assert 0.55 * n < hi_hits < 0.85 * n

    def test_attempts_draw_independent_outcomes(self):
        """Retries see fresh draws: across many sessions, attempt 2 must
        not mirror attempt 1 (transient-failure shape)."""
        plan = FaultPlan(4, FaultConfig(intensity=0.5))
        differs = sum(
            plan.fault_for(s, 1) != plan.fault_for(s, 2) for s in range(200)
        )
        assert differs > 50

    def test_all_kinds_reachable(self):
        plan = FaultPlan(4, HOT)
        kinds = {plan.fault_for(s, 1).kind for s in range(300)}
        assert kinds == set(FAULT_KINDS)

    def test_faults_for_session_enumerates_attempts(self):
        plan = FaultPlan(4, HOT)
        faults = plan.faults_for_session(7, max_attempts=4)
        assert [f.attempt for f in faults] == [1, 2, 3, 4]
        assert all(f.session_id == 7 for f in faults)


class TestFaultShapes:
    def plan(self):
        return FaultPlan(4, HOT)

    def collect(self, kind, count=40):
        found = []
        plan = self.plan()
        session = 0
        while len(found) < count and session < 5_000:
            fault = plan.fault_for(session, 1)
            if fault is not None and fault.kind == kind:
                found.append(fault)
            session += 1
        assert len(found) == count, f"only {len(found)} {kind} faults drawn"
        return found

    def test_crash_magnitudes_in_range(self):
        low, high = HOT.crash_fraction_range
        for fault in self.collect("crash"):
            assert low <= fault.magnitude <= high
            assert fault.fails_attempt

    def test_stall_magnitudes_in_range(self):
        low, high = HOT.stall_factor_range
        for fault in self.collect("stall"):
            assert low <= fault.magnitude <= high
            assert fault.fails_attempt

    def test_slow_faults_do_not_fail(self):
        low, high = HOT.slow_factor_range
        for fault in self.collect("slow"):
            assert low <= fault.magnitude <= high
            assert not fault.fails_attempt

    def test_blackout_windows_and_fatality(self):
        saw_fatal = saw_soft = False
        for fault in self.collect("blackout"):
            start, end = fault.window
            length = end - start
            assert 0 <= start < HOT.blackout_start_range
            assert 1 <= length <= HOT.blackout_max_packets
            fatal = length >= HOT.blackout_fatal_packets
            assert fault.fatal_blackout == fatal
            assert fault.fails_attempt == fatal
            saw_fatal |= fatal
            saw_soft |= not fatal
        assert saw_fatal and saw_soft

    def test_corrupt_always_fails(self):
        for fault in self.collect("corrupt"):
            assert fault.fails_attempt
            assert fault.magnitude == 0.0


class TestCorruptStream:
    def test_prefix_zeroed_suffix_kept(self):
        data = bytes(range(64))
        corrupted = corrupt_stream(data)
        assert len(corrupted) == len(data)
        assert corrupted[:32] == b"\x00" * 32
        assert corrupted[32:] == data[32:]

    def test_short_streams_fully_zeroed(self):
        assert corrupt_stream(b"\x01\x02") == b"\x00\x00"
        assert corrupt_stream(b"") == b""

    def test_real_decoder_rejects_corrupt_delivery(self):
        """The control plane models a corrupt delivery as *rejected*;
        hold the actual decoder to that, end to end, on a real encode."""
        from repro.codec import VopDecoder
        from repro.codec.errors import BitstreamError
        from repro.service.config import DEFAULT_CONFIG, MODE_FULL
        from repro.service.session import _encoding

        _, encoded = _encoding(0, MODE_FULL, DEFAULT_CONFIG)
        decoded = VopDecoder().decode_sequence(encoded, tolerate_errors=True)
        assert decoded is not None  # the clean stream decodes

        try:
            wrecked = VopDecoder().decode_sequence(
                corrupt_stream(encoded), tolerate_errors=True
            )
        except BitstreamError:
            wrecked = None
        assert wrecked is None or not wrecked.frames
