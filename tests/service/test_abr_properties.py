"""Property suite: ABR controller laws under randomized ladders/channels.

Hypothesis drives synthetic rendition ladders and piecewise-constant
capacity traces through ``simulate_abr_session`` and asserts the laws
the study rests on:

- **determinism** -- the same (ladder, trace, policy) inputs reproduce
  the identical session trace;
- **monotonicity** -- in steady state, more bandwidth never selects a
  lower rendition;
- **hysteresis** -- at most one switch per dwell window (consecutive
  switch timestamps are at least ``dwell_vms`` apart);
- **buffer conservation** -- fill - drain - rebuffer closes exactly:
  ``download == startup + played + rebuffer`` and ``fill == played +
  final_buffer``.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service.abr import (
    ABR_POLICIES,
    ABR_POLICY_LADDER,
    RenditionTrack,
    select_initial_rung,
    simulate_abr_session,
)
from repro.transport.bandwidth import BandwidthTrace

SEGMENT_VMS = 40.0


def build_tracks(rates, n_segments):
    return tuple(
        RenditionTrack(
            name=f"r{i}",
            nominal_kbps=rate,
            segment_bits=tuple([max(1, int(rate * SEGMENT_VMS))] * n_segments),
            segment_psnr_db=tuple([18.0 + 4.0 * i] * n_segments),
        )
        for i, rate in enumerate(rates)
    )


#: Strictly increasing ladder rates in kbit/s.
ladders = st.lists(
    st.floats(min_value=0.5, max_value=64.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=5, unique=True,
).map(lambda rates: tuple(sorted(round(r, 3) for r in rates)))

#: Piecewise-constant capacity: 1-6 segments over a 320 vms horizon.
capacity_traces = st.lists(
    st.floats(min_value=0.5, max_value=80.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=6,
).map(
    lambda levels: BandwidthTrace(tuple(
        (round(i * 320.0 / len(levels), 3), round(level, 3))
        for i, level in enumerate(levels)
    ))
)

policies = st.sampled_from(ABR_POLICY_LADDER)
segment_counts = st.integers(min_value=1, max_value=12)
loss_rates = st.sampled_from([0.0, 0.01, 0.05, 0.2])


@settings(max_examples=60, deadline=None)
@given(ladders, capacity_traces, policies, segment_counts, loss_rates)
def test_determinism(rates, trace, policy_name, n_segments, loss):
    tracks = build_tracks(rates, n_segments)
    policy = ABR_POLICIES[policy_name]
    a = simulate_abr_session(7, tracks, trace, policy, loss_rate=loss)
    b = simulate_abr_session(7, tracks, trace, policy, loss_rate=loss)
    assert a == b


@settings(max_examples=60, deadline=None)
@given(
    ladders,
    st.floats(min_value=0.5, max_value=80.0,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=40.0,
              allow_nan=False, allow_infinity=False),
    policies,
)
# The slower channel starts a rung lower and fills its buffer faster.
@example(
    rates=(13.0, 23.282, 31.246, 56.289),
    capacity=26.298567242863523,
    extra=2.36292666034502,
    policy_name="buffer",
)
def test_monotonicity_in_steady_state(rates, capacity, extra, policy_name):
    """More bandwidth never selects a lower rendition: both the initial
    pick and the steady-state (final) rung are monotone in capacity."""
    tracks = build_tracks(rates, 10)
    policy = ABR_POLICIES[policy_name]
    lo, hi = capacity, capacity + extra
    assert select_initial_rung(tracks, lo, policy.safety) \
        <= select_initial_rung(tracks, hi, policy.safety)
    slow = simulate_abr_session(
        0, tracks, BandwidthTrace(((0.0, lo),)), policy
    )
    fast = simulate_abr_session(
        0, tracks, BandwidthTrace(((0.0, hi),)), policy
    )
    assert slow.rungs[-1] <= fast.rungs[-1]


@settings(max_examples=60, deadline=None)
@given(ladders, capacity_traces, policies, segment_counts, loss_rates)
def test_hysteresis_bound(rates, trace, policy_name, n_segments, loss):
    """At most one switch per dwell window."""
    tracks = build_tracks(rates, n_segments)
    policy = ABR_POLICIES[policy_name]
    result = simulate_abr_session(0, tracks, trace, policy, loss_rate=loss)
    assert len(result.switch_vms) == result.n_switches
    for earlier, later in zip(result.switch_vms, result.switch_vms[1:]):
        assert later - earlier >= policy.dwell_vms - 1e-6


@settings(max_examples=60, deadline=None)
@given(ladders, capacity_traces, policies, segment_counts, loss_rates,
       st.booleans())
def test_buffer_conservation(rates, trace, policy_name, n_segments, loss,
                             rescue):
    """fill - drain - rebuffer closes exactly, rescued or not."""
    tracks = build_tracks(rates, n_segments)
    policy = ABR_POLICIES[policy_name]
    result = simulate_abr_session(
        0, tracks, trace, policy, loss_rate=loss,
        pin_rung=0 if rescue else None,
    )
    assert result.accounting_closes(eps=1e-6)
    assert result.fill_vms == n_segments * SEGMENT_VMS
    assert result.startup_vms >= 0
    assert result.played_vms >= 0
    assert result.rebuffer_vms >= 0
    assert result.final_buffer_vms >= -1e-6
    assert len(result.rungs) == n_segments
    assert all(0 <= rung < len(tracks) for rung in result.rungs)
