"""Per-session seeding: independence, prefix stability, no shared rng.

The regression this file exists for: a fleet that seeds sessions from
adjacent integers, or worse from one shared module-level generator,
produces correlated loss patterns across sessions and
interleaving-dependent results.  Sessions must derive independent child
seeds via ``SeedSequence.spawn``.

``spawn_session_seeds`` computes the children's PCG64 seed words in one
array pass; :func:`reference_seeds`, the per-child ``SeedSequence.spawn``
+ ``default_rng`` loop, is its oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service.config import DEFAULT_CONFIG
from repro.service.seeding import (
    SessionSeed,
    channel_mask_for,
    spawn_session_seeds,
)
from repro.service.session import SessionSpec, build_fleet
from repro.transport.channel import GilbertElliottChannel, profile_for_loss


def reference_seeds(fleet_seed: int, n: int) -> list[SessionSeed]:
    """Session ``i`` draws from ``default_rng(SeedSequence(fleet_seed)
    .spawn(n)[i])``: four draws, in this order."""
    seeds = []
    root = np.random.SeedSequence(fleet_seed)
    for index, child in enumerate(root.spawn(n)):
        rng = np.random.default_rng(child)
        seeds.append(
            SessionSeed(
                index=index,
                u_arrival=float(rng.random()),
                channel_seed=int(rng.integers(0, 2**63 - 1)),
                variant_draw=int(rng.integers(0, 2**31 - 1)),
                u_loss=float(rng.random()),
            )
        )
    return seeds


def seed_literal(seed: SessionSeed) -> tuple:
    return (seed.index, seed.u_arrival.hex(), seed.channel_seed,
            seed.variant_draw, seed.u_loss.hex())


#: The first four sessions' entropy, recorded from the per-child
#: ``SeedSequence.spawn`` loop: ``(index, u_arrival.hex(), channel_seed,
#: variant_draw, u_loss.hex())``.
PINNED_SEEDS = {
    4: [
        (0, "0x1.ce9cc6427f725p-1", 2219020882548878110, 447316096,
         "0x1.a311566886a66p-1"),
        (1, "0x1.f4763e77e16d8p-1", 9066174618072498991, 636727652,
         "0x1.25c05b6674b8ap-1"),
        (2, "0x1.5b21ba637bcb0p-4", 6595703016263719541, 437736196,
         "0x1.0793a2ccb040cp-2"),
        (3, "0x1.6958cecfc9367p-1", 2851153045692395809, 244433406,
         "0x1.015dc3cf67d30p-1"),
    ],
    2**64 + 7: [
        (0, "0x1.d37ae65296c14p-3", 3074850237265589864, 528476023,
         "0x1.d46e5740eb790p-3"),
        (1, "0x1.43e9c45fe4428p-2", 6439093550810092430, 311435028,
         "0x1.141ae6e166a95p-1"),
        (2, "0x1.9b365776c0e3ap-2", 8508304375517950716, 47856807,
         "0x1.cdda336a93c9ep-1"),
        (3, "0x1.a990403d5572dp-1", 6199880749355730846, 995280956,
         "0x1.4d14656049aecp-1"),
    ],
}


def _mask_correlation(a: list[bool], b: list[bool]) -> float:
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.std() == 0 or y.std() == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


class TestSpawn:
    def test_deterministic(self):
        assert spawn_session_seeds(4, 8) == spawn_session_seeds(4, 8)

    def test_child_seeds_distinct(self):
        seeds = spawn_session_seeds(4, 200)
        assert len({s.channel_seed for s in seeds}) == 200

    def test_prefix_stable_under_fleet_growth(self):
        """Session i keeps its identity whatever the fleet size is."""
        small = spawn_session_seeds(4, 10)
        large = spawn_session_seeds(4, 1000)
        assert large[:10] == small

    def test_distinct_fleet_seeds_diverge(self):
        a = spawn_session_seeds(4, 16)
        b = spawn_session_seeds(5, 16)
        assert all(x.channel_seed != y.channel_seed for x, y in zip(a, b))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_session_seeds(4, -1)

    def test_negative_fleet_seed_rejected(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence(-1)
        with pytest.raises(ValueError):
            spawn_session_seeds(-1, 4)

    def test_two_word_spawn_keys_rejected(self):
        """Spawn key ``2**32`` takes two words; no fleet gets that far."""
        with pytest.raises(ValueError, match="2\\*\\*32"):
            spawn_session_seeds(4, 2**32 + 1)


#: SeedSequence splits an int into 32-bit words: the edges of one, two,
#: three and five words.
WORD_EDGES = (0, 2**32 - 1, 2**32, 2**64, 2**128)


class TestAgainstSeedSequence:
    """The one-pass derivation makes the reference loop's draws."""

    @pytest.mark.parametrize("fleet_seed", [*WORD_EDGES, 4, 2**200 + 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 17, 1000])
    def test_word_edges(self, fleet_seed, n):
        assert spawn_session_seeds(fleet_seed, n) == \
            reference_seeds(fleet_seed, n)

    @given(
        st.integers(min_value=0, max_value=2**200 - 1),
        st.sampled_from([0, 1, 2, 17, 1000]),
    )
    @settings(max_examples=40, deadline=None)
    @example(fleet_seed=2**128 - 1, n=17)
    @example(fleet_seed=2**96 + 1, n=2)
    def test_random_fleet_seeds(self, fleet_seed, n):
        assert spawn_session_seeds(fleet_seed, n) == \
            reference_seeds(fleet_seed, n)

    @pytest.mark.parametrize("fleet_seed", sorted(PINNED_SEEDS))
    def test_pinned_values(self, fleet_seed):
        assert [seed_literal(s) for s in spawn_session_seeds(fleet_seed, 4)] \
            == PINNED_SEEDS[fleet_seed]


class TestLossPatternIndependence:
    """Adjacent seeds must not produce correlated channels."""

    N_PACKETS = 4000
    LOSS = 0.05

    def test_adjacent_fleet_seeds_uncorrelated(self):
        """Fleets seeded 4 and 5: same session index, independent loss."""
        a = spawn_session_seeds(4, 4)
        b = spawn_session_seeds(5, 4)
        for x, y in zip(a, b):
            mask_a = channel_mask_for(x.channel_seed, self.LOSS, self.N_PACKETS)
            mask_b = channel_mask_for(y.channel_seed, self.LOSS, self.N_PACKETS)
            assert mask_a != mask_b
            assert abs(_mask_correlation(mask_a, mask_b)) < 0.1

    def test_adjacent_sessions_uncorrelated(self):
        """Sessions i and i+1 of one fleet: independent loss patterns."""
        seeds = spawn_session_seeds(4, 8)
        for x, y in zip(seeds, seeds[1:]):
            mask_a = channel_mask_for(x.channel_seed, self.LOSS, self.N_PACKETS)
            mask_b = channel_mask_for(y.channel_seed, self.LOSS, self.N_PACKETS)
            assert mask_a != mask_b
            assert abs(_mask_correlation(mask_a, mask_b)) < 0.1

    def test_channels_are_isolated_not_shared(self):
        """Interleaving two sessions' channel draws must not change either
        stream -- the failure mode of a shared module-level rng."""
        seeds = spawn_session_seeds(4, 2)
        profile = profile_for_loss(self.LOSS)

        sequential = [
            GilbertElliottChannel(s.channel_seed, profile).loss_mask(400)
            for s in seeds
        ]
        chan_a = GilbertElliottChannel(seeds[0].channel_seed, profile)
        chan_b = GilbertElliottChannel(seeds[1].channel_seed, profile)
        interleaved_a: list[bool] = []
        interleaved_b: list[bool] = []
        for _ in range(40):  # alternate draws, 10 packets at a time
            interleaved_a.extend(chan_a.loss_mask(10))
            interleaved_b.extend(chan_b.loss_mask(10))
        assert [interleaved_a, interleaved_b] == sequential


class TestBuildFleet:
    def test_sorted_by_arrival(self):
        specs = build_fleet(4, 64, DEFAULT_CONFIG)
        arrivals = [s.arrival_vms for s in specs]
        assert arrivals == sorted(arrivals)
        assert {s.session_id for s in specs} == set(range(64))

    def test_draws_within_domains(self):
        config = DEFAULT_CONFIG
        for spec in build_fleet(7, 128, config):
            assert 0.0 <= spec.arrival_vms < config.arrival_window_vms
            assert 0 <= spec.scene_variant < config.scene_variants
            assert spec.loss_rate in config.loss_palette

    def test_fleet_uses_all_variants_and_losses(self):
        config = DEFAULT_CONFIG
        specs = build_fleet(4, 128, config)
        assert {s.scene_variant for s in specs} == set(range(config.scene_variants))
        assert {s.loss_rate for s in specs} == set(config.loss_palette)

    def test_pinned_snapshot(self):
        """Derived identity at fleet seed 4 is pinned: a change here means
        every published fleet digest silently re-keys."""
        assert build_fleet(4, 3, DEFAULT_CONFIG) == [
            SessionSpec(session_id=2, fleet_seed=4, arrival_vms=84.748962,
                        channel_seed=6595703016263719541, scene_variant=0,
                        loss_rate=0.01),
            SessionSpec(session_id=0, fleet_seed=4, arrival_vms=903.539844,
                        channel_seed=2219020882548878110, scene_variant=0,
                        loss_rate=0.05),
            SessionSpec(session_id=1, fleet_seed=4, arrival_vms=977.46463,
                        channel_seed=9066174618072498991, scene_variant=0,
                        loss_rate=0.03),
        ]
