"""Per-session seed derivation: independent child streams, no shared rng.

The hazard this module exists to prevent: a fleet builder that seeds
sessions ``seed``, ``seed+1``, ``seed+2`` ... or -- worse -- lets every
session draw from one module-level generator.  Adjacent integer seeds
feed correlated state into some generators, and a shared generator makes
every draw depend on scheduling interleaving, which destroys both
statistical independence and run-to-run determinism.

Instead, each session's entropy comes from
``numpy.random.SeedSequence(fleet_seed).spawn(n)``: the spawn tree gives
every child a provably distinct entropy pool, child ``i`` depends only on
``(fleet_seed, i)`` (growing the fleet never re-seeds existing sessions),
and every derived quantity -- arrival jitter, channel seed, scene
variant, loss rate -- is drawn from the session's own private generator,
``default_rng(child)``.

The children differ only in their spawn key ``(i,)``, so their PCG64
seed words are derived for the whole fleet in one array pass that
transcribes SeedSequence's hash-mix (:func:`_spawned_states`); NumPy
then seeds each session's generator from its row and makes the draws.
``tests/service/test_seeding.py`` holds that pass to the per-child
``SeedSequence.spawn`` loop under Hypothesis, pins the first sessions'
values at two fleet seeds as literals, and checks that adjacent fleet
seeds and adjacent sessions produce uncorrelated channel loss patterns.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "SessionSeed",
    "spawn_session_seeds",
    "channel_mask_for",
    "fault_rng",
    "retry_channel_seed",
    "backoff_jitter_u",
    "bandwidth_rng",
]

#: Entropy branch keys for the fault/recovery plane.  Each derived
#: quantity is a pure function of ``(fleet_seed, branch, session_id,
#: attempt)`` -- no process-local counters, no draw-order coupling -- so
#: a fault schedule is identical across backends and replayable from the
#: fleet seed alone (the same discipline as ``core/runner/chaos``).  The
#: branch constants keep this entropy disjoint from the session spawn
#: tree: arming faults never perturbs session identity.
_BRANCH_FAULT = 0xFA017
_BRANCH_RETRY_CHANNEL = 0x8E7C4
_BRANCH_BACKOFF = 0xB0FF5
_BRANCH_BANDWIDTH = 0xBA2D0


@dataclass(frozen=True)
class SessionSeed:
    """Entropy one session derives from its spawned child sequence.

    ``u_arrival`` and ``u_loss`` are unit-interval draws the fleet
    builder maps onto the arrival window and the loss palette; keeping
    them unitless keeps this module independent of the service config.
    """

    index: int
    u_arrival: float
    channel_seed: int
    variant_draw: int
    u_loss: float


#: ``numpy.random.SeedSequence``'s hash constants (``bit_generator.pyx``).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4  # SeedSequence's default pool, in 32-bit words
_UINT64 = np.dtype(np.uint64)


def _uint32_words(value: int) -> list[int]:
    """``value`` as SeedSequence reads an int: little-endian 32-bit words."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _mix(x, y):
    result = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _MASK32
    return result ^ (result >> 16)


def _spawned_states(fleet_seed: int, n: int) -> np.ndarray:
    """``SeedSequence(fleet_seed).spawn(n)[i].generate_state(4, np.uint64)``
    for every ``i < n``, as the rows of one ``(n, 4)`` array.

    A transcription of SeedSequence's hash-mix.  Child ``i``'s entropy is
    the fleet seed's words, zero-padded to the pool size, followed by the
    spawn key word ``i``.  Every word before the last is the same for all
    children, so the pool is mixed once on Python ints; the spawn key's
    four mixing rounds and the state generation run on arrays with one
    element per child.  The arrays are ``uint64`` so that every product of
    two 32-bit words fits before it is masked.  The hash constant
    advances once per ``hashmix`` whatever the value, so it stays a
    Python int throughout.
    """
    entropy = _uint32_words(fleet_seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    spawn_key = np.arange(n, dtype=np.uint64)
    children = [_mix(word, hashmix(spawn_key)) for word in pool]

    # generate_state(4, np.uint64): eight 32-bit words, paired low-first.
    hash_const = _INIT_B
    state = np.empty((n, 2 * _POOL_SIZE), dtype=np.uint64)
    for i in range(2 * _POOL_SIZE):
        value = children[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state[:, i] = value ^ (value >> 16)
    return state[:, 0::2] | (state[:, 1::2] << 32)


class _SpawnedState(ISeedSequence):
    """One child's precomputed ``generate_state(4, np.uint64)`` words,
    which is all :class:`numpy.random.PCG64` asks of a seed sequence."""

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL_SIZE or np.dtype(dtype) != _UINT64:
            raise ValueError("only PCG64's four uint64 state words are held")
        return self._state


def spawn_session_seeds(fleet_seed: int, n: int) -> list[SessionSeed]:
    """Derive ``n`` independent per-session seeds from one fleet seed.

    Child ``i`` is a pure function of ``(fleet_seed, i)``: spawning a
    larger fleet from the same seed reproduces every earlier session's
    entropy exactly (prefix stability), which is what makes scale sweeps
    comparable across N.

    Session ``i`` draws from ``default_rng(SeedSequence(fleet_seed)
    .spawn(n)[i])``.  The children's PCG64 seed words come from one
    array pass (:func:`_spawned_states`) instead of one ``SeedSequence``
    per child; NumPy still seeds every generator and makes every draw.
    Spawn keys of ``2**32`` and beyond take two words, so ``n`` is held
    below that.
    """
    if n < 0:
        raise ValueError("session count must be >= 0")
    if n > 2**32:
        raise ValueError("session count must be <= 2**32")
    seeds: list[SessionSeed] = []
    for index, state in enumerate(_spawned_states(fleet_seed, n)):
        rng = np.random.Generator(np.random.PCG64(_SpawnedState(state)))
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


def fault_rng(
    fleet_seed: int, session_id: int, attempt: int
) -> np.random.Generator:
    """Private generator for one ``(session, attempt)`` fault draw."""
    return np.random.default_rng(
        np.random.SeedSequence((fleet_seed, _BRANCH_FAULT, session_id, attempt))
    )


def retry_channel_seed(fleet_seed: int, session_id: int, attempt: int) -> int:
    """Fresh channel seed for a retry attempt (``attempt >= 2``).

    A retry must not replay the exact loss pattern that just destroyed
    the delivery -- a real client reconnects onto new channel state.
    Attempt 1 keeps ``SessionSpec.channel_seed`` so the no-fault path is
    byte-identical to the plain serve study.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(
            (fleet_seed, _BRANCH_RETRY_CHANNEL, session_id, attempt)
        )
    )
    return int(rng.integers(0, 2**63 - 1))


def backoff_jitter_u(fleet_seed: int, session_id: int, attempt: int) -> float:
    """Unit-interval jitter draw for one retry's backoff delay."""
    rng = np.random.default_rng(
        np.random.SeedSequence((fleet_seed, _BRANCH_BACKOFF, session_id, attempt))
    )
    return float(rng.random())


def bandwidth_rng(fleet_seed: int, session_id: int) -> np.random.Generator:
    """Private generator for one session's bandwidth random walk.

    A pure function of ``(fleet_seed, session_id)`` on its own entropy
    branch: arming a time-varying capacity profile never perturbs the
    session spawn tree, the fault plan, or the retry channels.
    """
    return np.random.default_rng(
        np.random.SeedSequence((fleet_seed, _BRANCH_BANDWIDTH, session_id))
    )


def channel_mask_for(
    channel_seed: int, loss_rate: float, n_packets: int
) -> list[bool]:
    """The Gilbert-Elliott loss mask a session's channel would draw.

    Test helper: builds a throwaway channel from the session's private
    seed so independence checks can compare raw loss patterns without
    running the full transport stack.
    """
    from repro.transport.channel import GilbertElliottChannel, profile_for_loss

    channel = GilbertElliottChannel(channel_seed, profile_for_loss(loss_rate))
    return channel.loss_mask(n_packets)
