"""Codec engine selection: batched fast path vs per-macroblock reference.

Mirrors the simulator's ``REPRO_ENGINE`` knob (:mod:`repro.memsim.fastpath`):
the original per-macroblock encoder/decoder loops remain the *oracle*, and
the frame-level batched engine (:mod:`repro.codec.batched`, whose
per-sample stages run in the compiled plane kernel) is the fast path.
Both produce bit-identical bitstreams, reconstructions and statistics --
enforced by ``tests/codec/test_engine_differential.py`` and the committed
conformance golden vectors.

Select with the ``REPRO_CODEC_ENGINE`` environment variable::

    REPRO_CODEC_ENGINE=batched    # frame-level kernels
    REPRO_CODEC_ENGINE=reference  # per-macroblock oracle loops

Unset, a run uses ``batched`` when the plane kernel loads and
``reference`` (with a warning) when it does not, as ``REPRO_ENGINE``
resolves the simulator's engine.  An explicit ``batched`` without the
kernel raises before any output.

Separately, ``REPRO_CODEC_IDCT=fixed`` switches either engine's
reconstruction IDCT to the fixed-point factorized butterfly
(:mod:`repro.codec.fastidct`).  That mode is an approximation (integer
arithmetic, not the float reference), so it intentionally changes
bitstreams; encoder and decoder stay drift-free as long as both use it,
and the two engines stay bit-identical under it.  The default
(``float``) is the reference IDCT.
"""

from __future__ import annotations

import os
import warnings

#: Environment variable selecting the codec engine.
ENGINE_ENV = "REPRO_CODEC_ENGINE"

ENGINE_BATCHED = "batched"
ENGINE_REFERENCE = "reference"
_ENGINES = (ENGINE_BATCHED, ENGINE_REFERENCE)

#: Environment variable selecting the reconstruction IDCT.
IDCT_ENV = "REPRO_CODEC_IDCT"

IDCT_FLOAT = "float"
IDCT_FIXED = "fixed"
_IDCTS = (IDCT_FLOAT, IDCT_FIXED)


def codec_engine() -> str:
    """The name of the codec engine a run uses.

    ``REPRO_CODEC_ENGINE`` when set; unset, ``batched`` when the plane
    kernel loads and ``reference`` when it does not.  Falling back to the
    reference engine warns (once per call site); an explicit ``batched``
    with no kernel raises, so a misconfigured run fails before it writes
    anything.
    """
    # Loaded here so that importing this module stays light.
    from repro.codec import batched

    value = os.environ.get(ENGINE_ENV)
    if value is None:
        if batched.sad_kernel_available():
            return ENGINE_BATCHED
        warnings.warn(
            "C plane kernel unavailable (no compiler, or the kernel cache is "
            "not writable); falling back to the reference codec engine "
            f"(set {ENGINE_ENV}={ENGINE_REFERENCE} to silence)",
            RuntimeWarning,
            stacklevel=2,
        )
        return ENGINE_REFERENCE
    value = value.strip().lower()
    if value not in _ENGINES:
        raise ValueError(
            f"{ENGINE_ENV}={value!r} is not one of {', '.join(_ENGINES)}"
        )
    if value == ENGINE_BATCHED and not batched.sad_kernel_available():
        raise RuntimeError(batched.NO_PLANE_KERNEL)
    return value


def codec_idct() -> str:
    """The configured reconstruction IDCT (either engine)."""
    value = os.environ.get(IDCT_ENV, IDCT_FLOAT).strip().lower()
    if value not in _IDCTS:
        raise ValueError(f"{IDCT_ENV}={value!r} is not one of {', '.join(_IDCTS)}")
    return value


def codec_knobs() -> tuple[str, str]:
    """The resolved ``(engine, idct)`` pair.

    These are the knobs that can change codec output for the same input,
    so every cache of encoded bytes or decoded frames keys on them.
    """
    return codec_engine(), codec_idct()
