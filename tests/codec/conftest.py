"""Codec test helpers: pin an engine, and skip where it cannot run.

The batched engine's per-sample stages run only in the plane kernel, so
where that kernel cannot be built a test that pins ``batched`` skips
with :data:`NO_PLANE_KERNEL`; the reference engine runs everywhere.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import pytest

from repro.codec.batched import sad_kernel_available
from repro.codec.engine import ENGINE_BATCHED, ENGINE_ENV, IDCT_ENV

NO_PLANE_KERNEL = "no C compiler to build the plane kernel"

#: Marks a test that needs the plane kernel.
needs_kernel = pytest.mark.skipif(not sad_kernel_available(), reason=NO_PLANE_KERNEL)


@contextmanager
def pinned_engine(engine: str, idct: str | None = None):
    """Run the block under ``REPRO_CODEC_ENGINE=engine`` (and
    ``REPRO_CODEC_IDCT=idct`` when given), restoring both after it.
    Pinning ``batched`` without the plane kernel skips the test."""
    if engine == ENGINE_BATCHED and not sad_kernel_available():
        pytest.skip(NO_PLANE_KERNEL)
    saved = {key: os.environ.get(key) for key in (ENGINE_ENV, IDCT_ENV)}
    os.environ[ENGINE_ENV] = engine
    if idct is not None:
        os.environ[IDCT_ENV] = idct
    try:
        yield
    finally:
        for key, previous in saved.items():
            if previous is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = previous
