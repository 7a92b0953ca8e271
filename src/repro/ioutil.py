"""Atomic artifact writes shared by every persistence path.

The study pipeline persists many small artifacts -- run manifests, golden
vectors, benchmark JSON, rendered tables -- and a crash (or an injected
chaos fault) mid-``write()`` must never leave a half-written file where a
reader expects a whole one.  :func:`atomic_write` gives every caller the
same discipline the trace cache already uses for its entry directories:
write to a same-directory temporary file, ``fsync`` it, then publish with
an atomic ``os.replace``.  Readers see either the old content or the new
content, never a torn mixture.

Chaos integration: callers that name an injection point (``chaos_point``)
route their payload through the active :mod:`repro.core.runner.chaos`
injector, which may raise a transient ``OSError`` or mangle the bytes (a
simulated torn/bit-rotted write that *survives* the rename).  Content
digests recorded next to the payload are therefore computed from the
in-memory bytes, so a mangled artifact is detected at read-back.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

from repro.core.runner.chaos import chaos_from_env

__all__ = ["atomic_write", "sha256_hex"]


def sha256_hex(data: bytes) -> str:
    """Content digest used by manifest/cache readers to verify payloads."""
    return hashlib.sha256(data).hexdigest()


def atomic_write(
    path: str | Path,
    data: bytes | str,
    *,
    fsync: bool = True,
    chaos_point: str | None = None,
    chaos_key: str = "",
) -> None:
    """Atomically publish ``data`` at ``path`` (tmp + fsync + rename).

    ``chaos_point``/``chaos_key`` name this write for the fault injector:
    an injected I/O error raises ``OSError`` before anything is written,
    and an injected torn write mangles the published bytes (callers that
    record a digest of the intended bytes will catch it at read-back).
    """
    target = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    if chaos_point is not None:
        injector = chaos_from_env()
        if injector is not None:
            injector.maybe_io_error(chaos_point, chaos_key)
            data = injector.mangle_bytes(chaos_point, chaos_key, data)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
