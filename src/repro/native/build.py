"""Compile-once-per-digest loader for small C fast-path kernels.

The three performance-critical kernels of the reproduction -- the
memory hierarchy simulator (:mod:`repro.memsim.fastpath`), the codec's
plane kernel (:mod:`repro.codec.batched`: motion search with its
early-termination work model and half-pel refinement, traced or not, and
the texture path around the DCT matmuls: prediction, the B-VOP mix,
quantization and dequantization, and the round-clip-store into the
frame store) and its macroblock-row parser (the batched decoder's VLC
parse) -- follow the same playbook: a pure-Python/NumPy reference
implementation is the oracle, and a tiny single-file C kernel is
compiled at runtime with the system compiler for the hot path.  This
module holds the shared machinery: compiler discovery, caching keyed on
the source and the compile command, and atomic publication so
concurrent workers never load a half-written library.

When no C compiler is available, or the cache directory cannot be
created or written, :func:`load_library` returns None and every caller
falls back to its reference implementation (the simulator's and the
codec's reference engines, the batched decoder's Python row parse);
nothing in the repository *requires* a compiler.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

#: Override the kernel build cache directory (default: a per-user dir under
#: the system temp directory).
CACHE_ENV = "REPRO_KERNEL_CACHE"

#: Flags of every kernel build.  No kernel links libm, as none calls it
#: (``tests/test_native_build.py`` checks the built libraries).
# -O3 measured slower in situ: a QCIF codec op 0.20 -> 0.51-0.61 s (2-vCPU Xeon).
BUILD_FLAGS = ("-O2", "-shared", "-fPIC")

#: Loaded libraries by cache path, so repeated loads share one CDLL.
_loaded: dict[str, ctypes.CDLL | None] = {}


def cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / f"repro-fastpath-{os.getuid()}"


def find_compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def library_path(source_bytes: bytes, prefix: str, compiler: str) -> Path:
    """Where the library built from ``source_bytes`` is cached: the name
    hashes the source, the platform and the compile command (the
    compiler's path, symlinks resolved, and :data:`BUILD_FLAGS`), so a
    change to any of them builds anew."""
    key = hashlib.sha256()
    command = (os.path.realpath(compiler), *BUILD_FLAGS)
    for part in (source_bytes, sysconfig.get_platform().encode(),
                 *(word.encode() for word in command)):
        key.update(len(part).to_bytes(8, "little") + part)
    return cache_dir() / f"{prefix}-{key.hexdigest()[:16]}.so"


def _build(source: Path, out: Path, compiler: str) -> bool:
    # Build to a private name, then publish atomically so concurrent
    # replay workers never load a half-written library.
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    cmd = [compiler, *BUILD_FLAGS, str(source), "-o", str(tmp)]
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        os.replace(tmp, out)
        return True
    except (subprocess.SubprocessError, OSError):
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        return False


def load_library(source: Path, prefix: str) -> ctypes.CDLL | None:
    """Compile (if needed) and load one kernel source; None on any failure.

    Compiled libraries are cached by :func:`library_path`, so the build
    cost is paid once per kernel revision and compile command per
    machine.
    """
    compiler = find_compiler()
    if compiler is None:
        return None
    try:
        source_bytes = source.read_bytes()
    except OSError:
        return None
    so_path = library_path(source_bytes, prefix, compiler)
    key = str(so_path)
    if key in _loaded:
        return _loaded[key]
    lib: ctypes.CDLL | None = None
    try:
        if so_path.exists() or _build(source, so_path, compiler):
            lib = ctypes.CDLL(key)
    except OSError:
        lib = None
    _loaded[key] = lib
    return lib
