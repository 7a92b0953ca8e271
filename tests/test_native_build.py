"""The C kernels build, and the loader degrades to "no kernel" instead of
raising.

Every traced study cell, every encode and every batched decode loads a
kernel, so a kernel cache directory that cannot be created must leave
the codec and the simulator on their reference engines rather than
crash them, and an explicit request for the codec's batched engine must
fail before it writes anything.
That fallback must not hide a kernel that no longer compiles, though:
with a compiler on the machine, every kernel source has to build, export
the entry points its loader binds, and compile warning-free.
"""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

import repro
from repro.codec import CodecConfig, VopEncoder, batched
from repro.codec.bench import run_codec_benchmark
from repro.codec.engine import ENGINE_BATCHED, ENGINE_ENV, ENGINE_REFERENCE, codec_engine
from repro.native import build
from repro.native.build import CACHE_ENV, find_compiler, load_library
from repro.video import SceneSpec, SyntheticScene

#: The entry points each kernel's loader binds, by source file.
ENTRY_POINTS = {
    "codec/_sad_kernel.c": (
        "sad_full_search", "predict_mbs", "bidirectional_mbs", "quantize_blocks",
        "dequantize_blocks", "store_macroblocks",
    ),
    "codec/_parse_kernel.c": ("parse_mb_row",),
    "memsim/_fastpath_kernel.c": ("process_batch", "replay_batches"),
}

SOURCE_ROOT = Path(repro.__file__).parent

#: libm functions a kernel could reach for; no kernel links libm, so a
#: call to one would resolve only where the host process loaded it.
LIBM_NAMES = {
    "ceil", "copysign", "exp", "fabs", "floor", "fmod", "llrint", "llround",
    "log", "lrint", "lround", "nearbyint", "pow", "rint", "round", "sqrt", "trunc",
}


def missing_parent(tmp_path: Path) -> tuple[Path, type[OSError]]:
    # procfs refuses new directories, so the parent cannot be created.
    if not Path("/proc/self").exists():
        pytest.skip("needs procfs")
    return Path("/proc/nope/kc"), FileNotFoundError


def file_as_parent(tmp_path: Path) -> tuple[Path, type[OSError]]:
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return blocker / "kc", NotADirectoryError


@pytest.mark.parametrize("uncreatable", [missing_parent, file_as_parent])
def test_uncreatable_cache_means_no_kernel(uncreatable, tmp_path, monkeypatch):
    cache, error = uncreatable(tmp_path)
    with pytest.raises(error):
        cache.mkdir(parents=True, exist_ok=True)
    monkeypatch.setenv(CACHE_ENV, str(cache))
    assert load_library(batched._SAD_KERNEL_SOURCE, "sadsearch") is None
    monkeypatch.setattr(batched, "_sad_lib", None)
    monkeypatch.setattr(batched, "_sad_tried", False)
    assert batched.sad_kernel_available() is False
    monkeypatch.setattr(batched, "_parse_fn", None)
    monkeypatch.setattr(batched, "_parse_tried", False)
    assert batched.parse_kernel_available() is False
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    with pytest.warns(RuntimeWarning, match="reference codec engine"):
        assert codec_engine() == ENGINE_REFERENCE
    monkeypatch.setenv(ENGINE_ENV, ENGINE_BATCHED)
    frames = list(SyntheticScene(SceneSpec.default(32, 32)).frames(2))
    with pytest.raises(RuntimeError, match=f"{ENGINE_ENV}={ENGINE_REFERENCE}"):
        VopEncoder(CodecConfig(32, 32)).encode_sequence(frames)
    with pytest.raises(RuntimeError, match="plane kernel"):
        run_codec_benchmark(32, 32, n_frames=1, repeats=1)


def test_entry_point_table_names_every_kernel_source():
    sources = {
        path.relative_to(SOURCE_ROOT).as_posix() for path in SOURCE_ROOT.rglob("*.c")
    }
    assert sources == set(ENTRY_POINTS)


@pytest.mark.parametrize("source", sorted(ENTRY_POINTS))
def test_every_kernel_source_builds(source, tmp_path, monkeypatch):
    compiler = find_compiler()
    if compiler is None:
        pytest.skip("no C compiler: every caller runs its fallback")
    path = SOURCE_ROOT / source
    checked = subprocess.run(
        [compiler, "-Wall", "-Wextra", "-Werror", "-fsyntax-only", str(path)],
        capture_output=True, text=True, timeout=120,
    )
    assert checked.returncode == 0, checked.stderr
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "kernels"))
    lib = load_library(path, path.stem.strip("_"))
    assert lib is not None, f"{source} did not build"
    for name in ENTRY_POINTS[source]:
        assert hasattr(lib, name), f"{source} does not export {name}"


@pytest.mark.parametrize("source", sorted(ENTRY_POINTS))
def test_no_kernel_calls_libm(source, tmp_path, monkeypatch):
    if find_compiler() is None or shutil.which("nm") is None:
        pytest.skip("needs a C compiler and nm")
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "kernels"))
    path = SOURCE_ROOT / source
    assert load_library(path, path.stem.strip("_")) is not None
    (library,) = (tmp_path / "kernels").glob("*.so")
    listed = subprocess.run(
        ["nm", "-D", "--undefined-only", str(library)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    undefined = {line.split()[-1].split("@")[0] for line in listed.stdout.splitlines()}
    assert not undefined & LIBM_NAMES, sorted(undefined & LIBM_NAMES)


def test_cache_keys_on_the_compile_command(tmp_path, monkeypatch):
    """A new compiler or new flags build a new library instead of loading
    the one an older command left in the cache."""
    compiler = find_compiler()
    if compiler is None:
        pytest.skip("no C compiler: every caller runs its fallback")
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "kernels"))
    source = SOURCE_ROOT / "codec/_sad_kernel.c"
    source_bytes = source.read_bytes()
    first = build.library_path(source_bytes, "sad", compiler)
    assert build.library_path(source_bytes, "sad", str(tmp_path / "other-cc")) != first
    assert load_library(source, "sad") is not None
    assert first.exists()
    monkeypatch.setattr(build, "BUILD_FLAGS", (*build.BUILD_FLAGS, "-DFLAGS_CHANGED"))
    second = build.library_path(source_bytes, "sad", compiler)
    assert second != first
    assert load_library(source, "sad") is not None
    assert second.exists()
