"""The C kernels build, and the loader degrades to "no kernel" instead of
raising.

Every traced study cell, every encode and every batched decode loads a
kernel, so a kernel cache directory that cannot be created must leave
the callers on their NumPy and Python fallbacks rather than crash them.
That fallback must not hide a kernel that no longer compiles, though:
with a compiler on the machine, every kernel source has to build, export
the entry points its loader binds, and compile warning-free.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

import repro
from repro.codec import batched
from repro.native.build import CACHE_ENV, find_compiler, load_library

#: The entry points each kernel's loader binds, by source file.
ENTRY_POINTS = {
    "codec/_sad_kernel.c": ("sad_full_search", "compensate_blocks"),
    "codec/_parse_kernel.c": ("parse_mb_row",),
    "memsim/_fastpath_kernel.c": ("process_batch", "replay_batches"),
}

SOURCE_ROOT = Path(repro.__file__).parent


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
