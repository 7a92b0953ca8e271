"""The C kernel loader degrades to "no kernel" instead of raising.

Every traced study cell and every encode loads the search kernel, so a
kernel cache directory that cannot be created must leave the callers on
their NumPy fallbacks rather than crash them.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.codec import batched
from repro.native.build import CACHE_ENV, load_library


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
    monkeypatch.setattr(batched, "_sad_fn", None)
    monkeypatch.setattr(batched, "_sad_tried", False)
    assert batched.sad_kernel_available() is False
