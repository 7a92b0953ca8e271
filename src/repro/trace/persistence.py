"""Trace capture, offline replay, and the record-once trace cache.

The study pipeline runs the instrumented codec **once** per (workload,
direction, sampling) cell, captures the event stream, and replays it into
every machine's simulated hierarchy -- the codec is by far the most
expensive stage, and its trace is machine-independent (granule streams,
see :mod:`repro.memsim.events`).  Ad-hoc capture/replay is also useful for
what-if sweeps:

.. code-block:: python

    capture = TraceCapture()
    recorder = TraceRecorder([capture])
    VopEncoder(config, recorder).encode_sequence(frames)
    capture.save("encode-720p.npz")

    replay_trace("encode-720p.npz", [machine.build_hierarchy()])

:class:`TraceCapture` is a columnar sink: like every sink it takes a
macroblock row as one table (``replay``) and a single batch alone
(``process``), and it keeps both as columns in emit order -- events in
fixed-size slabs, per-batch kinds, ALU counts and phase ids in lists.
:meth:`TraceCapture.table` folds them into one run-collapsed table, and
:func:`replay_trace` hands each sink the loaded table in one ``replay``
call.

The on-disk format is a single compressed ``.npz`` holding the columns of
a :class:`~repro.memsim.events.BatchTable` (format version 2): ``lines``
and ``counts`` (every run-collapsed event, back to back), ``bounds``
(``n + 1`` batch offsets), ``kinds``, ``alu_ops`` and ``phase_ids`` (one
per batch), ``phase_names`` (in order of first appearance, as a string
array) and ``version``.  Loading reads the arrays straight into a table.

:class:`TraceCacheStore` persists recorded runs across processes.  Entries
are keyed by a content fingerprint (see :func:`trace_fingerprint`) that
hashes the workload definition, the direction, the sampling policy, the
trace format version, the resolved codec knobs, and a digest of every
Python and C source file that can change the recorded stream (codec,
video synthesis, trace instrumentation, the study driver, the compiler
prefetch model and the event/table layout) -- so editing any
instrumented kernel automatically invalidates stale traces.
Point ``REPRO_TRACE_CACHE`` at a directory to enable it (``repro
--trace-cache`` from the CLI).
"""

from __future__ import annotations

import functools
import hashlib
import json
import mmap
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import obs
from repro.codec.engine import codec_knobs
from repro.core.runner.chaos import (
    POINT_TRACE_LOAD,
    POINT_TRACE_STORE,
    chaos_from_env,
)
from repro.ioutil import atomic_write
from repro.memsim.events import AccessBatch, BatchTable, fold_pieces

FORMAT_VERSION = 2

#: Environment variable naming the trace-cache directory (unset = disabled).
CACHE_ENV = "REPRO_TRACE_CACHE"


#: Events a capture slab holds.
SLAB_EVENTS = 1 << 19


class TraceCapture:
    """A recorder sink that keeps the recording as columns, in emit order.

    Events are copied into slabs, fixed-size int64 arrays of lines and
    counts, and each batch's event count, kind, ALU count and phase id
    into lists: a table the recorder hands over for a macroblock row
    (:meth:`replay`) and a single batch (:meth:`process`) alike.
    :meth:`table` folds the slabs into one run-collapsed
    :class:`~repro.memsim.events.BatchTable`, letting go of each slab as
    it is folded in, so the fold adds about one slab to the recording's
    memory rather than a second copy of it.
    """

    def __init__(self) -> None:
        self._clear()

    def _clear(self) -> None:
        self._slabs: list[tuple[np.ndarray, np.ndarray]] = []
        self._slab_used: list[int] = []
        self._slab_batches: list[int] = []
        self._sizes: list[int] = []
        self._kinds: list[int] = []
        self._alu_ops: list[int] = []
        self._phase_ids: list[int] = []
        self._phases: dict[str, int] = {}

    def _keep(self, lines: np.ndarray, counts: np.ndarray, n_batches: int) -> None:
        """Copy ``n_batches`` whole batches' events into the last slab,
        or into a new one when they do not fit."""
        n = lines.size
        if not self._slabs or self._slab_used[-1] + n > self._slabs[-1][0].size:
            # A slab is a private anonymous mapping of its own: the pages it
            # never touches cost nothing, and once folded in it goes back
            # to the system whatever the allocator's thresholds.
            size = max(n, SLAB_EVENTS)
            mapping = mmap.mmap(-1, 16 * size, flags=mmap.MAP_PRIVATE)
            self._slabs.append(tuple(np.frombuffer(mapping, dtype=np.int64).reshape(2, size)))
            self._slab_used.append(0)
            self._slab_batches.append(0)
        slab_lines, slab_counts = self._slabs[-1]
        at = self._slab_used[-1]
        slab_lines[at : at + n] = lines
        slab_counts[at : at + n] = counts
        self._slab_used[-1] = at + n
        self._slab_batches[-1] += n_batches

    def process(self, batch: AccessBatch) -> None:
        """Keep one batch."""
        self._keep(batch.lines, batch.counts, 1)
        self._sizes.append(batch.lines.size)
        self._kinds.append(batch.kind)
        self._alu_ops.append(batch.alu_ops)
        self._phase_ids.append(self._phases.setdefault(batch.phase, len(self._phases)))

    def replay(self, table: BatchTable) -> None:
        """Keep a table's batches (a row the recorder emitted in one call)."""
        self._keep(table.lines, table.counts, len(table))
        self._sizes.extend(np.diff(table.bounds).tolist())
        self._kinds.extend(table.kinds.tolist())
        self._alu_ops.extend(table.alu_ops.tolist())
        ids = [self._phases.setdefault(name, len(self._phases)) for name in table.phase_names]
        self._phase_ids.extend(np.take(ids, table.phase_ids).tolist())

    @property
    def n_events(self) -> int:
        return sum(self._slab_used)

    def table(self) -> BatchTable:
        """Fold the capture into one run-collapsed table, emptying it."""
        kept = self._kept()
        self._clear()
        return _fold(*kept)

    def save(self, path: str | Path) -> None:
        """Write the capture, as one table, to a compressed ``.npz``; the
        capture keeps its contents."""
        save_table(_fold(*self._kept()), path)

    def _kept(self):
        """What :func:`_fold` needs: the slabs' filled parts, the batches
        each holds, and the per-batch columns."""
        return (
            [
                (lines[:used], counts[:used])
                for (lines, counts), used in zip(self._slabs, self._slab_used)
            ],
            np.array(self._slab_batches, dtype=np.int64),
            np.array(self._sizes, dtype=np.int64),
            np.array(self._kinds, dtype=np.int64),
            np.array(self._alu_ops, dtype=np.int64),
            np.array(self._phase_ids, dtype=np.int64),
            list(self._phases),
        )


def _fold(pieces, piece_batches, sizes, kinds, alu_ops, phase_ids, phase_names) -> BatchTable:
    """A capture's table; releases each entry of ``pieces`` once folded in."""
    return BatchTable.of_columns(
        *fold_pieces(pieces, piece_batches, sizes), kinds, alu_ops, phase_ids, phase_names
    )


#: The ``.npz`` arrays of a saved :class:`~repro.memsim.events.BatchTable`.
_COLUMNS = ("lines", "counts", "bounds", "kinds", "alu_ops", "phase_ids")


def save_table(table: BatchTable, path: str | Path) -> None:
    """Write a table's columns, and its phase names in order, to ``path``."""
    np.savez_compressed(
        Path(path),
        version=np.int64(FORMAT_VERSION),
        phase_names=np.array(table.phase_names, dtype=str),
        **{name: getattr(table, name) for name in _COLUMNS},
    )


def load_trace(path: str | Path) -> BatchTable:
    """The table saved at ``path`` (no Python object per batch)."""
    with np.load(Path(path)) as archive:
        version = int(archive["version"])
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported trace format version {version}")
        return BatchTable.from_columns(
            *(archive[name] for name in _COLUMNS),
            phase_names=archive["phase_names"].tolist(),
        )


def replay_trace(path: str | Path, sinks) -> int:
    """Replay a saved trace into simulator sinks, each in one
    :meth:`replay` call; returns the number of batches replayed."""
    table = load_trace(path)
    for sink in sinks:
        sink.replay(table)
    return len(table)


# -- record-once / replay-many cache -----------------------------------------

#: Cache-entry payload files protected by content digests in meta.json.
_DIGESTED_FILES = ("trace.npz", "streams.pkl")


def _file_digest(path: Path) -> str:
    """sha256 of one cache payload file."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _meta_self_digest(body: dict) -> str:
    """Digest over the record's own fields (excluding the digest itself).

    The payload digests protect trace.npz/streams.pkl, but a bit flip in
    ``scale`` or ``footprint_bytes`` would otherwise still parse -- and
    silently skew every metric replayed from the entry.
    """
    canonical = {k: v for k, v in body.items() if k != "self_digest"}
    return hashlib.sha256(
        json.dumps(canonical, sort_keys=True).encode()
    ).hexdigest()


@dataclass
class RecordedTrace:
    """One recorded characterization run, ready to replay into machines.

    ``scale`` and ``footprint_bytes`` are recorder-side facts fixed at
    record time; ``encoded`` carries the bitstreams an encode run produced
    (empty for decode runs, whose input streams the caller already holds).
    ``batches`` is a :class:`~repro.memsim.events.BatchTable`, built once
    per recording and replayed into every machine; a batch list is
    folded into one.
    """

    batches: BatchTable
    scale: float
    footprint_bytes: int
    encoded: list

    def __post_init__(self) -> None:
        if not isinstance(self.batches, BatchTable):
            self.batches = BatchTable(self.batches)


#: Source trees whose content determines a recorded stream: the codec,
#: video synthesis, the emitters, the study driver, the compiler prefetch
#: model the emitters call, and the run collapse and stored layout.
_FINGERPRINTED_SOURCES = (
    "codec", "video", "trace", "core/study.py", "memsim/prefetch.py", "memsim/events.py",
)


def _digest_sources(package_root: Path) -> str:
    """Digest of every source file under ``package_root`` that can change
    a recorded trace."""
    digest = hashlib.sha256()
    for entry in _FINGERPRINTED_SOURCES:
        path = package_root / entry
        files = (
            sorted(f for pattern in ("*.py", "*.c") for f in path.rglob(pattern))
            if path.is_dir()
            else [path]
        )
        for source in files:
            digest.update(source.name.encode())
            digest.update(source.read_bytes())
    return digest.hexdigest()


@functools.cache
def _source_digest() -> str:
    """:func:`_digest_sources` of this package, once per process."""
    return _digest_sources(Path(__file__).resolve().parent.parent)


def trace_fingerprint(workload, direction: str, sampling, input_digest: str = "") -> str:
    """Content key for one (workload, direction, sampling) recording.

    ``workload`` is any dataclass-like object exposing the grid-cell
    fields; ``sampling`` the BandSampling policy or None; ``input_digest``
    an extra discriminator for runs whose input is not derived from the
    workload alone (decode runs keyed on their bitstreams).  The resolved
    codec knobs are part of the key: the fixed-point IDCT changes the
    batched engine's reconstructions, and with them the traced stream.
    """
    descriptor = {
        "format": FORMAT_VERSION,
        "sources": _source_digest(),
        "codec": list(codec_knobs()),
        "direction": direction,
        "workload": {
            field: getattr(workload, field)
            for field in (
                "width", "height", "n_vos", "n_layers", "n_frames",
                "target_bitrate", "frame_rate", "qp", "gop_size", "m_distance",
            )
        },
        "sampling": None
        if sampling is None
        else {
            "row_fraction": sampling.row_fraction,
            "max_vops": sampling.max_vops,
        },
        "input": input_digest,
    }
    blob = json.dumps(descriptor, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:32]


def digest_streams(encoded: list) -> str:
    """Fingerprint encoded bitstreams (decode-trace cache discriminator)."""
    return hashlib.sha256(pickle.dumps(encoded)).hexdigest()[:32]


class TraceCacheStore:
    """Directory of recorded traces keyed by content fingerprint.

    One entry is a directory ``<root>/<key>/`` holding the trace
    (``trace.npz``, the :func:`replay_trace` format), recorder metadata
    (``meta.json``), and the encode run's bitstreams (``streams.pkl``).
    Entries are published with an atomic rename so concurrent study
    processes can share a cache without locking; invalidation is purely
    key-based -- a changed source tree or workload simply hashes to a new
    key, and stale entries can be deleted at will.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    @classmethod
    def from_env(cls) -> "TraceCacheStore | None":
        """The cache named by ``REPRO_TRACE_CACHE``, or None when unset."""
        root = os.environ.get(CACHE_ENV)
        return cls(root) if root else None

    def entry_path(self, key: str) -> Path:
        return self.root / key

    def evict(self, key: str) -> None:
        """Delete one entry (no-op when absent)."""
        shutil.rmtree(self.entry_path(key), ignore_errors=True)

    def load(self, key: str) -> RecordedTrace | None:
        """Load one recording, or None on a cache miss or unreadable entry.

        Entries whose payload files fail their recorded content digests
        (bit rot, a torn copy, manual tampering) count as unreadable: the
        entry is evicted so the caller's re-recording can be stored.
        """
        entry = self.entry_path(key)
        if not entry.exists():
            obs.counter_add("trace_cache.misses")
            return None
        try:
            injector = chaos_from_env()
            if injector is not None:
                # Chaos: a transient read failure takes the same eviction
                # path a real flaky filesystem would.
                injector.maybe_io_error(POINT_TRACE_LOAD, key)
            meta = json.loads((entry / "meta.json").read_text())
            recorded_self = meta.get("self_digest")
            if recorded_self != _meta_self_digest(meta):
                raise ValueError(
                    f"meta.json self-digest mismatch (torn or corrupt record)"
                )
            digests = meta["digests"]
            for name in _DIGESTED_FILES:
                actual = _file_digest(entry / name)
                if actual != digests[name]:
                    raise ValueError(
                        f"digest mismatch for {name}: {actual} != {digests[name]}"
                    )
            batches = load_trace(entry / "trace.npz")
            with open(entry / "streams.pkl", "rb") as handle:
                encoded = pickle.load(handle)
            scale = float(meta["scale"])
            footprint_bytes = int(meta["footprint_bytes"])
        except (OSError, ValueError, KeyError, TypeError, EOFError,
                pickle.UnpicklingError):
            # Evict unreadable entries so the re-recording can be stored
            # (store() never overwrites an existing entry).
            self.evict(key)
            obs.counter_add("trace_cache.evictions")
            obs.counter_add("trace_cache.misses")
            return None
        obs.counter_add("trace_cache.hits")
        return RecordedTrace(
            batches=batches,
            scale=scale,
            footprint_bytes=footprint_bytes,
            encoded=encoded,
        )

    def store(self, key: str, recorded: RecordedTrace) -> None:
        """Persist one recording; loses gracefully to concurrent writers."""
        entry = self.entry_path(key)
        if entry.exists():
            return
        self.root.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(dir=self.root, prefix=f".{key[:8]}-"))
        try:
            injector = chaos_from_env()
            if injector is not None:
                injector.maybe_io_error(POINT_TRACE_STORE, key)
            save_table(recorded.batches, staging / "trace.npz")
            with open(staging / "streams.pkl", "wb") as handle:
                pickle.dump(recorded.encoded, handle)
            # meta.json is the entry's commit record (it carries the
            # payload digests), so it gets the atomic-write treatment and
            # is the torn-write injection point for the cache: a mangled
            # record fails to parse or fails its digests at load, evicts,
            # and the cell re-records -- never a silently wrong replay.
            body = {
                "scale": recorded.scale,
                "footprint_bytes": recorded.footprint_bytes,
                "n_batches": len(recorded.batches),
                "n_events": int(recorded.batches.lines.size),
                "digests": {
                    name: _file_digest(staging / name)
                    for name in _DIGESTED_FILES
                },
            }
            body["self_digest"] = _meta_self_digest(body)
            atomic_write(
                staging / "meta.json",
                json.dumps(body, indent=2),
                chaos_point=POINT_TRACE_STORE,
                chaos_key=f"{key}/meta",
            )
            os.replace(staging, entry)
            obs.counter_add("trace_cache.stores")
        except OSError:
            shutil.rmtree(staging, ignore_errors=True)
