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

The on-disk format is a single compressed ``.npz``: three flat arrays
(granule, count, and a packed kind/phase/alu stream index) plus the batch
boundaries and a phase-name table -- compact and portable.

:class:`TraceCacheStore` persists recorded runs across processes.  Entries
are keyed by a content fingerprint (see :func:`trace_fingerprint`) that
hashes the workload definition, the direction, the sampling policy, the
trace format version, the resolved codec knobs, and a digest of every
Python and C source file that can change the emitted stream (codec,
video synthesis, trace instrumentation, and the study driver) -- so
editing any instrumented kernel automatically invalidates stale traces.
Point ``REPRO_TRACE_CACHE`` at a directory to enable it (``repro
--trace-cache`` from the CLI).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import obs
from repro.codec.engine import codec_knobs
from repro.ioutil import atomic_write
from repro.memsim.events import AccessBatch, BatchTable

FORMAT_VERSION = 1

#: Environment variable naming the trace-cache directory (unset = disabled).
CACHE_ENV = "REPRO_TRACE_CACHE"


class TraceCapture:
    """A recorder sink that accumulates batches for saving."""

    def __init__(self) -> None:
        self.batches: list[AccessBatch] = []

    def process(self, batch: AccessBatch) -> None:
        self.batches.append(batch)

    @property
    def n_events(self) -> int:
        return sum(batch.n_events for batch in self.batches)

    def save(self, path: str | Path) -> None:
        """Write all captured batches to a compressed ``.npz``."""
        phases = sorted({batch.phase for batch in self.batches})
        phase_index = {phase: i for i, phase in enumerate(phases)}
        lines = (
            np.concatenate([b.lines for b in self.batches])
            if self.batches
            else np.zeros(0, dtype=np.int64)
        )
        counts = (
            np.concatenate([b.counts for b in self.batches])
            if self.batches
            else np.zeros(0, dtype=np.int64)
        )
        boundaries = np.cumsum([b.n_events for b in self.batches], dtype=np.int64)
        kinds = np.array([b.kind for b in self.batches], dtype=np.int8)
        batch_phases = np.array(
            [phase_index[b.phase] for b in self.batches], dtype=np.int32
        )
        alu = np.array([b.alu_ops for b in self.batches], dtype=np.int64)
        np.savez_compressed(
            Path(path),
            version=np.int64(FORMAT_VERSION),
            lines=lines,
            counts=counts,
            boundaries=boundaries,
            kinds=kinds,
            phases=batch_phases,
            alu=alu,
            phase_names=np.array(phases, dtype=object),
        )


def load_trace(path: str | Path):
    """Yield the :class:`AccessBatch` stream stored at ``path``."""
    with np.load(Path(path), allow_pickle=True) as archive:
        version = int(archive["version"])
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported trace format version {version}")
        lines = archive["lines"]
        counts = archive["counts"]
        boundaries = archive["boundaries"]
        kinds = archive["kinds"]
        phases = archive["phases"]
        alu = archive["alu"]
        phase_names = list(archive["phase_names"])
    start = 0
    for index, end in enumerate(boundaries.tolist()):
        yield AccessBatch(
            int(kinds[index]),
            lines[start:end],
            counts[start:end],
            phase=str(phase_names[int(phases[index])]),
            alu_ops=int(alu[index]),
        )
        start = end


def replay_trace(path: str | Path, sinks) -> int:
    """Replay a saved trace into simulator sinks; returns batches replayed."""
    count = 0
    for batch in load_trace(path):
        for sink in sinks:
            sink.process(batch)
        count += 1
    return count


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
    per recording and replayed into every machine.
    """

    batches: BatchTable
    scale: float
    footprint_bytes: int
    encoded: list


_source_digest_cache: str | None = None

#: Source trees whose content determines the emitted event stream.
_FINGERPRINTED_SOURCES = ("codec", "video", "trace", "core/study.py")


def _source_digest() -> str:
    """Digest of every source file that can change a recorded trace."""
    global _source_digest_cache
    if _source_digest_cache is None:
        package_root = Path(__file__).resolve().parent.parent
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
        _source_digest_cache = digest.hexdigest()
    return _source_digest_cache


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
        # Imported here: repro.core imports this module while it loads.
        from repro.core.runner.chaos import POINT_TRACE_LOAD, chaos_from_env

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
            batches = BatchTable(load_trace(entry / "trace.npz"))
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
        from repro.core.runner.chaos import POINT_TRACE_STORE, chaos_from_env

        entry = self.entry_path(key)
        if entry.exists():
            return
        self.root.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(dir=self.root, prefix=f".{key[:8]}-"))
        try:
            injector = chaos_from_env()
            if injector is not None:
                injector.maybe_io_error(POINT_TRACE_STORE, key)
            capture = TraceCapture()
            capture.batches = recorded.batches
            capture.save(staging / "trace.npz")
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
                "n_events": capture.n_events,
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
