"""End-to-end characterization runs (the study itself).

A :class:`Workload` describes one cell of the paper's experimental grid:
resolution x number of VOs x number of VOLs, 30 frames at 30 Hz with a
38400 bit/s target rate (paper Section 3.1).  :func:`characterize_encode`
and :func:`characterize_decode` return the paper's metrics per machine,
plus per-phase breakdowns for the Table 8 burstiness experiment.

The pipeline is **record once, replay many**: the instrumented codec runs
a single time per cell with a :class:`~repro.trace.persistence.TraceCapture`
sink (traces are machine-independent granule streams), and the captured
batch stream is then replayed into each machine's simulated hierarchy.
Replays across machines are independent, so :func:`replay_into_machines`
fans them out over a process pool when ``REPRO_JOBS`` (or the ``jobs``
argument) asks for more than one worker; results keep the machine tuple's
order regardless of completion order.  When ``REPRO_TRACE_CACHE`` names a
directory, recordings persist across processes keyed by content
fingerprint -- see :mod:`repro.trace.persistence`.

Multi-VO scenes follow the paper's setup: "the single-object input
becom[es] a subset of the multiple-object input" -- the 1-VO workload is
the full composited frame as one rectangular VO; the 3-VO workload codes
that same full-frame VO plus the two moving foreground objects as
arbitrary-shape VOs in their own (MB-aligned) bounding boxes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.codec.decoder import VopDecoder
from repro.codec.encoder import EncodedSequence, VopEncoder
from repro.codec.scalability import ScalableDecoder, ScalableEncoded, ScalableEncoder
from repro.codec.types import CodecConfig
from repro.core.machines import STUDY_MACHINES, MachineSpec
from repro.core.metrics import MetricReport, compute_report
from repro.core.runner.supervisor import RetryPolicy, SupervisedPool, WorkerBudget
from repro.memsim.events import BatchTable
from repro.trace.persistence import (
    RecordedTrace,
    TraceCacheStore,
    TraceCapture,
    digest_streams,
    trace_fingerprint,
)
from repro.trace.recorder import BandSampling, TraceRecorder
from repro.video.synthesis import SceneSpec, SyntheticScene
from repro.video.yuv import YuvFrame

#: The paper's target bitrate (bits/s) and frame rate.
PAPER_BITRATE = 38_400
PAPER_FRAME_RATE = 30.0

#: Environment variable setting the replay worker count (default 1).
JOBS_ENV = "REPRO_JOBS"

#: Environment variable for the per-replay wall-clock budget (seconds).
REPLAY_BUDGET_ENV = "REPRO_REPLAY_BUDGET"
DEFAULT_REPLAY_BUDGET_S = 900.0


def replay_budget() -> float:
    """Per-machine replay wall budget from ``REPRO_REPLAY_BUDGET``."""
    raw = os.environ.get(REPLAY_BUDGET_ENV)
    if raw is None:
        return DEFAULT_REPLAY_BUDGET_S
    try:
        return float(raw)
    except ValueError as error:
        raise ValueError(
            f"{REPLAY_BUDGET_ENV} must be a number of seconds, got {raw!r}"
        ) from error


class StudyCellError(RuntimeError):
    """One cell of the experimental grid failed even after its retry.

    Table drivers catch this to report a partial table instead of
    aborting the whole artifact; the original failure is chained.
    """

    def __init__(self, workload: "Workload", direction: str, error: BaseException) -> None:
        super().__init__(
            f"{direction} cell '{workload.name}' failed after retry: {error!r}"
        )
        self.workload = workload
        self.direction = direction
        self.error = error


def default_jobs() -> int:
    """Replay parallelism from ``REPRO_JOBS`` (1 = in-process, sequential)."""
    raw = os.environ.get(JOBS_ENV, "1")
    try:
        jobs = int(raw)
    except ValueError as error:
        raise ValueError(f"{JOBS_ENV} must be an integer, got {raw!r}") from error
    return max(1, jobs)


@dataclass(frozen=True)
class Workload:
    """One cell of the experimental grid."""

    name: str
    width: int
    height: int
    n_vos: int = 1
    n_layers: int = 1
    n_frames: int = 30
    target_bitrate: int = PAPER_BITRATE
    frame_rate: float = PAPER_FRAME_RATE
    qp: int = 10
    gop_size: int = 12
    m_distance: int = 3

    def __post_init__(self) -> None:
        if self.n_vos not in (1, 3):
            raise ValueError("the study uses 1 or 3 visual objects")
        if self.n_layers not in (1, 2):
            raise ValueError("the study uses 1 or 2 layers")

    @property
    def label(self) -> str:
        return f"{self.width}x{self.height}, {self.n_vos} VO(s), {self.n_layers} layer(s)"


@dataclass
class VoInput:
    """Everything needed to encode one visual object."""

    vo_id: int
    config: CodecConfig
    frames: list[YuvFrame]
    masks: list[np.ndarray] | None


@dataclass
class StudyResult:
    """Per-machine metric reports for one (workload, direction) run."""

    workload: Workload
    direction: str  # "encode" | "decode"
    reports: dict[str, MetricReport]
    phase_reports: dict[str, dict[str, MetricReport]]
    scale: float
    footprint_bytes: int
    encoded: list = field(default_factory=list)
    raw_counters: dict = field(default_factory=dict)  # machine label -> counters

    def report_for(self, machine: MachineSpec) -> MetricReport:
        return self.reports[machine.label]


def _mb_align(value: int, granularity: int) -> int:
    return (value + granularity - 1) // granularity * granularity


def _bounding_box(masks: list[np.ndarray], granularity: int) -> tuple[int, int, int, int]:
    """MB-aligned union bounding box (y0, x0, h, w) of a mask sequence."""
    union = np.zeros_like(masks[0], dtype=bool)
    for mask in masks:
        union |= mask != 0
    if not union.any():
        return 0, 0, granularity, granularity
    rows = np.flatnonzero(union.any(axis=1))
    cols = np.flatnonzero(union.any(axis=0))
    height, width = union.shape
    y0 = rows[0] // granularity * granularity
    x0 = cols[0] // granularity * granularity
    y1 = min(_mb_align(rows[-1] + 1, granularity), height)
    x1 = min(_mb_align(cols[-1] + 1, granularity), width)
    # Clamp the box inside the frame while keeping granularity.
    h = max(granularity, y1 - y0)
    w = max(granularity, x1 - x0)
    if y0 + h > height:
        y0 = height - h
    if x0 + w > width:
        x0 = width - w
    return int(y0), int(x0), int(h), int(w)


def build_workload_inputs(workload: Workload) -> list[VoInput]:
    """Synthesize the scene and split it into per-VO coding inputs."""
    n_objects = 2 if workload.n_vos == 3 else 1
    scene = SyntheticScene(SceneSpec.default(workload.width, workload.height, n_objects))
    frames = []
    object_masks: list[list[np.ndarray]] = [[] for _ in range(n_objects)]
    for index in range(workload.n_frames):
        frame, masks = scene.frame_with_masks(index)
        frames.append(frame)
        for obj_index, mask in enumerate(masks):
            object_masks[obj_index].append(mask)

    def config_for(width, height, arbitrary_shape):
        return CodecConfig(
            width=width,
            height=height,
            qp=workload.qp,
            gop_size=workload.gop_size,
            m_distance=workload.m_distance,
            target_bitrate=workload.target_bitrate,
            frame_rate=workload.frame_rate,
            arbitrary_shape=arbitrary_shape,
        )

    # VO 0: the full composited frame, rectangular.
    inputs = [
        VoInput(
            vo_id=0,
            config=config_for(workload.width, workload.height, False),
            frames=frames,
            masks=None,
        )
    ]
    if workload.n_vos == 1:
        return inputs

    # VOs 1..2: the moving foreground objects, arbitrary shape, coded in
    # their MB-aligned bounding boxes.
    granularity = 16
    for obj_index in range(n_objects):
        masks = object_masks[obj_index]
        y0, x0, h, w = _bounding_box(masks, granularity)
        cropped_frames = [
            YuvFrame(
                frame.y[y0 : y0 + h, x0 : x0 + w].copy(),
                frame.u[y0 // 2 : (y0 + h) // 2, x0 // 2 : (x0 + w) // 2].copy(),
                frame.v[y0 // 2 : (y0 + h) // 2, x0 // 2 : (x0 + w) // 2].copy(),
            )
            for frame in frames
        ]
        cropped_masks = [mask[y0 : y0 + h, x0 : x0 + w].copy() for mask in masks]
        inputs.append(
            VoInput(
                vo_id=obj_index + 1,
                config=config_for(w, h, True),
                frames=cropped_frames,
                masks=cropped_masks,
            )
        )
    return inputs


def _finish_recording(recorder: TraceRecorder, capture: TraceCapture, encoded) -> RecordedTrace:
    """Freeze one codec run into a replayable recording.

    The capture folds into one run-collapsed :class:`BatchTable` here,
    once, and every machine replay, trace-cache entry and replay worker
    reads that table's columns.
    """
    return RecordedTrace(
        batches=capture.table(),
        scale=recorder.scale_factor(),
        footprint_bytes=recorder.space.footprint_bytes,
        encoded=encoded,
    )


def _record_encode(workload, sampling, inputs) -> RecordedTrace:
    """Run the instrumented encoder once, capturing its trace."""
    capture = TraceCapture()
    recorder = TraceRecorder([capture], sampling)
    if inputs is None:
        inputs = build_workload_inputs(workload)
    encoded = []
    for vo in inputs:
        name = f"vo{vo.vo_id}"
        primary = vo.vo_id == 0
        if workload.n_layers == 2:
            encoder = ScalableEncoder(vo.config, recorder, name, walk_tables=primary)
            encoded.append(encoder.encode_sequence(vo.frames, vo.masks))
        else:
            encoder = VopEncoder(
                vo.config, recorder, f"{name}.vol0", vo_id=vo.vo_id,
                walk_tables=primary,
            )
            encoded.append(encoder.encode_sequence(vo.frames, vo.masks))
    return _finish_recording(recorder, capture, encoded)


def _record_decode(workload, encoded, sampling) -> RecordedTrace:
    """Run the instrumented decoder once, capturing its trace."""
    capture = TraceCapture()
    recorder = TraceRecorder([capture], sampling)
    for vo_index, stream in enumerate(encoded):
        name = f"dec.vo{vo_index}"
        primary = vo_index == 0
        if isinstance(stream, ScalableEncoded):
            decoder = ScalableDecoder(recorder, name, walk_tables=primary)
            decoder.decode(stream)
        elif isinstance(stream, EncodedSequence):
            decoder = VopDecoder(recorder, f"{name}.vol0", walk_tables=primary)
            decoder.decode_sequence(stream.data)
        else:
            raise TypeError(f"unrecognized encoded stream type {type(stream)!r}")
    return _finish_recording(recorder, capture, [])


# Replay workers receive the batch table through the pool initializer (one
# pickle per worker, not per task) and machines as the per-task argument.
_worker_batches: BatchTable | None = None


def _init_replay_worker(batches) -> None:
    global _worker_batches
    _worker_batches = batches


def _replay_one_machine(machine: MachineSpec):
    hierarchy = machine.build_hierarchy()
    hierarchy.replay(_worker_batches)
    return hierarchy.total, hierarchy.phases


def replay_into_machines(
    batches,
    machines: tuple[MachineSpec, ...],
    jobs: int | None = None,
):
    """Replay one recorded batch stream into a fresh hierarchy per machine.

    ``batches`` is the recording's :class:`~repro.memsim.events.BatchTable`
    (a plain batch list also works, at the cost of a table per machine).
    Returns ``{machine.label: (total_counters, phase_counters)}`` in the
    order of ``machines``.  With ``jobs > 1`` the per-machine replays run
    under a :class:`~repro.core.runner.supervisor.SupervisedPool` --
    heartbeat-monitored workers with a wall-clock watchdog
    (``REPRO_REPLAY_BUDGET``), one retry for transient deaths, and a
    :class:`~repro.core.runner.supervisor.QuarantinedTaskError` (carrying
    the attempt history) when a replay is unrecoverable, which the
    cell-level retry ladder turns into a ``StudyCellError``.  Ordering
    and results are identical at any parallelism level because each
    replay is an isolated deterministic simulation.
    """
    jobs = default_jobs() if jobs is None else max(1, jobs)
    if jobs > 1 and len(machines) > 1:
        pool = SupervisedPool(
            max_workers=min(jobs, len(machines)),
            initializer=_init_replay_worker,
            initargs=(batches,),
            budget=WorkerBudget(wall_s=replay_budget(), heartbeat_s=30.0),
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.1, max_delay_s=1.0),
        )
        results = pool.results_or_raise(
            [
                (f"{index}:{machine.label}", _replay_one_machine, (machine,))
                for index, machine in enumerate(machines)
            ]
        )
        outcomes = [
            results[f"{index}:{machine.label}"]
            for index, machine in enumerate(machines)
        ]
    else:
        _init_replay_worker(batches)
        outcomes = [_replay_one_machine(machine) for machine in machines]
    return {
        machine.label: outcome for machine, outcome in zip(machines, outcomes)
    }


def _collect(workload, direction, recorded: RecordedTrace, machines, encoded, jobs=None):
    """Replay a recording into every machine and assemble the StudyResult."""
    replayed = replay_into_machines(recorded.batches, machines, jobs)
    scale = recorded.scale
    reports = {}
    phase_reports: dict[str, dict[str, MetricReport]] = {}
    raw_counters = {}
    for machine in machines:
        total, phases = replayed[machine.label]
        reports[machine.label] = compute_report(total, machine, scale)
        raw_counters[machine.label] = total
        for phase, counters in phases.items():
            phase_reports.setdefault(phase, {})[machine.label] = compute_report(
                counters, machine, scale
            )
    return StudyResult(
        workload=workload,
        direction=direction,
        reports=reports,
        phase_reports=phase_reports,
        scale=scale,
        footprint_bytes=recorded.footprint_bytes,
        encoded=encoded,
        raw_counters=raw_counters,
    )


def _characterize_with_cache(
    workload, direction, machines, jobs, store, key, record, encoded
):
    """Shared load-or-record-then-replay path with corrupt-cache recovery.

    A cache entry that loads but replays badly (corrupt batches that slip
    past the digest check, e.g. a stale entry written by a buggy recorder)
    is evicted and the cell re-recorded once; failures of a fresh
    recording propagate to the caller, which may retry at cell level.
    """
    recorded = None
    from_cache = False
    if store is not None and key is not None:
        recorded = store.load(key)
        from_cache = recorded is not None
    if recorded is None:
        recorded = record()
        if key is not None:
            store.store(key, recorded)

    def collect(rec):
        result_encoded = rec.encoded if encoded is None else encoded
        return _collect(workload, direction, rec, machines, result_encoded, jobs)

    try:
        return collect(recorded)
    except Exception:
        if not from_cache:
            raise
        store.evict(key)
        recorded = record()
        store.store(key, recorded)
        return collect(recorded)


def characterize_encode(
    workload: Workload,
    machines: tuple[MachineSpec, ...] = STUDY_MACHINES,
    sampling: BandSampling | None = None,
    inputs: list[VoInput] | None = None,
    jobs: int | None = None,
) -> StudyResult:
    """Characterize a workload's encode side; returns per-machine metrics.

    The codec runs once (or not at all on a trace-cache hit); the captured
    trace is replayed into each machine's hierarchy.  Custom ``inputs``
    bypass the on-disk cache because their content is not derivable from
    the workload fields the fingerprint covers.
    """
    store = TraceCacheStore.from_env()
    key = None
    if store is not None and inputs is None:
        key = trace_fingerprint(workload, "encode", sampling)
    return _characterize_with_cache(
        workload, "encode", machines, jobs, store, key,
        lambda: _record_encode(workload, sampling, inputs),
        encoded=None,
    )


def encode_untraced(workload: Workload, inputs: list[VoInput] | None = None) -> list:
    """Produce the workload's bitstreams without tracing (decode-side input)."""
    if inputs is None:
        inputs = build_workload_inputs(workload)
    encoded = []
    for vo in inputs:
        if workload.n_layers == 2:
            encoded.append(ScalableEncoder(vo.config).encode_sequence(vo.frames, vo.masks))
        else:
            encoded.append(VopEncoder(vo.config).encode_sequence(vo.frames, vo.masks))
    return encoded


def characterize_decode(
    workload: Workload,
    encoded: list | None = None,
    machines: tuple[MachineSpec, ...] = STUDY_MACHINES,
    sampling: BandSampling | None = None,
    jobs: int | None = None,
) -> StudyResult:
    """Characterize a workload's decode side over its bitstreams.

    Decode traces depend on the input bitstreams, so the cache key folds
    in a digest of ``encoded`` -- streams from a traced or untraced encode
    of the same workload are byte-identical and share an entry.
    """
    if encoded is None:
        encoded = encode_untraced(workload)
    store = TraceCacheStore.from_env()
    key = None
    if store is not None:
        key = trace_fingerprint(workload, "decode", sampling, digest_streams(encoded))
    return _characterize_with_cache(
        workload, "decode", machines, jobs, store, key,
        lambda: _record_decode(workload, encoded, sampling),
        encoded=encoded,
    )
