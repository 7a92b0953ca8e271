"""Benchmark-owned layer tracer: self time per layer, from outside ``src/``.

The tracer wraps a fixed list of public callables (one or more per
layer) and keeps a stack of open calls.  When a wrapped call returns,
its duration minus the time of the wrapped calls nested inside it is
charged to its layer as *self time*; the parent's self time excludes it.
The bottom of the stack is a :meth:`LayerTracer.region`, so whatever a
region spends outside every wrapped call is reported as unattributed.

Wrapping is done by replacing attributes, so the tracer must catch every
binding of a target: the defining module's attribute, every
``from ... import`` copy in an already-loaded ``repro.*`` module, and,
for methods, the class attribute.  A target that no longer exists is
recorded as absent instead of raising, so a refactor that renames or
removes one cannot break the benchmark; its layer is reported
``absent``.

Spans stay in memory and are written once, as a Chrome trace
(``chrome://tracing`` or https://ui.perfetto.dev), by
:meth:`LayerTracer.write_chrome_trace`.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

__all__ = ["Target", "TARGETS", "LAYERS", "LayerStats", "LayerTracer"]


@dataclass
class LayerStats:
    """What one layer did inside the regions since the last :meth:`take`."""

    self_ns: int = 0
    calls: int = 0
    counters: dict = field(default_factory=dict)
    inputs: set = field(default_factory=set)  # digests of distinct inputs

    def add(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


# -- counter hooks: (stats, args, result) after each wrapped call; result
# -- is None when the call raised -------------------------------------------


def _count_transport(stats: LayerStats, args, result) -> None:
    if result is not None:
        stats.add("packets_sent", result.n_sent_packets)
        stats.add("dropped", result.n_dropped)
        stats.add("recovered", result.n_recovered)


def _count_encoder(stats: LayerStats, args, result) -> None:
    if result is not None:
        stats.add("frames", len(result.reconstructions))


def _count_decoder(stats: LayerStats, args, result) -> None:
    data = args[1] if len(args) > 1 else None  # (self, data, ...)
    if isinstance(data, bytes):
        stats.inputs.add(hashlib.sha256(data).digest())
    if result is not None:
        stats.add("frames", len(result.frames))
        stats.add("concealed", 0 if result.is_clean else 1)


def _count_memsim(stats: LayerStats, args, result) -> None:
    batches, machines = args[0], args[1]
    stats.add("batches", len(batches) * len(machines))


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:qualname`` charged to ``layer``."""

    layer: str
    path: str
    count: Callable | None = None  # counter hook

    @property
    def module(self) -> str:
        return self.path.split(":")[0]

    @property
    def qualname(self) -> str:
        return self.path.split(":")[1]


TARGETS = (
    Target("service.study", "repro.service.study:run_sweep"),
    Target("service.study", "repro.service.study:run_fault_sweep"),
    Target("service.study", "repro.service.abrstudy:run_abr_sweep"),
    Target("service.cell", "repro.service.study:run_cell"),
    Target("service.cell", "repro.service.study:run_fault_cell"),
    Target("service.cell", "repro.service.abrstudy:run_abr_cell"),
    Target("service.scheduler", "repro.service.scheduler:schedule_fleet"),
    Target("service.recovery", "repro.service.recovery:simulate_recovery"),
    Target("service.abr", "repro.service.abr:simulate_abr_fleet"),
    Target("service.session", "repro.service.session:execute_session"),
    Target("transport", "repro.transport.pipeline:transmit_stream",
           _count_transport),
    Target("codec.encoder", "repro.codec.encoder:VopEncoder.encode_sequence",
           _count_encoder),
    Target("codec.renditions", "repro.codec.renditions:encode_ladder"),
    Target("codec.decoder", "repro.codec.decoder:VopDecoder.decode_sequence",
           _count_decoder),
    Target("core.study", "repro.core.study:characterize_encode"),
    Target("core.study", "repro.core.study:characterize_decode"),
    Target("memsim", "repro.core.study:replay_into_machines", _count_memsim),
    Target("video", "repro.video.synthesis:SyntheticScene.frame"),
    Target("video", "repro.video.synthesis:SyntheticScene.frame_with_masks"),
)

#: Layers in reporting order.
LAYERS = tuple(dict.fromkeys(target.layer for target in TARGETS))

#: Chrome-trace events kept in memory; later ones are dropped.
MAX_EVENTS = 200_000


class LayerTracer:
    """Install wrappers, time regions, and hand out per-region stats."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS,
                 around: dict | None = None) -> None:
        self.targets = targets
        #: layer -> context-manager factory entered around each traced
        #: call of that layer (inside its timed interval).
        self.around = around or {}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [child_ns] per open call
        self._stats: dict[str, LayerStats] = {}
        self._region_ns = 0
        self._unattributed_ns = 0
        self._epoch_ns = time.perf_counter_ns()
        self.events: list[dict] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for target in self.targets:
            try:
                owner, name, original = _resolve(target)
            except (ImportError, AttributeError):
                self.absent.append(target.path)
                continue
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patch(owner, name, wrapper)
                continue
            # A function: rebind every alias of it in loaded repro modules.
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def absent_layers(self) -> set[str]:
        """Layers none of whose targets could be wrapped."""
        present = {t.layer for t in self.targets if t.path not in self.absent}
        return {t.layer for t in self.targets} - present

    def _wrap(self, target: Target, fn):
        layer = target.layer
        counter = target.count
        label = target.qualname
        around = self.around.get(layer, contextlib.nullcontext)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            if not stack:  # outside any region: run untraced
                return fn(*args, **kwargs)
            frame = [0]
            stack.append(frame)
            start = time.perf_counter_ns()
            result = None
            try:
                with around():
                    result = fn(*args, **kwargs)
                return result
            finally:
                stack.pop()
                stats = self._layer(layer)
                stats.calls += 1
                if counter is not None:
                    counter(stats, args, result)
                duration = time.perf_counter_ns() - start
                stats.self_ns += duration - frame[0]
                stack[-1][0] += duration
                self._event(label, layer, start, duration)

        return wrapper

    # -- regions --------------------------------------------------------------

    @contextlib.contextmanager
    def region(self, name: str = "op"):
        """Trace everything called inside; time outside wrapped calls is
        charged to ``unattributed``."""
        frame = [0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            duration = time.perf_counter_ns() - start
            self._stack.pop()
            self._region_ns += duration
            self._unattributed_ns += duration - frame[0]
            self._event(name, "region", start, duration)

    def take(self) -> dict:
        """Stats of the regions since the previous call, then reset."""
        layers = {
            layer: {
                "self_ns": stats.self_ns,
                "calls": stats.calls,
                "distinct_inputs": len(stats.inputs),
                **stats.counters,
            }
            for layer, stats in self._stats.items()
        }
        taken = {
            "region_ns": self._region_ns,
            "unattributed_ns": self._unattributed_ns,
            "layers": layers,
        }
        self._stats = {}
        self._region_ns = 0
        self._unattributed_ns = 0
        return taken

    def _layer(self, layer: str) -> LayerStats:
        stats = self._stats.get(layer)
        if stats is None:
            stats = self._stats[layer] = LayerStats()
        return stats

    def _event(self, name: str, category: str, start_ns: int,
               duration_ns: int) -> None:
        if len(self.events) < MAX_EVENTS:
            self.events.append({
                "name": name, "cat": category, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start_ns - self._epoch_ns) / 1000.0,
                "dur": duration_ns / 1000.0,
            })

    def write_chrome_trace(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"traceEvents": self.events, "displayTimeUnit": "ms",
             "otherData": {"absent_targets": self.absent}}
        ))


def _resolve(target: Target):
    """``(owner, attribute, original)`` for a target, or raise."""
    owner = importlib.import_module(target.module)
    parts = target.qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if isinstance(owner, type):
        # Only a method the class itself defines; an inherited one would
        # be wrapped on the wrong class.
        if name not in vars(owner):
            raise AttributeError(target.path)
        return owner, name, vars(owner)[name]
    return owner, name, getattr(owner, name)
