"""Spans around the public functions of the spreadmux modules, and the
per-layer metrics computed from them.

The program is not changed: while tracing is on, each traced function is
replaced, in every spreadmux module that holds it, by a wrapper that records
a span; the originals come back when tracing ends. Spans stay in memory and
are written out once, at the end of the traced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# (module, function) pairs; a dotted function is a classmethod.
TRACED = (
    ("codes", "lfsr_sequence"),
    ("codes", "msequence_code"),
    ("codes", "shift_code"),
    ("signal", "gaussian_packet"),
    ("optics", "modulation_waveform"),
    ("optics", "modulate"),
    ("optics", "fbg_reflect"),
    ("optics", "fbg_transmit"),
    ("optics", "mux_new_path"),
    ("optics", "mux_old_path"),
    ("optics", "demux_drop_path"),
    ("optics", "demux_through_path"),
    ("network", "NetworkPlan.from_orders"),
    ("network", "NetworkPlan.fifo"),
    ("network", "propagate_envelope"),
    ("network", "propagate_photon"),
    ("network", "receiver_density"),
    ("metrics", "loss_probability"),
    ("metrics", "crosstalk_probability"),
    ("metrics", "fidelity"),
    ("metrics", "per_bin_detection"),
    ("metrics", "cow_states"),
    ("experiments", "run_experiment"),
    ("experiments", "run_loss"),
    ("experiments", "run_crosstalk"),
    ("experiments", "run_fidelity"),
    ("experiments", "run_trace"),
    ("cli", "main"),
)

FILTERS = {"optics.fbg_reflect", "optics.fbg_transmit"}
STAGES = {"optics.mux_new_path", "optics.mux_old_path", "optics.demux_drop_path",
          "optics.demux_through_path"}
PLANS = {"network.NetworkPlan.from_orders", "network.NetworkPlan.fifo"}
METRICS = {f"metrics.{name}" for module, name in TRACED if module == "metrics"}
EXPERIMENTS = {f"experiments.{name}" for module, name in TRACED if module == "experiments"}

# Bytes one filter pair reads and writes per grid sample, counted from the
# arrays numpy touches (complex128 = 16 bytes, float64 response = 8): the
# FFT reads and writes 16 + 16, the product reads 16 + 8 and writes 16, the
# inverse FFT reads and writes 16 + 16. A computed figure, not a measured one.
FILTER_BYTES_PER_SAMPLE = 104

# span fields
NAME, START, END, PARENT, WORK_DONE = range(5)


def _grid_samples(env, *_args, **_kwargs) -> int:
    return env.grid.n_samples


class SpanRecorder:
    """Spans as [name, start, end, parent index or -1, work] lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        work = _grid_samples if name in FILTERS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1,
                    work(*args, **kwargs) if work else 0]
            open_.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                open_.pop()

        return wrapper

    def write(self, path: Path) -> None:
        fields = ["name", "start", "end", "parent", "work"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh, separators=(",", ":"))


@contextmanager
def traced(recorder: SpanRecorder):
    """Record spans around every function in TRACED while the block runs."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "spreadmux" or name.startswith("spreadmux.")]
    undo = []
    try:
        for module_name, qualname in TRACED:
            module = importlib.import_module(f"spreadmux.{module_name}")
            span_name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, classmethod(recorder.wrap(span_name, original.__func__)))
                continue
            original = getattr(module, qualname)
            wrapper = recorder.wrap(span_name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        undo.append((holder, key, original))
                        setattr(holder, key, wrapper)
        yield recorder
    finally:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)


def layer_metrics(spans: list[list], deliveries: int, cells: int,
                  bytes_written: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as {name: (value, unit)}, from the recorded spans.

    A call counts once even when it calls another function of its own group
    (``demux_through_path`` calls ``mux_old_path``, ``fifo`` calls
    ``from_orders``). Self time is a span's duration minus its children's.
    """
    duration = [s[END] - s[START] for s in spans]
    self_time = list(duration)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            self_time[s[PARENT]] -= duration[i]

    def outermost(group: set[str]) -> list[int]:
        out = []
        for i, s in enumerate(spans):
            if s[NAME] not in group:
                continue
            parent = s[PARENT]
            while parent >= 0 and spans[parent][NAME] not in group:
                parent = spans[parent][PARENT]
            if parent < 0:
                out.append(i)
        return out

    def calls(group: set[str]) -> int:
        return len(outermost(group))

    def seconds(group: set[str]) -> float:
        return sum(duration[i] for i in outermost(group))

    def self_seconds(group: set[str]) -> float:
        return sum(self_time[i] for i, s in enumerate(spans) if s[NAME] in group)

    filters = calls(FILTERS)
    samples = sum(s[WORK_DONE] for s in spans if s[NAME] in FILTERS)
    filter_s = seconds(FILTERS)
    modulates = calls({"optics.modulate"})
    builds = calls({"optics.modulation_waveform"})
    stages = calls(STAGES)
    walks = calls({"network.propagate_envelope"})
    return {
        "optics.filter.calls": (filters, "count"),
        "optics.filter.s": (filter_s, "s"),
        "optics.filter.samples": (samples, "count"),
        "optics.filter.ns_per_sample": (1e9 * filter_s / samples if samples else 0.0, "ns"),
        "optics.filter.bytes_computed": (FILTER_BYTES_PER_SAMPLE * samples, "bytes"),
        "optics.modulate.calls": (modulates, "count"),
        "optics.modulate.s": (seconds({"optics.modulate"}), "s"),
        "optics.modulation_waveform.calls": (builds, "count"),
        "optics.waveform_reuse": (1.0 - builds / modulates if modulates else 0.0, "ratio"),
        "optics.stage.calls": (stages, "count"),
        "optics.stage.self_s": (self_seconds(STAGES), "s"),
        "network.plan.calls": (calls(PLANS), "count"),
        "network.plan.s": (seconds(PLANS), "s"),
        "network.propagate_envelope.calls": (walks, "count"),
        "network.propagate_envelope.s": (seconds({"network.propagate_envelope"}), "s"),
        "network.walk.self_s": (self_seconds({"network.propagate_envelope"}), "s"),
        "network.stages_per_walk": (stages / walks if walks else 0.0, "ratio"),
        "network.receiver_density.s": (seconds({"network.receiver_density"}), "s"),
        "signal.gaussian_packet.calls": (calls({"signal.gaussian_packet"}), "count"),
        "signal.gaussian_packet.s": (seconds({"signal.gaussian_packet"}), "s"),
        "codes.lfsr_sequence.s": (seconds({"codes.lfsr_sequence"}), "s"),
        "codes.shift_code.calls": (calls({"codes.shift_code"}), "count"),
        "metrics.s": (seconds(METRICS), "s"),
        "experiments.run_experiment.s": (seconds({"experiments.run_experiment"}), "s"),
        "experiments.self_s": (self_seconds(EXPERIMENTS), "s"),
        "experiments.cells": (cells, "count"),
        "experiments.walks_per_delivery": (walks / deliveries, "ratio"),
        "cli.main.s": (seconds({"cli.main"}), "s"),
        "cli.self_s": (self_seconds({"cli.main"}), "s"),
        "cli.bytes_written": (bytes_written, "bytes"),
    }
