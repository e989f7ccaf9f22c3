"""Seeded Monte Carlo scenarios over the (spreading factor, user count) grid.

All scenarios run on normalised grids with bin_duration = 1, so frequencies
are quoted in units of 1/T. Every trial derives its own generator from
(rng_seed, scenario, cell, trial), which makes runs order-independent and
byte-for-byte reproducible.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .codes import DEFAULT_TAPS, LfsrSpec, SpreadingCode, msequence_code
from .metrics import (
    cow_states,
    crosstalk_probability,
    fidelity,
    loss_probability,
    per_bin_detection,
)
from .network import (
    NetworkPlan,
    UserChannel,
    propagate_envelope,
    propagate_photon,
    receiver_densities,
)
from .optics import FbgSpec
from .signal import TimeGrid

__all__ = [
    "DEFAULT_SIGMA_FILT",
    "ScenarioConfig",
    "ReportCell",
    "MetricsReport",
    "TraceResult",
    "REPRODUCTION_SETTINGS",
    "reproduction_config",
    "run_loss",
    "run_crosstalk",
    "run_fidelity",
    "run_trace",
    "run_experiment",
]

# default grating width: (8 pi / 5) times the packet spectral width
# 1 / (2 pi sigma_t) with sigma_t = 0.1 T, i.e. 8 cycles per bin duration
DEFAULT_SIGMA_FILT = 8.0

_KINDS = ("loss", "crosstalk", "fidelity", "trace")
_DEFAULT_TRIALS = {"loss": 50, "crosstalk": 32, "fidelity": 64, "trace": 1}
# (n_registers, users) when left as None; a trace sends one word per user
# through one chain, so it takes one entry of each
_DEFAULT_GRID = {"trace": ((15,), (5,))}
_SWEEP_GRID = ((8, 10, 12), (5, 20, 50))
# bins in one word: a loss probe sends one bit, a fidelity state spans two bins
_BINS_PER_WORD = {"loss": 1, "fidelity": 2}
# The largest grid, in samples, a scenario may ask for: 8 times the largest
# preset's (the n=15 trace: 8 * 32767 * 4, about 2**20 samples, which peaks at
# about 270 MB resident), so about 2 GB; a larger grid would run out of memory
# only after the cells before it had run.
_MAX_GRID_SAMPLES = 2**23
# The most samples a plan may keep: it caches one grid-length row per user
# (its modulator waveform) and one per bin (its unit packet), and the grid
# bound above does not see how many rows there are. 2**26 float64 samples is
# 512 MiB (1 GiB once a finite transition_time makes the waveforms complex),
# about twice the largest preset's 58 rows of 524 256 samples (the --full
# crosstalk cell at n=14 with 50 users); a larger plan would run out of
# memory only after the cells before it had run.
_MAX_PLAN_SAMPLES = 2**26
_METRIC_NAMES = {
    "loss": "loss_probability",
    "crosstalk": "crosstalk_probability",
    "fidelity": "one_minus_fidelity",
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a scenario run depends on, hashable for output headers.

    sigma_filt is quoted in units of 1/T; None picks DEFAULT_SIGMA_FILT.
    crosstalk_per_bin divides the integrated word crosstalk by bits_per_user;
    empty_drop_first puts the probed receiver first in the drop chain instead
    of at its user position. n_registers and users left as None take the
    kind's default grid; a trace takes exactly one entry of each.
    """

    kind: str
    n_registers: tuple[int, ...] | None = None
    users: tuple[int, ...] | None = None
    trials: int | None = None
    bits_per_user: int = 8
    samples_per_chip: int = 4
    sigma_filt: float | None = None
    transition_time: float = 0.0
    rng_seed: int = 12345
    crosstalk_per_bin: bool = True
    empty_drop_first: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        grid = _DEFAULT_GRID.get(self.kind, _SWEEP_GRID)
        for name, default in zip(("n_registers", "users"), grid):
            value = getattr(self, name)
            value = default if value is None else _integer_tuple(name, value)
            object.__setattr__(self, name, value)
        if not self.n_registers or not self.users:
            raise ValueError("n_registers and users must be non-empty")
        if self.kind == "trace" and (len(self.n_registers) > 1 or len(self.users) > 1):
            raise ValueError(
                f"a trace runs one register count and one user count, got "
                f"n_registers={self.n_registers}, users={self.users}"
            )
        unsupported = [n for n in self.n_registers if n not in DEFAULT_TAPS]
        if unsupported:
            raise ValueError(
                f"no built-in taps for n_registers {unsupported}, supported "
                f"{min(DEFAULT_TAPS)}..{max(DEFAULT_TAPS)}"
            )
        if any(u < 1 for u in self.users):
            raise ValueError(f"user counts must be >= 1, got {self.users}")
        shortest = 2 ** min(self.n_registers) - 1
        if max(self.users) >= shortest:
            raise ValueError(
                f"at most {shortest - 1} users fit the code family of "
                f"n_registers={min(self.n_registers)}, got {max(self.users)}"
            )
        if self.trials is not None and self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.bits_per_user < 1:
            raise ValueError(f"bits_per_user must be >= 1, got {self.bits_per_user}")
        if self.sigma_filt is not None and not self.sigma_filt > 0:
            raise ValueError(f"sigma_filt must be positive, got {self.sigma_filt}")
        if self.samples_per_chip < 2:
            raise ValueError(
                f"samples_per_chip must be >= 2, got {self.samples_per_chip}"
            )
        spreading = 2 ** max(self.n_registers) - 1  # chips of the longest code
        largest = self.bins_per_word * spreading * self.samples_per_chip
        if largest > _MAX_GRID_SAMPLES:
            raise ValueError(
                f"grid of {largest} samples ({self.bins_per_word} bins x "
                f"{spreading} chips x {self.samples_per_chip} samples per chip) "
                f"exceeds the limit of {_MAX_GRID_SAMPLES}"
            )
        rows = max(self.users) + self.bins_per_word
        if rows * largest > _MAX_PLAN_SAMPLES:
            raise ValueError(
                f"plan of {rows * largest} samples ({max(self.users)} waveform "
                f"and {self.bins_per_word} packet rows of {largest} samples) "
                f"exceeds the limit of {_MAX_PLAN_SAMPLES}"
            )
        # one chip of the longest code, at bin_duration = 1; NaN fails too
        chip = 1 / spreading
        if not 0 <= self.transition_time < chip:
            raise ValueError(
                f"transition_time must lie in [0, {chip:.3e}), shorter than one "
                f"chip of n_registers={max(self.n_registers)}, got "
                f"{self.transition_time}"
            )
        seed = self.rng_seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"rng_seed must be a non-negative integer, got {seed!r}")

    @property
    def bins_per_word(self) -> int:
        """Bins on every grid of this scenario, one per bit of a word."""
        return _BINS_PER_WORD.get(self.kind, self.bits_per_user)

    @property
    def resolved_trials(self) -> int:
        return _DEFAULT_TRIALS[self.kind] if self.trials is None else self.trials

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.as_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def header_lines(self, **labels: str) -> list[str]:
        """Comment lines that open every CSV output: the package version,
        one ``# name: value`` line per label, the seed and the config hash."""
        from . import __version__

        return (
            [f"# spreadmux {__version__}"]
            + [f"# {name}: {value}" for name, value in labels.items()]
            + [f"# seed: {self.rng_seed}", f"# config_hash: {self.config_hash()}"]
        )


def _integer_tuple(name: str, value) -> tuple[int, ...]:
    """A list field as a tuple of ints; a string, a scalar or an entry that
    is not a whole number is rejected with the field's name."""
    problem = ValueError(f"{name} must be a list of integers, got {value!r}")
    if isinstance(value, (str, bytes)):
        raise problem
    try:
        entries = list(value)
    except TypeError:
        raise problem from None
    for v in entries:
        whole = isinstance(v, numbers.Real) and float(v).is_integer()
        if isinstance(v, bool) or not whole:
            raise problem
    return tuple(int(v) for v in entries)


# conventions pinned by the published-table calibration, see README
REPRODUCTION_SETTINGS = {
    "sigma_filt": DEFAULT_SIGMA_FILT,
    "crosstalk_per_bin": True,
    "empty_drop_first": True,
}


def reproduction_config(kind: str, full: bool = False, **overrides) -> ScenarioConfig:
    """Grid and conventions used for the published-table reproduction.

    full extends the crosstalk grid to the slowest spreading factor; the
    loss grid is cheap enough to run whole either way.
    """
    grids = {
        "loss": {"n_registers": (8, 10, 12, 14), "users": (5, 20, 50)},
        "crosstalk": {
            "n_registers": (8, 10, 12, 14) if full else (8, 10, 12),
            "users": (5, 20, 50),
        },
        "fidelity": {"n_registers": (10,), "users": (5, 20, 50)},
    }
    if kind not in grids:
        raise ValueError(f"no reproduction preset for kind {kind!r}")
    params = {**grids[kind], **REPRODUCTION_SETTINGS, **overrides}
    return ScenarioConfig(kind=kind, **params)


@dataclass(frozen=True)
class ReportCell:
    n_registers: int
    spreading: int
    users: int
    mean: float
    stderr: float
    trials: int
    label: str = ""


@dataclass(frozen=True, eq=False)
class MetricsReport:
    kind: str
    metric: str
    cells: tuple[ReportCell, ...]
    config: ScenarioConfig

    def cell(self, n_registers: int, users: int, label: str = "") -> ReportCell:
        for c in self.cells:
            if (c.n_registers, c.users, c.label) == (n_registers, users, label):
                return c
        raise KeyError(f"no cell for n={n_registers}, users={users}, label={label!r}")

    def to_csv_text(self) -> str:
        lines = self.config.header_lines(kind=self.kind, metric=self.metric)
        labelled = any(c.label for c in self.cells)
        cols = "S,N,state,mean,stderr,trials" if labelled else "S,N,mean,stderr,trials"
        lines.append(cols)
        for c in self.cells:
            fields = [str(c.spreading), str(c.users)]
            if labelled:
                fields.append(c.label)
            fields += [f"{c.mean:.10g}", f"{c.stderr:.10g}", str(c.trials)]
            lines.append(",".join(fields))
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        from . import __version__

        payload = {
            "artifact": {"name": "spreadmux", "version": __version__},
            "kind": self.kind,
            "metric": self.metric,
            "seed": self.config.rng_seed,
            "config_hash": self.config.config_hash(),
            "config": self.config.as_dict(),
            "cells": [dataclasses.asdict(c) for c in self.cells],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True, eq=False)
class TraceResult:
    """Per-receiver densities and bin detections for one transmitted word."""

    grid: TimeGrid
    users: tuple[int, ...]
    bits: dict[int, tuple[int, ...]]
    densities: dict[int, np.ndarray]
    detections: dict[int, np.ndarray]
    config: ScenarioConfig


_KIND_INDEX = {k: i for i, k in enumerate(_KINDS)}


def _trial_rng(config: ScenarioConfig, n: int, users: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(
        (config.rng_seed, _KIND_INDEX[config.kind], n, users, trial)
    )


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, stderr


def _grating(config: ScenarioConfig) -> FbgSpec:
    sigma = DEFAULT_SIGMA_FILT if config.sigma_filt is None else config.sigma_filt
    return FbgSpec(sigma_filt=sigma)


def _sweep(
    config: ScenarioConfig,
    metric: str,
    cell: Callable[..., Callable[[np.random.Generator], dict[str, float]]],
) -> MetricsReport:
    """Mean and standard error of every (n_registers, users) cell.

    ``cell(config, grid, base_code, n_users)`` sets one cell up and returns
    its trial body, which maps the trial's generator to the trial's values
    by label; each label gets its own report cell.
    """
    trials = config.resolved_trials
    cells = []
    for n in config.n_registers:
        spreading = 2**n - 1
        base = msequence_code(LfsrSpec(n))
        grid = TimeGrid(1.0, spreading, config.samples_per_chip, config.bins_per_word)
        for n_users in config.users:
            trial = cell(config, grid, base, n_users)
            per_label: dict[str, list[float]] = {}
            for t in range(trials):
                for label, value in trial(_trial_rng(config, n, n_users, t)).items():
                    per_label.setdefault(label, []).append(value)
            for label, values in per_label.items():
                mean, stderr = _mean_stderr(values)
                cells.append(
                    ReportCell(n, spreading, n_users, mean, stderr, trials, label)
                )
    return MetricsReport(config.kind, metric, tuple(cells), config)


def _loss_cell(
    config: ScenarioConfig, grid: TimeGrid, base: SpreadingCode, n_users: int
) -> Callable[[np.random.Generator], dict[str, float]]:
    # one plan per cell: every trial walks the same chain, so a sender's
    # loss is walked once and reused when a later trial draws it again
    plan = NetworkPlan.fifo(
        grid, _grating(config), base, n_users, config.transition_time
    )
    losses: dict[int, float] = {}

    def trial(rng: np.random.Generator) -> dict[str, float]:
        sender = int(rng.integers(1, n_users + 1))
        if sender not in losses:
            channel = UserChannel(sender, plan.codes[sender], (1,))
            losses[sender] = loss_probability(propagate_photon(channel, sender, plan))
        return {"": losses[sender]}

    return trial


def run_loss(config: ScenarioConfig) -> MetricsReport:
    """Mean loss at the matched receiver, one occupied channel per trial."""
    return _sweep(config, _METRIC_NAMES["loss"], _loss_cell)


def _crosstalk_cell(
    config: ScenarioConfig, grid: TimeGrid, base: SpreadingCode, n_users: int
) -> Callable[[np.random.Generator], dict[str, float]]:
    fbg = _grating(config)
    bits_per_user = config.bits_per_user
    add_order = list(range(1, n_users + 1))

    def trial(rng: np.random.Generator) -> dict[str, float]:
        empty = int(rng.integers(1, n_users + 1))
        if config.empty_drop_first:
            drop_order = [empty] + [u for u in add_order if u != empty]
        else:
            drop_order = add_order
        plan = NetworkPlan.from_orders(
            grid, fbg, base, add_order, drop_order, config.transition_time
        )
        collected = []
        for uid in add_order:
            if uid == empty:
                continue
            bits = tuple(int(b) for b in rng.integers(0, 2, bits_per_user))
            phase = float(rng.uniform(0.0, 2.0 * np.pi))
            if not any(bits):
                continue  # nothing launched, nothing delivered
            channel = UserChannel(uid, plan.codes[uid], bits, phase)
            collected.append(propagate_photon(channel, empty, plan))
        value = crosstalk_probability(collected)
        if config.crosstalk_per_bin:
            value /= bits_per_user
        return {"": value}

    return trial


def run_crosstalk(config: ScenarioConfig) -> MetricsReport:
    """Foreign probability collected by one silent receiver per run."""
    metric = _METRIC_NAMES["crosstalk"]
    metric += "_per_bin" if config.crosstalk_per_bin else "_word"
    return _sweep(config, metric, _crosstalk_cell)


def _fidelity_cell(
    config: ScenarioConfig, grid: TimeGrid, base: SpreadingCode, n_users: int
) -> Callable[[np.random.Generator], dict[str, float]]:
    fbg = _grating(config)
    states = cow_states(grid)

    def trial(rng: np.random.Generator) -> dict[str, float]:
        add_order = [int(u) for u in rng.permutation(n_users) + 1]
        drop_order = [int(u) for u in rng.permutation(n_users) + 1]
        sender = int(rng.integers(1, n_users + 1))
        plan = NetworkPlan.from_orders(
            grid, fbg, base, add_order, drop_order, config.transition_time
        )
        values = {}
        for state in states:
            delivered = propagate_envelope(state.envelope, sender, sender, plan)
            value = 1.0 - fidelity(state.envelope, delivered, normalize=True)
            values[state.label] = value
        return values

    return trial


def run_fidelity(config: ScenarioConfig) -> MetricsReport:
    """Waveform infidelity of the four two-bin test states.

    Each trial draws one random add/drop arrangement of the N users and sends
    all four states through the same arrangement, which keeps the per-state
    means directly comparable.
    """
    return _sweep(config, _METRIC_NAMES["fidelity"], _fidelity_cell)


def run_trace(config: ScenarioConfig) -> TraceResult:
    """One full word from every user, densities at every receiver.

    Each sender is walked once through the whole chain; that walk feeds
    every receiver.
    """
    (n,) = config.n_registers
    (n_users,) = config.users
    spreading = 2**n - 1
    base = msequence_code(LfsrSpec(n))
    grid = TimeGrid(1.0, spreading, config.samples_per_chip, config.bins_per_word)
    plan = NetworkPlan.fifo(grid, _grating(config), base, n_users, config.transition_time)
    rng = _trial_rng(config, n, n_users, 0)
    bits: dict[int, tuple[int, ...]] = {}
    channels = []
    for uid in range(1, n_users + 1):
        word = tuple(int(b) for b in rng.integers(0, 2, config.bits_per_user))
        bits[uid] = word
        channels.append(UserChannel(uid, plan.codes[uid], word))
    densities = receiver_densities(channels, plan)
    detections = {r: per_bin_detection(d, grid) for r, d in densities.items()}
    return TraceResult(
        grid=grid,
        users=tuple(range(1, n_users + 1)),
        bits=bits,
        densities=densities,
        detections=detections,
        config=config,
    )


def run_experiment(config: ScenarioConfig):
    """Dispatch on config.kind."""
    runner = {
        "loss": run_loss,
        "crosstalk": run_crosstalk,
        "fidelity": run_fidelity,
        "trace": run_trace,
    }[config.kind]
    return runner(config)
