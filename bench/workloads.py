"""The benchmark's workloads: the scenario each hands the program, and the
checks on what the program returns.

A workload is one ``spreadmux`` command line. Its seed is the only thing that
varies between runs; the program receives nothing but the command line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from spreadmux.codes import LfsrSpec, SpreadingCode, msequence_code
from spreadmux.experiments import reproduction_config, run_experiment
from spreadmux.metrics import crosstalk_probability
from spreadmux.network import NetworkPlan, UserChannel, propagate_photon
from spreadmux.optics import FbgSpec
from spreadmux.signal import TimeGrid

import checks
from reference import ReferenceChain, msequence_problems

SIGMA_FILT = 8.0  # the reproduction grating width, in units of 1/T
# Walks checked against the reference chain run at this small register
# count, with this many users, so that the checks cost well under a second.
SMALL_REGISTERS = 7
SMALL_USERS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    register_counts: tuple[int, ...]
    cells: int  # operations per round: report cells, or receivers for a trace
    deliveries: int  # (sender, receiver) deliveries the report accounts for
    argv: Callable[[int, Path], list[str]]
    check: Callable[[int, Path], list[str]]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _report_cells(path: Path) -> list[dict]:
    return json.loads(path.read_text())["cells"]


def _base_code(n: int) -> tuple[SpreadingCode, list[str]]:
    """The program's base code for n registers, and why it is no m-sequence."""
    code = msequence_code(LfsrSpec(n))
    return code, [f"n={n} base code: {p}" for p in msequence_problems(code.chips)]


def _reference_walk(label: str, seed: int, n_bins: int, shape: str) -> list[str]:
    """Compare one program walk with the reference chain at small n.

    ``shape`` is the plan the workload builds: ``fifo``, ``silent_first``
    (the probed receiver first in the drop chain, senders with a launch
    phase) or ``random`` (random add and drop orders, matched receiver).
    """
    base, problems = _base_code(SMALL_REGISTERS)
    if problems:
        return problems
    rng = np.random.default_rng((seed, n_bins))
    users = list(range(1, SMALL_USERS + 1))
    add_order, drop_order = users, users
    source = receiver = int(rng.integers(1, SMALL_USERS + 1))
    phase = 0.0
    if shape == "silent_first":
        receiver = int(rng.integers(1, SMALL_USERS + 1))
        drop_order = [receiver] + [u for u in users if u != receiver]
        source = int(rng.choice([u for u in users if u != receiver]))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
    elif shape == "random":
        add_order = [int(u) for u in rng.permutation(users)]
        drop_order = [int(u) for u in rng.permutation(users)]
    elif shape == "fifo" and n_bins > 1:
        receiver = int(rng.integers(1, SMALL_USERS + 1))
    bits = tuple(int(b) for b in rng.integers(0, 2, n_bins))
    bits = (1,) + bits[1:] if not any(bits) else bits

    grid = TimeGrid(1.0, base.spreading_factor, 4, n_bins)
    plan = NetworkPlan.from_orders(grid, FbgSpec(SIGMA_FILT), base, add_order, drop_order)
    channel = UserChannel(source, plan.codes[source], bits, phase)
    program = propagate_photon(channel, receiver, plan).envelope.samples

    chain = ReferenceChain(base.chips, n_bins, SIGMA_FILT)
    reference = chain.deliver(chain.launch(bits, phase), add_order, drop_order,
                              source, receiver)
    return checks.walk_problems(f"{label} walk {source}->{receiver}", program, reference)


# ---------------------------------------------------------------- crosstalk

CROSSTALK_REGISTERS = (8, 10)
CROSSTALK_USERS = (5, 20, 50)
CROSSTALK_TRIALS = 1


def _crosstalk_argv(seed: int, out: Path) -> list[str]:
    return ["tables", "--which", "crosstalk",
            "--n-registers", _csv(CROSSTALK_REGISTERS),
            "--users", _csv(CROSSTALK_USERS), "--trials", str(CROSSTALK_TRIALS),
            "--seed", str(seed), "--format", "json", "--out-dir", str(out)]


def _single_one_crosstalk(seed: int) -> list[float]:
    """Crosstalk at a silent first receiver from single-1 words, per bin."""
    n_bins = 8
    base = msequence_code(LfsrSpec(SMALL_REGISTERS - 1))
    grid = TimeGrid(1.0, base.spreading_factor, 4, n_bins)
    rng = np.random.default_rng((seed, n_bins))
    users = list(range(1, SMALL_USERS + 1))
    silent = int(rng.integers(1, SMALL_USERS + 1))
    plan = NetworkPlan.from_orders(grid, FbgSpec(SIGMA_FILT), base, users,
                                   [silent] + [u for u in users if u != silent])
    phases = rng.uniform(0.0, 2.0 * np.pi, SMALL_USERS + 1)
    per_bin = []
    for k in range(n_bins):
        word = tuple(int(i == k) for i in range(n_bins))
        traces = [
            propagate_photon(UserChannel(u, plan.codes[u], word, float(phases[u])),
                             silent, plan)
            for u in users if u != silent
        ]
        per_bin.append(crosstalk_probability(traces))
    return per_bin


def _crosstalk_check(seed: int, out: Path) -> list[str]:
    cells = _report_cells(out / "crosstalk.json")
    expected = {(n, u, "") for n in CROSSTALK_REGISTERS for u in CROSSTALK_USERS}
    problems = checks.layout_problems("crosstalk", cells, expected, CROSSTALK_TRIALS)
    problems += checks.crosstalk_problems(cells)
    n, users = CROSSTALK_REGISTERS[0], CROSSTALK_USERS[0]
    alone = run_experiment(reproduction_config(
        "crosstalk", n_registers=(n,), users=(users,), trials=CROSSTALK_TRIALS,
        rng_seed=seed)).cell(n, users)
    in_grid = [c for c in cells if (c["n_registers"], c["users"]) == (n, users)]
    if in_grid:
        problems += checks.same_cell_problems(in_grid[0], vars(alone))
    problems += checks.bin_symmetry_problems(_single_one_crosstalk(seed))
    problems += _reference_walk("crosstalk", seed, 8, "silent_first")
    return problems


# --------------------------------------------------------------------- loss

LOSS_REGISTERS = (8, 10, 12, 14)
LOSS_USERS = (1, 5, 20, 50)  # N = 1 is the exact two-reflection check
LOSS_TRIALS = 3


def _loss_argv(seed: int, out: Path) -> list[str]:
    return ["tables", "--which", "loss", "--n-registers", _csv(LOSS_REGISTERS),
            "--users", _csv(LOSS_USERS), "--trials", str(LOSS_TRIALS),
            "--seed", str(seed), "--format", "json", "--out-dir", str(out)]


def _loss_check(seed: int, out: Path) -> list[str]:
    cells = _report_cells(out / "loss.json")
    expected = {(n, u, "") for n in LOSS_REGISTERS for u in LOSS_USERS}
    problems = checks.layout_problems("loss", cells, expected, LOSS_TRIALS)
    floors = {}
    for n in LOSS_REGISTERS:
        base, code_problems = _base_code(n)
        problems += code_problems
        floors[n] = ReferenceChain(base.chips, 1, SIGMA_FILT).reflection_losses()
    problems += checks.loss_problems(cells, floors)
    problems += _reference_walk("loss", seed, 1, "fifo")
    return problems


# ----------------------------------------------------------------- fidelity

FIDELITY_REGISTERS = (10,)
FIDELITY_USERS = (5, 20, 50)
FIDELITY_TRIALS = 16
FIDELITY_STATES = ("zero", "one", "plus", "minus")


def _fidelity_argv(seed: int, out: Path) -> list[str]:
    return ["tables", "--which", "fidelity", "--n-registers", _csv(FIDELITY_REGISTERS),
            "--users", _csv(FIDELITY_USERS), "--trials", str(FIDELITY_TRIALS),
            "--seed", str(seed), "--format", "json", "--out-dir", str(out)]


def _fidelity_check(seed: int, out: Path) -> list[str]:
    cells = _report_cells(out / "fidelity.json")
    expected = {(n, u, s) for n in FIDELITY_REGISTERS for u in FIDELITY_USERS
                for s in FIDELITY_STATES}
    problems = checks.layout_problems("fidelity", cells, expected, FIDELITY_TRIALS)
    problems += checks.fidelity_problems(cells)
    problems += _reference_walk("fidelity", seed, 2, "random")
    return problems


# -------------------------------------------------------------------- trace

TRACE_REGISTERS = 12
TRACE_USERS = 5
TRACE_BITS = 8


def _trace_argv(seed: int, out: Path) -> list[str]:
    return ["traces", "--n-registers", str(TRACE_REGISTERS),
            "--users", str(TRACE_USERS), "--bits-per-user", str(TRACE_BITS),
            "--seed", str(seed), "--out", str(out / "trace.csv"),
            "--density", str(out / "density.csv")]


def read_trace(path: Path) -> tuple[dict[int, tuple[int, ...]], dict[int, list[float]]]:
    """Words per user and detections per receiver from a trace CSV."""
    words: dict[int, tuple[int, ...]] = {}
    detections: dict[int, list[float]] = {}
    for line in path.read_text().splitlines():
        if line.startswith("# word user="):
            user, word = line[len("# word user="):].split(": ")
            words[int(user)] = tuple(int(b) for b in word)
        elif line and line[0].isdigit():
            receiver, _bin, _sent, detected = line.split(",")
            detections.setdefault(int(receiver), []).append(float(detected))
    return words, detections


def _trace_check(seed: int, out: Path) -> list[str]:
    words, detections = read_trace(out / "trace.csv")
    problems = []
    users = set(range(1, TRACE_USERS + 1))
    if set(words) != users or set(detections) != users:
        problems.append(f"trace: users {sorted(words)} / receivers "
                        f"{sorted(detections)}, expected {sorted(users)}")
    problems += [f"trace receiver {r}: {len(v)} bins, expected {TRACE_BITS}"
                 for r, v in sorted(detections.items()) if len(v) != TRACE_BITS]
    problems += checks.trace_problems(words, detections)

    density = np.loadtxt(out / "density.csv", delimiter=",", comments="#",
                         skiprows=5, ndmin=2)
    spreading = 2**TRACE_REGISTERS - 1
    per_bin = density[:, 1:].reshape(TRACE_BITS, spreading * 4, -1).sum(axis=1)
    per_bin /= spreading * 4
    integrated = {u: per_bin[:, i].tolist() for i, u in enumerate(sorted(users))}
    problems += checks.density_problems(detections, integrated)
    problems += _reference_walk("trace", seed, TRACE_BITS, "fifo")
    return problems


WORKLOADS = {
    "crosstalk": Workload(
        "crosstalk", CROSSTALK_REGISTERS, len(CROSSTALK_REGISTERS) * len(CROSSTALK_USERS),
        CROSSTALK_TRIALS * len(CROSSTALK_REGISTERS) * sum(u - 1 for u in CROSSTALK_USERS),
        _crosstalk_argv, _crosstalk_check),
    "loss": Workload(
        "loss", LOSS_REGISTERS, len(LOSS_REGISTERS) * len(LOSS_USERS),
        LOSS_TRIALS * len(LOSS_REGISTERS) * len(LOSS_USERS),
        _loss_argv, _loss_check),
    "fidelity": Workload(
        "fidelity", FIDELITY_REGISTERS,
        len(FIDELITY_REGISTERS) * len(FIDELITY_USERS) * len(FIDELITY_STATES),
        FIDELITY_TRIALS * len(FIDELITY_REGISTERS) * len(FIDELITY_USERS) * len(FIDELITY_STATES),
        _fidelity_argv, _fidelity_check),
    "trace": Workload(
        "trace", (TRACE_REGISTERS,), TRACE_USERS, TRACE_USERS**2,
        _trace_argv, _trace_check),
}
