"""Property checks on the program's outputs.

Each check takes plain values and returns a list of problems, empty when the
values pass. The checks know nothing about how the values were made, so the
benchmark's tests can feed them perturbed values and see them fail.
"""

from __future__ import annotations

import math

import numpy as np

# A real-FFT or reordered rewrite of the chain moves results by rounding
# only, about 1e-15; a wrong grating width or code moves them by 1e-3.
WALK_RTOL = 1e-9
# Only the truncated packet tails break the one-bin shift symmetry; measured
# 1e-10 to 2e-8 relative on the benchmark's scenarios.
SHIFT_RTOL = 1e-6
# Reports print 10 significant digits.
PRINTED_RTOL = 1e-7


def layout_problems(kind: str, cells: list[dict], expected: set[tuple],
                    trials: int) -> list[str]:
    """The report holds exactly the expected (n, N, label) cells."""
    got = [(c["n_registers"], c["users"], c.get("label", "")) for c in cells]
    problems = []
    if sorted(got) != sorted(expected):
        problems.append(f"{kind}: cells {sorted(got)} != expected {sorted(expected)}")
    problems += [f"{kind} n={c['n_registers']} N={c['users']}: {c['trials']} trials, "
                 f"expected {trials}" for c in cells if c["trials"] != trials]
    return problems


def walk_problems(label: str, program: np.ndarray, reference: np.ndarray) -> list[str]:
    """The program's delivered amplitude against the reference chain's."""
    program = np.asarray(program)
    reference = np.asarray(reference)
    if program.shape != reference.shape:
        return [f"{label}: amplitude shape {program.shape} != reference {reference.shape}"]
    scale = float(np.max(np.abs(reference)))
    error = float(np.max(np.abs(program - reference)))
    if not error <= WALK_RTOL * scale:
        return [f"{label}: amplitude differs from the reference by {error:.3e} "
                f"(peak {scale:.3e})"]
    return []


def loss_problems(cells: list[dict], floors: dict[int, tuple[float, float]]) -> list[str]:
    """Loss cells against the grating's one- and two-reflection losses.

    ``floors`` maps a register count to (one-reflection, two-reflection)
    loss. A single user loses exactly the two reflections; any user loses at
    least the reflection of its own add, and at most everything.
    """
    problems = []
    for cell in cells:
        n, users, mean = cell["n_registers"], cell["users"], cell["mean"]
        once, twice = floors[n]
        where = f"loss n={n} N={users}"
        if users == 1 and not math.isclose(mean, twice, rel_tol=WALK_RTOL, abs_tol=0.0):
            problems.append(f"{where}: {mean!r} != two-reflection loss {twice!r}")
        if not once <= mean <= 1.0:
            problems.append(f"{where}: {mean!r} outside [{once!r}, 1]")
    return problems


def fidelity_problems(cells: list[dict]) -> list[str]:
    """Infidelities lie in [0, 1], and 'zero' matches 'one' in every cell.

    The two states differ by a one-bin shift, under which the chain is
    invariant, and each trial sends both through the same arrangement.
    """
    problems = []
    by_label: dict[tuple[int, int], dict[str, float]] = {}
    for cell in cells:
        key = (cell["n_registers"], cell["users"])
        by_label.setdefault(key, {})[cell["label"]] = cell["mean"]
        if not 0.0 <= cell["mean"] <= 1.0:
            problems.append(f"fidelity n={key[0]} N={key[1]} {cell['label']}: "
                            f"infidelity {cell['mean']!r} outside [0, 1]")
    for (n, users), means in sorted(by_label.items()):
        zero, one = means.get("zero"), means.get("one")
        if zero is None or one is None:
            problems.append(f"fidelity n={n} N={users}: missing zero or one state")
        elif not math.isclose(zero, one, rel_tol=SHIFT_RTOL, abs_tol=0.0):
            problems.append(f"fidelity n={n} N={users}: zero {zero!r} != one {one!r}")
    return problems


def crosstalk_problems(cells: list[dict]) -> list[str]:
    """Crosstalk is a collected probability, so never negative."""
    return [
        f"crosstalk n={c['n_registers']} N={c['users']}: {c['mean']!r} < 0"
        for c in cells
        if not c["mean"] >= 0.0
    ]


def same_cell_problems(in_grid: dict, alone: dict) -> list[str]:
    """A cell run on its own equals the same cell inside the grid.

    The program promises order-independent trials, so the two agree up to
    rounding, 1e-12 relative.
    """
    problems = []
    for field in ("mean", "stderr"):
        a, b = in_grid[field], alone[field]
        if not math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0):
            problems.append(f"cell n={in_grid['n_registers']} N={in_grid['users']}: "
                            f"{field} {a!r} in the grid, {b!r} alone")
    return problems


def bin_symmetry_problems(per_bin: list[float]) -> list[str]:
    """A single-1 word leaks the same crosstalk whatever bin holds the 1."""
    values = np.asarray(per_bin, dtype=np.float64)
    spread = float(values.max() - values.min())
    if not spread <= SHIFT_RTOL * float(np.abs(values).max()):
        return [f"single-1 crosstalk differs between bins by {spread:.3e}: "
                f"{values.tolist()}"]
    return []


def trace_problems(words: dict[int, tuple[int, ...]],
                   detections: dict[int, list[float]]) -> list[str]:
    """Detections are non-negative and never exceed the photons launched."""
    problems = []
    launched = sum(sum(word) for word in words.values())
    total = 0.0
    for receiver, values in sorted(detections.items()):
        for k, value in enumerate(values):
            if not value >= 0.0:
                problems.append(f"trace receiver {receiver} bin {k}: detection {value!r} < 0")
            total += value
    if not total <= launched * (1.0 + PRINTED_RTOL):
        problems.append(f"trace: {total!r} photons detected, {launched} launched")
    return problems


def density_problems(detections: dict[int, list[float]],
                     from_density: dict[int, list[float]]) -> list[str]:
    """The density file integrates, bin by bin, to the reported detections."""
    problems = []
    for receiver, values in sorted(detections.items()):
        integrated = from_density.get(receiver)
        if integrated is None or len(integrated) != len(values):
            problems.append(f"density: receiver {receiver} missing or wrong length")
            continue
        for k, (value, other) in enumerate(zip(values, integrated)):
            if not math.isclose(value, other, rel_tol=PRINTED_RTOL, abs_tol=1e-12):
                problems.append(f"density: receiver {receiver} bin {k} integrates "
                                f"to {other!r}, detection {value!r}")
    return problems
