"""Tests of the benchmark's checks.

Every check passes on the program's own outputs and fails when one value is
perturbed: a wrong grating width, a wrong code, a swapped state label, an
inflated detection. So no check passes by construction. The workloads are
shrunk to small register counts here, so the whole file runs in seconds:

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from reference import ReferenceChain, msequence_problems  # noqa: E402
from spreadmux.cli import main as spreadmux_main  # noqa: E402
from spreadmux.codes import LfsrSpec, msequence_code  # noqa: E402
from spreadmux.network import NetworkPlan, UserChannel, propagate_photon  # noqa: E402
from spreadmux.optics import FbgSpec  # noqa: E402
from spreadmux.signal import TimeGrid  # noqa: E402

SEED = 7

SMALL = {
    "crosstalk": {"CROSSTALK_REGISTERS": (5, 6), "CROSSTALK_USERS": (3, 5)},
    "loss": {"LOSS_REGISTERS": (5, 6), "LOSS_USERS": (1, 3)},
    "fidelity": {"FIDELITY_REGISTERS": (6,), "FIDELITY_USERS": (3, 5),
                 "FIDELITY_TRIALS": 3},
    "trace": {"TRACE_REGISTERS": 6, "TRACE_USERS": 3, "TRACE_BITS": 4},
}


@pytest.fixture(params=sorted(SMALL))
def small_run(request, monkeypatch, tmp_path):
    """A shrunken workload run through the program's command line."""
    name = request.param
    for attr, value in SMALL[name].items():
        monkeypatch.setattr(workloads, attr, value)
    workload = workloads.WORKLOADS[name]
    assert spreadmux_main(workload.argv(SEED, tmp_path)) == 0
    return workload, tmp_path


def _edit_cells(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload["cells"])
    path.write_text(json.dumps(payload))


def test_workload_checks_pass_on_program_outputs(small_run):
    workload, out = small_run
    assert workload.check(SEED, out) == []


def test_workload_checks_fail_on_perturbed_outputs(small_run):
    workload, out = small_run
    if workload.name == "crosstalk":
        def edit(cells):  # the cell that is rerun on its own
            cells[0]["mean"] *= 1 + 1e-9
        _edit_cells(out / "crosstalk.json", edit)
    elif workload.name == "loss":
        def edit(cells):  # a single-user cell
            cells[0]["mean"] *= 1 + 1e-6
        _edit_cells(out / "loss.json", edit)
    elif workload.name == "fidelity":
        def edit(cells):  # swap the labels zero and plus
            for cell in cells:
                cell["label"] = {"zero": "plus", "plus": "zero"}.get(cell["label"], cell["label"])
        _edit_cells(out / "fidelity.json", edit)
    else:
        lines = (out / "trace.csv").read_text().splitlines()
        last = lines[-1].split(",")
        last[-1] = repr(float(last[-1]) + 1.0)  # one detection inflated
        lines[-1] = ",".join(last)
        (out / "trace.csv").write_text("\n".join(lines) + "\n")
    assert workload.check(SEED, out)


def test_loss_check_fails_on_wrong_grating_width(monkeypatch, tmp_path):
    for attr, value in SMALL["loss"].items():
        monkeypatch.setattr(workloads, attr, value)
    workload = workloads.WORKLOADS["loss"]
    argv = workload.argv(SEED, tmp_path) + ["--sigma-filt", "8.08"]
    assert spreadmux_main(argv) == 0
    problems = workload.check(SEED, tmp_path)
    assert any("two-reflection" in p for p in problems)


# ---------------------------------------------------------- reference chain


@pytest.mark.parametrize("n", range(2, 12))
def test_program_codes_are_m_sequences(n):
    assert msequence_problems(msequence_code(LfsrSpec(n)).chips) == []


def test_msequence_check_fails_on_broken_codes():
    chips = msequence_code(LfsrSpec(7)).chips.astype(np.int64)
    flipped = chips.copy()
    flipped[3] *= -1
    assert any("balance" in p for p in msequence_problems(flipped))
    swapped = chips.copy()
    k = int(np.nonzero(chips != chips[0])[0][0])
    swapped[[0, k]] = swapped[[k, 0]]  # same balance, broken correlation
    assert any("autocorrelation" in p for p in msequence_problems(swapped))
    assert any("2**n - 1" in p for p in msequence_problems(np.tile([1, -1, -1], 2)))
    repeated = np.tile(msequence_code(LfsrSpec(3)).chips, 9)[:63]
    assert msequence_problems(repeated)


def _walk(sigma_filt=workloads.SIGMA_FILT, shift=0, phase=0.9):
    """One silent-first walk on 8 bins, by the program and the reference."""
    base = msequence_code(LfsrSpec(6))
    grid = TimeGrid(1.0, base.spreading_factor, 4, 8)
    adds, drops = [1, 2, 3, 4], [3, 1, 2, 4]
    bits = (1, 0, 1, 1, 0, 0, 1, 0)
    plan = NetworkPlan.from_orders(grid, FbgSpec(sigma_filt), base, adds, drops)
    program = propagate_photon(UserChannel(2, plan.codes[2], bits, phase), 3, plan)
    chain = ReferenceChain(base.chips, 8, workloads.SIGMA_FILT)
    reference = chain.deliver(chain.launch(bits, 0.9), [u + shift for u in adds],
                              [u + shift for u in drops], 2 + shift, 3 + shift)
    return program.envelope.samples, reference


def test_reference_chain_agrees_with_program_walks():
    program, reference = _walk()
    assert checks.walk_problems("walk", program, reference) == []
    for seed in range(3):
        for n_bins, shape in ((1, "fifo"), (8, "silent_first"), (2, "random"), (8, "fifo")):
            assert workloads._reference_walk("walk", seed, n_bins, shape) == []


@pytest.mark.parametrize("perturbation", [
    {"sigma_filt": 8.08}, {"shift": 1}, {"phase": 0.0},
])
def test_walk_check_fails_on_perturbed_chain(perturbation):
    program, reference = _walk(**perturbation)
    assert checks.walk_problems("walk", program, reference)


def test_reference_two_reflection_loss_at_n8():
    once, twice = ReferenceChain(msequence_code(LfsrSpec(8)).chips, 1, 8.0).reflection_losses()
    assert twice == pytest.approx(0.0373738643, abs=1e-10)
    assert 0.0 < once < twice


# ------------------------------------------------------------ value checks


def test_loss_bounds():
    floors = {8: (0.0192, 0.0374)}
    good = [{"n_registers": 8, "users": 1, "mean": 0.0374},
            {"n_registers": 8, "users": 5, "mean": 0.28}]
    assert checks.loss_problems(good, floors) == []
    for mean in (0.01, 1.01):
        bad = good[:1] + [{"n_registers": 8, "users": 5, "mean": mean}]
        assert checks.loss_problems(bad, floors)


def _fidelity_cells(**means):
    return [{"n_registers": 10, "users": 5, "label": label, "mean": mean}
            for label, mean in means.items()]


def test_fidelity_bounds_and_pairs():
    good = dict(zero=1.2e-3, one=1.2e-3 * (1 + 1e-9), plus=1.3e-3, minus=1.1e-3)
    assert checks.fidelity_problems(_fidelity_cells(**good)) == []
    assert checks.fidelity_problems(_fidelity_cells(**{**good, "plus": -1e-3}))
    assert checks.fidelity_problems(_fidelity_cells(**{**good, "minus": 1.5}))
    missing = {k: v for k, v in good.items() if k != "one"}
    assert checks.fidelity_problems(_fidelity_cells(**missing))


def test_crosstalk_is_non_negative():
    cells = [{"n_registers": 8, "users": 5, "mean": 0.06}]
    assert checks.crosstalk_problems(cells) == []
    assert checks.crosstalk_problems([{**cells[0], "mean": -1e-12}])


def test_same_cell():
    cell = {"n_registers": 8, "users": 5, "mean": 0.0634, "stderr": 0.004}
    assert checks.same_cell_problems(cell, dict(cell)) == []
    assert checks.same_cell_problems(cell, {**cell, "stderr": 0.0041})


def test_bin_symmetry():
    per_bin = workloads._single_one_crosstalk(SEED)
    assert checks.bin_symmetry_problems(per_bin) == []
    per_bin[3] *= 1 + 1e-5
    assert checks.bin_symmetry_problems(per_bin)


def test_trace_bounds():
    words = {1: (1, 0), 2: (1, 1)}
    good = {1: [0.9, 0.01], 2: [0.95, 0.9]}
    assert checks.trace_problems(words, good) == []
    assert checks.trace_problems(words, {**good, 1: [0.9, 0.5]})
    assert checks.trace_problems(words, {**good, 1: [0.9, -1e-9]})


def test_density_matches_detections():
    detections = {1: [0.9, 0.01]}
    assert checks.density_problems(detections, {1: [0.9, 0.01 * (1 + 1e-9)]}) == []
    assert checks.density_problems(detections, {1: [0.9, 0.011]})
    assert checks.density_problems(detections, {})


def test_layout():
    cells = [{"n_registers": 8, "users": 5, "trials": 2}]
    assert checks.layout_problems("x", cells, {(8, 5, "")}, 2) == []
    assert checks.layout_problems("x", cells, {(8, 5, ""), (8, 20, "")}, 2)
    assert checks.layout_problems("x", cells, {(8, 5, "")}, 3)
