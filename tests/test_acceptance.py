"""Release gate: exact invariants, code properties, published-table
reproduction, golden means, word traces, bound trend and determinism.

The statistical sections run the full reproduction presets (seed 12345,
50/32/64 trials) and compare each cell against the reference value with
the agreed tolerance: |mean - target| <= max(rel * target, abs_floor)
plus two standard errors; the golden means pin the same cells far more
tightly, from the same module-scoped reports. Expect several minutes of
runtime; the crosstalk grid dominates. Set SPREADMUX_FULL=1 to add the
n=14 crosstalk column.
"""

import math
import os

import numpy as np
import pytest

from spreadmux.codes import (
    DEFAULT_TAPS,
    LfsrSpec,
    code_inner,
    lfsr_sequence,
    msequence_code,
    shift_code,
)
from spreadmux.experiments import (
    ScenarioConfig,
    reproduction_config,
    run_experiment,
    run_trace,
)
from spreadmux.metrics import COW_LABELS, fidelity, ideal_loss_bound
from spreadmux.network import NetworkPlan, UserChannel, propagate_photon
from spreadmux.optics import FbgSpec, grating_response, modulate, mux_old_path
from spreadmux.signal import (
    SampledEnvelope,
    TimeGrid,
    gaussian_packet,
    norm_sq,
    spectral_norm_sq,
    to_frequency,
    to_time,
)

FULL_GRID = os.environ.get("SPREADMUX_FULL", "") not in ("", "0")

# reference mean loss for (n, users); the n=14 row doubles as the optional
# long-running column and is cheap for this metric, so it always runs
REFERENCE_LOSS = {
    (8, 5): 0.3240, (8, 20): 0.8301, (8, 50): 0.9893,
    (10, 5): 0.1199, (10, 20): 0.3723, (10, 50): 0.6729,
    (12, 5): 0.0585, (12, 20): 0.1339, (12, 50): 0.2642,
    (14, 5): 0.0426, (14, 20): 0.0620, (14, 50): 0.0998,
}
REFERENCE_CROSSTALK = {
    (8, 5): 0.0634, (8, 20): 0.2244, (8, 50): 0.3889,
    (10, 5): 0.0185, (10, 20): 0.0730, (10, 50): 0.1679,
    (12, 5): 0.0086, (12, 20): 0.0260, (12, 50): 0.0519,
    (14, 5): 0.0025, (14, 20): 0.0050, (14, 50): 0.0127,
}
REFERENCE_INFIDELITY = {(10, 5): 1.079e-3, (10, 20): 2.34e-3, (10, 50): 5.62e-3}

TABLE_REL, TABLE_ABS = 0.25, 0.05
INFIDELITY_REL = 0.50
PAIRWISE_REL = 0.10

# Full-precision seed-12345 means of the three reproduction presets,
# recorded with the complex-FFT walk that the real-arithmetic walk
# replaced. Rounding moves them by about 1e-14 relative; any change to
# the modelled physics moves them far beyond GOLDEN_REL. The acceptance
# band above is much looser and cannot tell those apart for small cells.
GOLDEN_REL = 1e-9
GOLDEN_LOSS = {
    (8, 5): 0.28119161305857215,
    (8, 20): 0.716289067898792,
    (8, 50): 0.9722709686263253,
    (10, 5): 0.11342577615955747,
    (10, 20): 0.30398070595184024,
    (10, 50): 0.5739863404329727,
    (12, 5): 0.06134122344156774,
    (12, 20): 0.12481487490228975,
    (12, 50): 0.22819390819340002,
    (14, 5): 0.039518989771910935,
    (14, 20): 0.055548738071115246,
    (14, 50): 0.07937055259680531,
}
GOLDEN_CROSSTALK = {
    (8, 5): 0.06335590396184508,
    (8, 20): 0.21006700561042435,
    (8, 50): 0.37050957431322173,
    (10, 5): 0.015320280007399108,
    (10, 20): 0.06660682381054504,
    (10, 50): 0.1416031867228174,
    (12, 5): 0.004793854114393812,
    (12, 20): 0.021175424049874016,
    (12, 50): 0.04182054169957846,
}
GOLDEN_INFIDELITY = {
    (10, 5, "zero"): 0.0012546363222659639,
    (10, 5, "one"): 0.0012546363195729618,
    (10, 5, "plus"): 0.0012561414137678244,
    (10, 5, "minus"): 0.0012531303195574203,
    (10, 20, "zero"): 0.0020351934908960454,
    (10, 20, "one"): 0.002035193470173422,
    (10, 20, "plus"): 0.002040396070498697,
    (10, 20, "minus"): 0.0020299791045204074,
    (10, 50, "zero"): 0.005026162859183638,
    (10, 50, "one"): 0.00502616285988651,
    (10, 50, "plus"): 0.005042035634251785,
    (10, 50, "minus"): 0.005010181210948693,
}


def assert_within(mean, stderr, target, rel, abs_floor=0.0):
    bound = max(rel * target, abs_floor) + 2.0 * stderr
    assert abs(mean - target) <= bound, (
        f"mean {mean:.6g} misses target {target:.6g} by "
        f"{abs(mean - target):.4g} (allowed {bound:.4g})"
    )


def strictly_increasing(values):
    return all(a < b for a, b in zip(values, values[1:]))


@pytest.fixture(scope="module")
def loss_report():
    return run_experiment(reproduction_config("loss"))


@pytest.fixture(scope="module")
def crosstalk_report():
    return run_experiment(reproduction_config("crosstalk", full=FULL_GRID))


@pytest.fixture(scope="module")
def infidelity_report():
    return run_experiment(reproduction_config("fidelity"))


@pytest.fixture(scope="module")
def long_code_trace():
    return run_trace(ScenarioConfig(kind="trace"))


@pytest.fixture(scope="module")
def short_code_trace():
    return run_trace(ScenarioConfig(kind="trace", n_registers=(8,)))


@pytest.fixture(scope="module")
def bound_report():
    return run_experiment(
        ScenarioConfig(
            kind="loss", n_registers=(12, 13, 14, 15), users=(5,), trials=16
        )
    )


class TestExactInvariants:
    """Machine-precision identities of the optical building blocks."""

    def test_modulator_self_inverse_and_norm_preserving(self):
        grid = TimeGrid(1.0, 31, 4)
        rng = np.random.default_rng(42)
        values = rng.normal(size=grid.n_samples) + 1j * rng.normal(size=grid.n_samples)
        env = SampledEnvelope(grid, values)
        code = shift_code(msequence_code(LfsrSpec(5)), 3)
        once = modulate(env, code)
        twice = modulate(once, code)
        assert norm_sq(once) == pytest.approx(norm_sq(env), rel=1e-12)
        assert np.max(np.abs(twice.samples - env.samples)) <= 1e-12

    def test_grating_energy_complementarity(self):
        grid = TimeGrid(1.0, 31, 4)
        for fbg in (
            FbgSpec(sigma_filt=8.0),
            FbgSpec(sigma_filt=3.5, peak_reflectivity=0.6),
            FbgSpec(sigma_filt=math.inf),
        ):
            r, t = grating_response(grid.frequencies, fbg)
            assert np.max(np.abs(np.abs(r) ** 2 + np.abs(t) ** 2 - 1.0)) <= 1e-12

    def test_fourier_roundtrip_and_parseval(self):
        grid = TimeGrid(1.0, 31, 4)
        packet = gaussian_packet(grid) * np.exp(0.7j)
        spectrum = to_frequency(packet)
        back = to_time(grid, spectrum)
        assert np.max(np.abs(back.samples - packet.samples)) <= 1e-12
        assert spectral_norm_sq(grid, spectrum) == pytest.approx(
            norm_sq(packet), rel=1e-12
        )

    def test_spread_despread_roundtrip_unit_fidelity(self):
        # with a lossless mirror grating the add-drop pair must return the
        # packet bit for bit: modulate, reflect, modulate, reflect
        grid = TimeGrid(1.0, 31, 4, n_bins=2)
        base = msequence_code(LfsrSpec(5))
        mirror = FbgSpec(sigma_filt=math.inf)
        plan = NetworkPlan.fifo(grid, mirror, base, 1)
        channel = UserChannel(1, plan.codes[1], (1, 0))
        trace = propagate_photon(channel, 1, plan)
        sent = gaussian_packet(grid, 0)
        assert norm_sq(trace.envelope) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(sent, trace.envelope) == pytest.approx(1.0, abs=1e-12)

    def test_zero_reflectivity_stage_is_transparent(self):
        grid = TimeGrid(1.0, 31, 4)
        base = msequence_code(LfsrSpec(5))
        packet = gaussian_packet(grid)
        out = mux_old_path(packet, shift_code(base, 2), FbgSpec(8.0, peak_reflectivity=0.0))
        assert np.max(np.abs(out.samples - packet.samples)) <= 1e-12


class TestCodeFamilyProperties:
    """Period, balance, autocorrelation and cross products of the family."""

    EXHAUSTIVE = [n for n in sorted(DEFAULT_TAPS) if n <= 10]
    SAMPLED = [n for n in sorted(DEFAULT_TAPS) if 10 < n <= 16]

    @pytest.mark.parametrize("n", EXHAUSTIVE)
    def test_exhaustive_small_registers(self, n):
        period = 2**n - 1
        bits = lfsr_sequence(LfsrSpec(n))
        assert len(bits) == period
        assert int(bits.sum()) == 2 ** (n - 1)  # balance: one extra 1 over 0s
        chips = msequence_code(LfsrSpec(n)).chips.astype(float)
        # circular autocorrelation at every lag via the power spectrum
        acf = np.rint(np.fft.ifft(np.abs(np.fft.fft(chips)) ** 2).real).astype(int)
        assert acf[0] == period
        assert np.all(acf[1:] == -1)
        # the lag property is exactly the pairwise inner product of shifted
        # codes; spot-check the code-level API agrees
        base = msequence_code(LfsrSpec(n))
        for i, j in ((0, 1), (1, period - 1), (2, n)):
            if i % period != j % period:
                assert code_inner(shift_code(base, i), shift_code(base, j)) == -1

    @pytest.mark.parametrize("n", SAMPLED)
    def test_sampled_large_registers(self, n):
        period = 2**n - 1
        bits = lfsr_sequence(LfsrSpec(n))
        assert len(bits) == period
        assert int(bits.sum()) == 2 ** (n - 1)
        base = msequence_code(LfsrSpec(n))
        chips = base.chips.astype(np.int64)
        rng = np.random.default_rng(n)
        for lag in rng.integers(1, period, size=24):
            assert int(chips @ np.roll(chips, int(lag))) == -1
        pairs = rng.integers(0, period, size=(12, 2))
        for i, j in pairs:
            if i == j:
                continue
            assert code_inner(shift_code(base, int(i)), shift_code(base, int(j))) == -1


class TestMeanLossReproduction:
    def test_grid_within_tolerance(self, loss_report):
        for (n, users), target in REFERENCE_LOSS.items():
            cell = loss_report.cell(n, users)
            assert cell.trials >= 50
            assert_within(cell.mean, cell.stderr, target, TABLE_REL, TABLE_ABS)

    def test_strictly_monotone_in_users_and_spreading(self, loss_report):
        ns = sorted({c.n_registers for c in loss_report.cells})
        counts = sorted({c.users for c in loss_report.cells})
        for n in ns:
            row = [loss_report.cell(n, u).mean for u in counts]
            assert strictly_increasing(row), f"loss not increasing in N at n={n}"
        for u in counts:
            col = [loss_report.cell(n, u).mean for n in ns]
            assert strictly_increasing(col[::-1]), f"loss not decreasing in S at N={u}"


class TestCrosstalkReproduction:
    def test_grid_within_tolerance(self, crosstalk_report):
        measured = {(c.n_registers, c.users) for c in crosstalk_report.cells}
        expected = {(n, u) for n in (8, 10, 12) for u in (5, 20, 50)}
        assert expected <= measured
        for (n, users), target in REFERENCE_CROSSTALK.items():
            if (n, users) not in measured:
                continue  # n=14 column only with SPREADMUX_FULL=1
            cell = crosstalk_report.cell(n, users)
            assert cell.trials >= 32
            assert_within(cell.mean, cell.stderr, target, TABLE_REL, TABLE_ABS)

    def test_strictly_monotone_in_users_and_spreading(self, crosstalk_report):
        ns = sorted({c.n_registers for c in crosstalk_report.cells})
        counts = sorted({c.users for c in crosstalk_report.cells})
        for n in ns:
            row = [crosstalk_report.cell(n, u).mean for u in counts]
            assert strictly_increasing(row), f"crosstalk not increasing in N at n={n}"
        for u in counts:
            col = [crosstalk_report.cell(n, u).mean for n in ns]
            assert strictly_increasing(col[::-1]), (
                f"crosstalk not decreasing in S at N={u}"
            )


class TestInfidelityReproduction:
    @staticmethod
    def state_cells(report, n, users):
        return [report.cell(n, users, label) for label in COW_LABELS]

    def test_state_average_within_tolerance(self, infidelity_report):
        for (n, users), target in REFERENCE_INFIDELITY.items():
            cells = self.state_cells(infidelity_report, n, users)
            assert all(c.trials >= 64 for c in cells)
            mean = sum(c.mean for c in cells) / len(cells)
            stderr = math.sqrt(sum(c.stderr**2 for c in cells)) / len(cells)
            assert_within(mean, stderr, target, INFIDELITY_REL)

    def test_states_agree_pairwise(self, infidelity_report):
        for n, users in REFERENCE_INFIDELITY:
            cells = self.state_cells(infidelity_report, n, users)
            hi = max(cells, key=lambda c: c.mean)
            lo = min(cells, key=lambda c: c.mean)
            allowed = PAIRWISE_REL * hi.mean + 2.0 * (hi.stderr + lo.stderr)
            assert hi.mean - lo.mean <= allowed, (
                f"state means spread {hi.mean - lo.mean:.3g} > {allowed:.3g} "
                f"at N={users}"
            )

    def test_strictly_increasing_in_users(self, infidelity_report):
        means = [
            sum(c.mean for c in self.state_cells(infidelity_report, 10, u)) / 4
            for u in (5, 20, 50)
        ]
        assert strictly_increasing(means)


class TestGoldenMeans:
    """Every seed-12345 cell pinned to GOLDEN_REL, from the module reports."""

    def test_loss_cells(self, loss_report):
        for (n, users), mean in GOLDEN_LOSS.items():
            assert loss_report.cell(n, users).mean == pytest.approx(mean, rel=GOLDEN_REL)

    def test_crosstalk_cells(self, crosstalk_report):
        for (n, users), mean in GOLDEN_CROSSTALK.items():
            assert crosstalk_report.cell(n, users).mean == pytest.approx(
                mean, rel=GOLDEN_REL
            )

    def test_infidelity_cells(self, infidelity_report):
        for (n, users, label), mean in GOLDEN_INFIDELITY.items():
            assert infidelity_report.cell(n, users, label).mean == pytest.approx(
                mean, rel=GOLDEN_REL
            )


def bin_extremes(result):
    """Smallest 1-bit detection and largest 0-bit detection over all users."""
    ones, zeros = [], []
    for uid in result.users:
        for bit, det in zip(result.bits[uid], result.detections[uid]):
            (ones if bit else zeros).append(float(det))
    return min(ones), max(zeros)


class TestWordTraces:
    def test_long_code_word_recovered_cleanly(self, long_code_trace):
        assert long_code_trace.config.n_registers == (15,)
        min_one, max_zero = bin_extremes(long_code_trace)
        assert min_one >= 0.9
        assert max_zero <= 0.05

    def test_short_code_word_visibly_distorted(self, short_code_trace, long_code_trace):
        min_one, max_zero = bin_extremes(short_code_trace)
        clean_one, clean_zero = bin_extremes(long_code_trace)
        # the word survives, but the long-code cleanliness is clearly gone
        assert min_one > 0.4
        assert max_zero > 0.05 or min_one < 0.9
        assert max_zero > clean_zero + 0.02
        assert min_one < clean_one - 0.02


class TestIdealBoundTrend:
    @staticmethod
    def grating_floor():
        # deterministic cost of the one matched add-drop trip (two
        # reflections); the chain terms sit on top of this
        grid = TimeGrid(1.0, 4095, 4)
        packet = gaussian_packet(grid)
        r, _ = grating_response(grid.frequencies, FbgSpec(8.0))
        return 1.0 - spectral_norm_sq(grid, to_frequency(packet) * r * r)

    def test_loss_decreases_with_spreading(self, bound_report, capsys):
        floor = self.grating_floor()
        rows = [
            (c.n_registers, c.spreading, c.mean, ideal_loss_bound(c.users, c.spreading))
            for c in bound_report.cells
        ]
        with capsys.disabled():
            print("\nmean loss vs ideal add-drop bound, N=5:")
            print("  n      S  mean_loss     excess  (2N-2)/S  excess/bound")
            for n, s, mean, bound in rows:
                print(
                    f"  {n:2d} {s:6d}  {mean:9.6f}  {mean - floor:9.6f} "
                    f"{bound:9.6f}  {(mean - floor) / bound:10.2f}"
                )
        means = [r[2] for r in rows]
        assert strictly_increasing(means[::-1])


class TestDeterminism:
    def test_reports_byte_identical_across_runs(self):
        for make in (
            lambda: ScenarioConfig(
                kind="loss", n_registers=(8,), users=(5,), trials=6, rng_seed=777
            ),
            lambda: ScenarioConfig(
                kind="crosstalk", n_registers=(5,), users=(3,), trials=4, rng_seed=777
            ),
        ):
            first = run_experiment(make())
            second = run_experiment(make())
            assert first.to_csv_text() == second.to_csv_text()
            assert first.to_json_text() == second.to_json_text()
