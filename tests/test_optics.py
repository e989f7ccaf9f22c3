"""Modulator waveforms, grating responses and the four stage paths.

The Gaussian-on-Gaussian loss oracles used below have closed forms: for a
packet whose probability density has temporal std sigma_t, the spectral
density is Gaussian with variance v = 1 / (4 pi sigma_t)^2, and averaging
R^(2k) = exp(-k f^2 / sigma_filt^2) over it gives 1 / sqrt(1 + 2k v /
sigma_filt^2). Sampled packets reproduce these to high accuracy because the
trapezoidal sum of a smooth Gaussian converges spectrally.
"""

import math

import numpy as np
import pytest

from spreadmux.codes import LfsrSpec, msequence_code, shift_code
from spreadmux.optics import (
    FbgSpec,
    Grating,
    demux_drop_path,
    demux_through_path,
    fbg_reflect,
    fbg_transmit,
    grating_response,
    modulate,
    modulation_waveform,
    mux_new_path,
    mux_old_path,
)
from spreadmux.signal import (
    DEFAULT_SIGMA_FACTOR,
    SampledEnvelope,
    TimeGrid,
    gaussian_packet,
    norm_sq,
    to_frequency,
    to_time,
)

# spectral density variance of the default packet, in cycles^2 / T^2
PACKET_SPECTRAL_VAR = 1.0 / (4.0 * math.pi * DEFAULT_SIGMA_FACTOR) ** 2


def mean_r2(sigma_filt: float) -> float:
    return 1.0 / math.sqrt(1.0 + 2.0 * PACKET_SPECTRAL_VAR / sigma_filt**2)


def mean_r4(sigma_filt: float) -> float:
    return 1.0 / math.sqrt(1.0 + 4.0 * PACKET_SPECTRAL_VAR / sigma_filt**2)


@pytest.fixture
def packet(grid31):
    return gaussian_packet(grid31)


class TestModulationWaveform:
    def test_ideal_waveform_is_chip_train(self, grid31, code5):
        wave = modulation_waveform(code5, grid31)
        expected = np.repeat(code5.chips.astype(np.complex128), 4)
        np.testing.assert_array_equal(wave, expected)

    def test_code_restarts_every_bin(self, grid31_2bins, code5):
        wave = modulation_waveform(code5, grid31_2bins)
        half = grid31_2bins.samples_per_bin
        np.testing.assert_array_equal(wave[:half], wave[half:])

    def test_code_grid_mismatch(self, grid31):
        wrong = msequence_code(LfsrSpec(4))
        with pytest.raises(ValueError, match="code length"):
            modulation_waveform(wrong, grid31)

    def test_transition_must_fit_in_chip(self, grid31, code5):
        chip = 1.0 / 31
        with pytest.raises(ValueError, match="transition_time"):
            modulation_waveform(code5, grid31, transition_time=chip)
        with pytest.raises(ValueError, match="transition_time"):
            modulation_waveform(code5, grid31, transition_time=-0.001)

    def test_finite_transition_keeps_unit_magnitude(self, grid31, code5):
        tau = 0.4 / 31
        wave = modulation_waveform(code5, grid31, transition_time=tau)
        np.testing.assert_allclose(np.abs(wave), 1.0, atol=1e-12)

    def test_finite_transition_matches_chips_away_from_edges(self, grid31, code5):
        tau = 0.4 / 31
        wave = modulation_waveform(code5, grid31, transition_time=tau)
        ideal = np.repeat(code5.chips.astype(np.complex128), 4)
        # chip centres sit two samples past each boundary, outside the ramp
        centres = np.arange(31) * 4 + 2
        np.testing.assert_allclose(wave[centres], ideal[centres], atol=1e-12)


class TestModulate:
    def test_norm_preserving(self, packet, code5):
        out = modulate(packet, code5)
        assert norm_sq(out) == pytest.approx(norm_sq(packet), rel=1e-14)

    def test_self_inverse(self, packet, code5):
        back = modulate(modulate(packet, code5), code5)
        np.testing.assert_allclose(back.samples, packet.samples, atol=1e-14)

    def test_spreads_the_spectrum(self):
        # after spreading, the band that held ~98% of the packet keeps only
        # a ~1/S sliver; S = 1023 makes the contrast unmistakable
        from spreadmux.signal import TimeGrid

        grid = TimeGrid(1.0, 1023, 4)
        packet = gaussian_packet(grid)
        code = msequence_code(LfsrSpec(10))
        spread = modulate(packet, code)
        f = grid.frequencies
        band = np.abs(f) <= 4.0
        spec_in = np.fft.fft(packet.samples)
        spec_out = np.fft.fft(spread.samples)
        frac_in = np.sum(np.abs(spec_in[band]) ** 2) / np.sum(np.abs(spec_in) ** 2)
        frac_out = np.sum(np.abs(spec_out[band]) ** 2) / np.sum(np.abs(spec_out) ** 2)
        assert frac_in > 0.999
        assert frac_out < 0.03

    def test_finite_transition_still_norm_preserving(self, packet, code5):
        out = modulate(packet, code5, transition_time=0.3 / 31)
        assert norm_sq(out) == pytest.approx(norm_sq(packet), rel=1e-12)

    def test_finite_transition_degrades_despreading(self, packet, code5):
        # residual mismatch after a double pass grows with the ramp time
        def residual(tau: float) -> float:
            back = modulate(modulate(packet, code5, tau), code5, tau)
            return float(np.sum(np.abs(back.samples - packet.samples) ** 2))

        taus = [0.0, 0.1 / 31, 0.2 / 31, 0.4 / 31]
        values = [residual(t) for t in taus]
        assert values[0] == 0.0
        assert values[1] > 0.0
        assert values == sorted(values)


class TestFbg:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="sigma_filt"):
            FbgSpec(sigma_filt=0.0)
        with pytest.raises(ValueError, match="peak_reflectivity"):
            FbgSpec(sigma_filt=8.0, peak_reflectivity=1.5)

    def test_energy_complementarity_exact(self, grid31, fbg):
        reflect, transmit = grating_response(grid31.frequencies, fbg)
        np.testing.assert_allclose(reflect**2 + transmit**2, 1.0, atol=1e-15)

    def test_split_conserves_norm(self, grid31, fbg, rng):
        env = SampledEnvelope(
            grid31,
            rng.normal(size=grid31.n_samples) + 1j * rng.normal(size=grid31.n_samples),
        )
        r = norm_sq(fbg_reflect(env, fbg))
        t = norm_sq(fbg_transmit(env, fbg))
        assert r + t == pytest.approx(norm_sq(env), rel=1e-12)

    @pytest.mark.parametrize("samples_per_chip", [4, 3], ids=["even", "odd_length"])
    @pytest.mark.parametrize("kind", ["complex", "real_as_complex"])
    def test_branches_match_complex_fft(self, fbg, rng, samples_per_chip, kind):
        # the grating filters through real FFTs; a full complex FFT with the
        # response on every frequency is the independent reference
        grid = TimeGrid(1.0, 31, samples_per_chip)
        values = rng.normal(size=grid.n_samples)
        if kind == "complex":
            values = values + 1j * rng.normal(size=grid.n_samples)
        env = SampledEnvelope(grid, values)
        reflect, transmit = grating_response(grid.frequencies, fbg)
        for out, response in ((fbg_reflect(env, fbg), reflect),
                              (fbg_transmit(env, fbg), transmit)):
            expected = to_time(grid, to_frequency(env) * response)
            np.testing.assert_allclose(out.samples, expected.samples, rtol=0, atol=1e-12)

    # (chips per bin, samples per chip, bins, grating) -> polyphase rows D
    BAND_GRIDS = {
        "even_polyphase": ((127, 4, 8, FbgSpec(8.0)), 2),
        "odd_polyphase": ((255, 3, 3, FbgSpec(8.0)), 5),
        "narrow_grating": ((31, 3, 5, FbgSpec(1.0)), 5),
        "one_row": ((31, 4, 1, FbgSpec(8.0)), 1),
        "all_pass": ((127, 4, 8, FbgSpec(8.0, peak_reflectivity=0.0)), 2032),
        "mirror": ((127, 4, 2, FbgSpec(math.inf)), 1),
    }

    @staticmethod
    def band_grid(name):
        (chips, samples_per_chip, n_bins, fbg), rows = TestFbg.BAND_GRIDS[name]
        return TimeGrid(1.0, chips, samples_per_chip, n_bins), fbg, rows

    @pytest.mark.parametrize("name", list(BAND_GRIDS))
    def test_band_covers_every_bin_the_grating_changes(self, name):
        grid, fbg, rows = self.band_grid(name)
        grating = Grating.on_grid(grid, fbg)
        n = grid.n_samples
        reflect, transmit = grating_response(np.fft.rfftfreq(n, d=grid.dt), fbg)
        band = grating.reflect.size
        changed = (reflect > 1e-18) | (transmit != 1.0)
        assert not np.any(changed[band:])
        assert band == 1 or changed[band - 1]
        np.testing.assert_array_equal(grating.reflect, reflect[:band])
        np.testing.assert_array_equal(grating.bite, 1.0 - transmit[:band])
        # the shortest rows that hold the band
        length = n // grating.rows
        assert length * grating.rows == n
        assert grating.rows == 1 or band <= length // 2
        assert not any(n % m == 0 for m in range(2 * band, length))
        assert grating.rows == rows

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("name", list(BAND_GRIDS))
    def test_band_kernel_matches_complex_fft(self, rng, name, kind):
        # the polyphase band kernel against a full complex FFT with the
        # response on every frequency
        grid, fbg, _ = self.band_grid(name)
        values = rng.normal(size=grid.n_samples)
        if kind == "complex":
            values = values + 1j * rng.normal(size=grid.n_samples)
        env = SampledEnvelope(grid, values)
        reflect, transmit = grating_response(grid.frequencies, fbg)
        for out, response in ((fbg_reflect(env, fbg), reflect),
                              (fbg_transmit(env, fbg), transmit)):
            expected = to_time(grid, to_frequency(env) * response).samples
            # to the input's peak: a mirror transmits, and an open port
            # reflects, nothing
            peak = np.max(np.abs(values))
            assert np.max(np.abs(out.samples - expected)) <= 1e-12 * peak
        if name == "all_pass":
            assert not np.any(fbg_reflect(env, fbg).samples)
            np.testing.assert_array_equal(fbg_transmit(env, fbg).samples, values)

    @pytest.mark.parametrize("name", ["even_polyphase", "odd_polyphase", "one_row"])
    def test_band_kernel_stages_with_complex_wave(self, rng, name):
        # a finite transition time makes the modulator waveform complex
        grid, fbg, _ = self.band_grid(name)
        code = msequence_code(LfsrSpec(round(math.log2(grid.chips_per_bin + 1))))
        tau = 0.3 * grid.bin_duration / grid.chips_per_bin
        wave = modulation_waveform(code, grid, tau)
        assert np.any(wave.imag)
        env = SampledEnvelope(grid, rng.normal(size=grid.n_samples))
        reflect, transmit = grating_response(grid.frequencies, fbg)

        def filtered(samples, response):
            spectrum = to_frequency(SampledEnvelope(grid, samples)) * response
            return to_time(grid, spectrum).samples

        cases = (
            (mux_new_path, wave * filtered(env.samples, reflect)),
            (mux_old_path, wave * filtered(wave * env.samples, transmit)),
            (demux_drop_path, filtered(wave * env.samples, reflect)),
        )
        for path, expected in cases:
            out = path(env, code, fbg, tau).samples
            peak = np.max(np.abs(expected))
            assert np.max(np.abs(out - expected)) <= 1e-12 * peak, path.__name__

    def test_perfect_mirror(self, grid31, packet):
        mirror = FbgSpec(sigma_filt=math.inf)
        out = fbg_reflect(packet, mirror)
        np.testing.assert_allclose(out.samples, packet.samples, atol=1e-12)
        assert norm_sq(fbg_transmit(packet, mirror)) == pytest.approx(0.0, abs=1e-15)

    def test_all_pass(self, grid31, packet):
        open_port = FbgSpec(sigma_filt=8.0, peak_reflectivity=0.0)
        out = fbg_transmit(packet, open_port)
        np.testing.assert_allclose(out.samples, packet.samples, atol=1e-12)
        assert norm_sq(fbg_reflect(packet, open_port)) == 0.0

    def test_reflected_packet_norm_matches_oracle(self, packet, fbg):
        # closed form: 1 / sqrt(1 + 2 v / sigma_filt^2) = 0.980779403919
        assert norm_sq(fbg_reflect(packet, fbg)) == pytest.approx(
            mean_r2(8.0), rel=1e-9
        )

    def test_double_reflection_norm_matches_oracle(self, packet, fbg):
        # 1 / sqrt(1 + 4 v / sigma_filt^2) = 0.962626135683
        twice = fbg_reflect(fbg_reflect(packet, fbg), fbg)
        assert norm_sq(twice) == pytest.approx(mean_r4(8.0), rel=1e-9)

    def test_zero_phase_response(self, grid31, fbg):
        reflect, transmit = grating_response(grid31.frequencies, fbg)
        assert np.isrealobj(reflect) and np.isrealobj(transmit)
        assert np.all(reflect >= 0.0) and np.all(transmit >= 0.0)


class TestStagePaths:
    def test_add_then_drop_is_double_reflection(self, grid31, packet, code5, fbg):
        # matched chain with ideal switching: the modulators cancel exactly,
        # so the delivered spectrum is R^2(f) times the packet spectrum
        from spreadmux.signal import to_frequency, to_time

        added = mux_new_path(packet, code5, fbg)
        delivered = demux_drop_path(added, code5, fbg)
        reflect, _ = grating_response(grid31.frequencies, fbg)
        expected = to_time(grid31, to_frequency(packet) * reflect**2)
        np.testing.assert_allclose(delivered.samples, expected.samples, atol=1e-12)
        assert norm_sq(delivered) == pytest.approx(mean_r4(8.0), rel=1e-9)
        # the R^2 trim slightly reshapes the packet; the residual shape
        # mismatch is the bare infidelity floor of a matched link
        overlap = abs(np.vdot(delivered.samples, packet.samples)) ** 2 / (
            np.vdot(delivered.samples, delivered.samples).real
            * np.vdot(packet.samples, packet.samples).real
        )
        assert 0.999 < overlap < 1.0

    def test_add_norm_is_single_reflection(self, packet, code5, fbg):
        assert norm_sq(mux_new_path(packet, code5, fbg)) == pytest.approx(
            mean_r2(8.0), rel=1e-9
        )

    def test_mirror_network_is_lossless_roundtrip(self, packet, code5):
        mirror = FbgSpec(sigma_filt=math.inf)
        added = mux_new_path(packet, code5, mirror)
        delivered = demux_drop_path(added, code5, mirror)
        np.testing.assert_allclose(delivered.samples, packet.samples, atol=1e-12)

    def test_foreign_stage_skim_shrinks_with_spreading(self, fbg):
        # the grating bites a ~sigma_filt / S slice out of a foreign spread
        # photon, so doubling the code length roughly halves the skim
        from spreadmux.signal import TimeGrid

        def skim(n: int) -> float:
            grid = TimeGrid(1.0, 2**n - 1, 4)
            code = msequence_code(LfsrSpec(n))
            added = mux_new_path(gaussian_packet(grid), code, fbg)
            through = mux_old_path(added, shift_code(code, 7), fbg)
            return norm_sq(added) - norm_sq(through)

        losses = {n: skim(n) for n in (5, 7, 9)}
        assert losses[5] > losses[7] > losses[9] > 0.0
        # ratio between successive sizes is ~4 once S is large enough
        assert losses[7] / losses[9] == pytest.approx(4.0, rel=0.35)

    def test_all_pass_foreign_stage_is_identity(self, packet, code5, fbg):
        open_port = FbgSpec(sigma_filt=8.0, peak_reflectivity=0.0)
        added = mux_new_path(packet, code5, fbg)
        through = mux_old_path(added, shift_code(code5, 3), open_port)
        np.testing.assert_allclose(through.samples, added.samples, atol=1e-12)

    def test_through_path_matches_old_path(self, packet, code5, fbg):
        added = mux_new_path(packet, code5, fbg)
        foreign = shift_code(code5, 11)
        a = demux_through_path(added, foreign, fbg)
        b = mux_old_path(added, foreign, fbg)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_paths_are_linear(self, grid31, code5, fbg):
        a = gaussian_packet(grid31)
        b = gaussian_packet(grid31) * (0.5 * np.exp(2.0j))
        combined = mux_new_path(a + b, code5, fbg)
        separate = mux_new_path(a, code5, fbg) + mux_new_path(b, code5, fbg)
        np.testing.assert_allclose(combined.samples, separate.samples, atol=1e-12)

