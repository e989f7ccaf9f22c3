"""Grid, packet and transform layer.

Expected values that are not exact come from closed-form Gaussian integrals
evaluated independently of the code under test; see the comments next to
each constant.
"""

import math

import numpy as np
import pytest

from spreadmux.signal import (
    DEFAULT_SIGMA_FACTOR,
    SampledEnvelope,
    TimeGrid,
    gaussian_packet,
    inner_product,
    norm_sq,
    spectral_norm_sq,
    to_frequency,
    to_time,
    zero_envelope,
)


class TestTimeGrid:
    def test_basic_layout(self):
        grid = TimeGrid(bin_duration=2.0, chips_per_bin=7, samples_per_chip=3, n_bins=4)
        assert grid.samples_per_bin == 21
        assert grid.n_samples == 84
        assert grid.duration == 8.0
        assert grid.dt == pytest.approx(2.0 / 21)
        assert grid.times[0] == 0.0
        assert grid.times[-1] == pytest.approx(8.0 - grid.dt)

    def test_frequencies_match_fft_layout(self):
        grid = TimeGrid(1.0, 7, 2, n_bins=1)
        np.testing.assert_allclose(
            grid.frequencies, np.fft.fftfreq(grid.n_samples, d=grid.dt)
        )

    @pytest.mark.parametrize("bad_chips", [0, 1, 2, 4, 6, 8, 100])
    def test_rejects_non_mersenne_chip_counts(self, bad_chips):
        with pytest.raises(ValueError, match="2\\*\\*n - 1"):
            TimeGrid(1.0, bad_chips)

    @pytest.mark.parametrize("chips", [3, 7, 31, 1023])
    def test_accepts_mersenne_chip_counts(self, chips):
        assert TimeGrid(1.0, chips).chips_per_bin == chips

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="bin_duration"):
            TimeGrid(0.0, 7)
        with pytest.raises(ValueError, match="samples_per_chip"):
            TimeGrid(1.0, 7, samples_per_chip=1)
        with pytest.raises(ValueError, match="n_bins"):
            TimeGrid(1.0, 7, n_bins=0)


class TestSampledEnvelope:
    def test_shape_must_match_grid(self, grid31):
        with pytest.raises(ValueError, match="shape"):
            SampledEnvelope(grid31, np.zeros(3))

    def test_samples_are_frozen(self, grid31):
        env = zero_envelope(grid31)
        with pytest.raises(ValueError):
            env.samples[0] = 1.0

    def test_arithmetic(self, grid31):
        a = gaussian_packet(grid31)
        b = gaussian_packet(grid31) * np.exp(1j * np.pi)
        np.testing.assert_allclose((a + b).samples, a.samples + b.samples)
        np.testing.assert_allclose((a - b).samples, a.samples - b.samples)
        np.testing.assert_allclose((2.0 * a).samples, 2.0 * a.samples)
        np.testing.assert_allclose((a * 0.5j).samples, 0.5j * a.samples)

    def test_arithmetic_rejects_mixed_grids(self, grid31, grid31_2bins):
        a = zero_envelope(grid31)
        b = zero_envelope(grid31_2bins)
        with pytest.raises(ValueError, match="different grids"):
            a + b

    def test_density_is_abs_squared(self, grid31):
        env = gaussian_packet(grid31) * np.exp(1.3j)
        np.testing.assert_allclose(env.density, np.abs(env.samples) ** 2)


class TestGaussianPacket:
    def test_unit_norm_exact(self, grid31):
        env = gaussian_packet(grid31)
        assert norm_sq(env) == pytest.approx(1.0, abs=1e-14)

    def test_centred_in_requested_bin(self, grid31_2bins):
        env = gaussian_packet(grid31_2bins, 1)
        t = grid31_2bins.times
        centroid = np.sum(t * env.density) * grid31_2bins.dt
        assert centroid == pytest.approx(1.5, rel=1e-9)

    def test_default_width_of_probability_profile(self, grid31):
        # |psi|^2 std should equal DEFAULT_SIGMA_FACTOR * T = 0.1 T / sqrt(2)
        env = gaussian_packet(grid31)
        t = grid31.times
        var = np.sum((t - 0.5) ** 2 * env.density) * grid31.dt
        assert math.sqrt(var) == pytest.approx(DEFAULT_SIGMA_FACTOR, rel=1e-6)

    def test_amplitude_profile_std_is_tenth_of_bin(self, grid31):
        # |psi| itself is Gaussian with std sqrt(2) * sigma = 0.1 T
        env = gaussian_packet(grid31)
        amp = np.abs(env.samples)
        weight = amp / (np.sum(amp) * grid31.dt)
        var = np.sum((grid31.times - 0.5) ** 2 * weight) * grid31.dt
        assert math.sqrt(var) == pytest.approx(0.1, rel=1e-4)

    def test_adjacent_bin_overlap_default_width(self, grid31_2bins):
        # amplitude overlap of unit packets one bin apart is exp(-T^2 /
        # (8 sigma^2)) = exp(-25) ~ 1.39e-11 for the default width
        a = gaussian_packet(grid31_2bins, 0)
        b = gaussian_packet(grid31_2bins, 1)
        overlap = abs(inner_product(a, b))
        assert overlap < 1e-6  # negligible for two-bin encodings
        assert overlap == pytest.approx(math.exp(-25.0), rel=1e-2)

    def test_bin_index_validated(self, grid31):
        with pytest.raises(ValueError, match="bin_index"):
            gaussian_packet(grid31, 1)


class TestTransforms:
    def test_parseval(self, grid31, rng):
        samples = rng.normal(size=grid31.n_samples) + 1j * rng.normal(
            size=grid31.n_samples
        )
        env = SampledEnvelope(grid31, samples)
        spectrum = to_frequency(env)
        assert spectral_norm_sq(grid31, spectrum) == pytest.approx(
            norm_sq(env), rel=1e-12
        )

    def test_roundtrip(self, grid31, rng):
        samples = rng.normal(size=grid31.n_samples) + 1j * rng.normal(
            size=grid31.n_samples
        )
        env = SampledEnvelope(grid31, samples)
        back = to_time(grid31, to_frequency(env))
        np.testing.assert_allclose(back.samples, env.samples, atol=1e-12)

    def test_spectrum_shape_validated(self, grid31):
        with pytest.raises(ValueError, match="shape"):
            to_time(grid31, np.zeros(5, dtype=complex))

    def test_packet_spectral_width(self, grid31):
        # Fourier pair: |psi|^2 std sigma_t gives spectral density std
        # 1 / (4 pi sigma_t), here 10 sqrt(2) / (4 pi) ~ 1.1254 cycles per T
        env = gaussian_packet(grid31)
        spectrum = to_frequency(env)
        f = grid31.frequencies
        density = np.abs(spectrum) ** 2
        density /= density.sum()
        var = float(np.sum(f**2 * density))
        expected = 1.0 / (4.0 * math.pi * DEFAULT_SIGMA_FACTOR)
        assert math.sqrt(var) == pytest.approx(expected, rel=1e-4)

    def test_packet_spectrum_concentrated_at_baseband(self, grid31):
        env = gaussian_packet(grid31)
        spectrum = to_frequency(env)
        f = grid31.frequencies
        inside = np.abs(f) <= 4.0  # ~3.5 spectral widths
        frac = np.sum(np.abs(spectrum[inside]) ** 2) / np.sum(np.abs(spectrum) ** 2)
        assert frac > 0.999


class TestInnerProductAndWindows:
    def test_inner_product_conjugate_symmetry(self, grid31, rng):
        a = SampledEnvelope(grid31, rng.normal(size=grid31.n_samples) * (1 + 0.5j))
        b = SampledEnvelope(grid31, rng.normal(size=grid31.n_samples) * (1 - 0.3j))
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))

    def test_inner_product_requires_common_grid(self, grid31, grid31_2bins):
        with pytest.raises(ValueError, match="same grid"):
            inner_product(zero_envelope(grid31), zero_envelope(grid31_2bins))

    def test_norm_is_self_inner_product(self, grid31):
        env = gaussian_packet(grid31) * np.exp(0.4j)
        assert norm_sq(env) == pytest.approx(inner_product(env, env).real, rel=1e-12)
