"""Sampled complex envelopes on a chip-resolved time grid.

Everything downstream works on baseband probability amplitudes psi(t) sampled
uniformly in time. The square-root-density convention is used throughout:
sum(|psi|^2) * dt is a probability, so psi carries units of s**-0.5 and a
lossless element must preserve that sum exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeGrid",
    "SampledEnvelope",
    "DEFAULT_SIGMA_FACTOR",
    "zero_envelope",
    "gaussian_packet",
    "inner_product",
    "norm_sq",
    "to_frequency",
    "to_time",
    "spectral_norm_sq",
]


def _is_mersenne(value: int) -> bool:
    # spreading factors take the form 2**n - 1 so one code period fills a bin
    return value >= 3 and (value + 1) & value == 0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid covering an integer number of bit bins.

    Parameters
    ----------
    bin_duration : float
        Duration T of a single bit bin (seconds).
    chips_per_bin : int
        Spreading factor S = 2**n - 1; one full code period per bin.
    samples_per_chip : int, optional
        Samples resolving each chip interval, at least 2 (default 4).
    n_bins : int, optional
        Number of bit bins spanned by the grid (default 1).
    """

    bin_duration: float
    chips_per_bin: int
    samples_per_chip: int = 4
    n_bins: int = 1

    def __post_init__(self) -> None:
        if not self.bin_duration > 0:
            raise ValueError(f"bin_duration must be positive, got {self.bin_duration}")
        if not _is_mersenne(self.chips_per_bin):
            raise ValueError(
                f"chips_per_bin must be of the form 2**n - 1 with n >= 2, "
                f"got {self.chips_per_bin}"
            )
        if self.samples_per_chip < 2:
            raise ValueError(
                f"samples_per_chip must be at least 2, got {self.samples_per_chip}"
            )
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be at least 1, got {self.n_bins}")

    @property
    def dt(self) -> float:
        """Sample spacing, bin_duration / (chips_per_bin * samples_per_chip)."""
        return self.bin_duration / (self.chips_per_bin * self.samples_per_chip)

    @property
    def samples_per_bin(self) -> int:
        return self.chips_per_bin * self.samples_per_chip

    @property
    def n_samples(self) -> int:
        return self.n_bins * self.samples_per_bin

    @property
    def duration(self) -> float:
        return self.n_bins * self.bin_duration

    @property
    def times(self) -> np.ndarray:
        """Sample instants t_j = j * dt."""
        return np.arange(self.n_samples) * self.dt

    @property
    def frequencies(self) -> np.ndarray:
        """FFT-ordered ordinary frequencies (cycles per second)."""
        return np.fft.fftfreq(self.n_samples, d=self.dt)


@dataclass(frozen=True, eq=False)
class SampledEnvelope:
    """Complex baseband amplitude attached to the grid it was sampled on.

    The sample array is frozen on construction; operations return new
    envelopes instead of mutating.
    """

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.shape != (self.grid.n_samples,):
            raise ValueError(
                f"samples shape {arr.shape} does not match grid "
                f"({self.grid.n_samples},)"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __add__(self, other: "SampledEnvelope") -> "SampledEnvelope":
        if not isinstance(other, SampledEnvelope):
            return NotImplemented
        if other.grid != self.grid:
            raise ValueError("cannot add envelopes on different grids")
        return SampledEnvelope(self.grid, self.samples + other.samples)

    def __sub__(self, other: "SampledEnvelope") -> "SampledEnvelope":
        if not isinstance(other, SampledEnvelope):
            return NotImplemented
        if other.grid != self.grid:
            raise ValueError("cannot subtract envelopes on different grids")
        return SampledEnvelope(self.grid, self.samples - other.samples)

    def __mul__(self, factor: complex) -> "SampledEnvelope":
        return SampledEnvelope(self.grid, self.samples * factor)

    __rmul__ = __mul__

    @property
    def density(self) -> np.ndarray:
        """Instantaneous photon-number density |psi(t)|^2."""
        return np.abs(self.samples) ** 2


# packet width: the amplitude profile exp(-t^2 / (4 sigma^2)) has standard
# deviation sigma * sqrt(2), so sigma = DEFAULT_SIGMA_FACTOR * bin_duration
# makes the wavefunction a Gaussian of standard deviation 0.1 * bin_duration
DEFAULT_SIGMA_FACTOR = 0.1 / math.sqrt(2.0)


def zero_envelope(grid: TimeGrid) -> SampledEnvelope:
    return SampledEnvelope(grid, np.zeros(grid.n_samples, dtype=np.complex128))


def gaussian_packet(grid: TimeGrid, bin_index: int = 0) -> SampledEnvelope:
    """Sample the unit Gaussian packet centred in the requested bin.

    The envelope is exp(-(t - t_c)^2 / (4 sigma^2)), so |psi|^2 is Gaussian
    with standard deviation sigma = DEFAULT_SIGMA_FACTOR * bin_duration, the
    one width every scenario uses. After sampling, the packet is rescaled so
    that norm_sq equals 1 exactly; truncation of the far tails is absorbed by
    that normalisation. The phase is 0: a phase or a scale is a product,
    ``gaussian_packet(grid, k) * factor``.
    """
    if not 0 <= bin_index < grid.n_bins:
        raise ValueError(f"bin_index {bin_index} outside grid with {grid.n_bins} bins")
    sigma = DEFAULT_SIGMA_FACTOR * grid.bin_duration
    centre = (bin_index + 0.5) * grid.bin_duration
    raw = np.exp(-((grid.times - centre) ** 2) / (4.0 * sigma**2))
    return SampledEnvelope(grid, raw * (1.0 / np.sqrt(np.sum(raw**2) * grid.dt)))


def inner_product(a: SampledEnvelope, b: SampledEnvelope) -> complex:
    """Discrete <a|b> = sum(conj(a) * b) * dt."""
    if a.grid != b.grid:
        raise ValueError("inner product requires envelopes on the same grid")
    return complex(np.vdot(a.samples, b.samples) * a.grid.dt)


def norm_sq(env: SampledEnvelope) -> float:
    """Total probability sum(|psi|^2) * dt carried by the envelope."""
    return float(np.sum(np.abs(env.samples) ** 2) * env.grid.dt)


def to_frequency(env: SampledEnvelope) -> np.ndarray:
    """Forward transform, psi_hat(f_k) = sum_j psi(t_j) exp(-2 pi i f_k t_j) dt.

    Returns the FFT-ordered spectrum matching ``grid.frequencies``. Together
    with :func:`to_time` this forms a unitary pair: norm_sq in time equals
    spectral_norm_sq of the result.
    """
    return np.fft.fft(env.samples) * env.grid.dt


def to_time(grid: TimeGrid, spectrum: np.ndarray) -> SampledEnvelope:
    """Inverse of :func:`to_frequency`."""
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    if spectrum.shape != (grid.n_samples,):
        raise ValueError(
            f"spectrum shape {spectrum.shape} does not match grid "
            f"({grid.n_samples},)"
        )
    return SampledEnvelope(grid, np.fft.ifft(spectrum) / grid.dt)


def spectral_norm_sq(grid: TimeGrid, spectrum: np.ndarray) -> float:
    """sum(|psi_hat|^2) * df with df = 1 / (n_samples * dt)."""
    df = 1.0 / (grid.n_samples * grid.dt)
    return float(np.sum(np.abs(spectrum) ** 2) * df)
