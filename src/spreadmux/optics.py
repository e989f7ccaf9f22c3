"""Optical building blocks: chip-rate phase modulators and reflection gratings.

The modulator multiplies the envelope by a unimodular code waveform m(t), one
chip per interval bin_duration / S, with the code restarting at every bin
boundary. It drives the phases (0, pi), so with ideal switching m(t) is a
real +-1 train; a finite transition time ramps the phase and makes it
complex. The grating is a zero-phase band-pass centred on the despread
packet, with a Gaussian reflection amplitude; reflection and transmission
are energy complementary by construction.

Every stage is built from three array primitives, shared by the public
per-stage functions below and by the plan walk in ``network``: ``insert``
(reflect, then spread), ``despread`` (passing light after the local
modulator, with its spectrum) and the two branches a grating splits that
light into, ``drop_branch`` and ``through_branch``. A :class:`Grating`
carries the responses on one grid, computed when it is built. They are real
and even in frequency, so the grating filters through real FFTs: a complex
amplitude is filtered as its real and imaginary parts. A plan builds its
grating once; each public per-stage function builds its own.

The grating touches only a narrow band of low frequencies: beyond it the
reflection is below rounding and the transmission is exactly 1.0. So the
grating transforms only that band, with polyphase FFTs over short rows of
the samples, and the transmitted port is the incoming light minus what the
grating takes out of the band ((1 - T) times its spectrum). No stage runs a
transform over the whole grid, and the outputs agree with full-length
filtering to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import SpreadingCode
from .signal import SampledEnvelope, TimeGrid

__all__ = [
    "FbgSpec",
    "Grating",
    "modulation_waveform",
    "modulate",
    "grating_response",
    "insert",
    "despread",
    "drop_branch",
    "through_branch",
    "fbg_reflect",
    "fbg_transmit",
    "mux_new_path",
    "mux_old_path",
    "demux_drop_path",
    "demux_through_path",
]


def modulation_waveform(
    code: SpreadingCode, grid: TimeGrid, transition_time: float = 0.0
) -> np.ndarray:
    """Sampled m(t) of the phase modulator driven by ``code`` on one grid.

    The drive takes the phases (0, pi) for the chips (+1, -1). With
    transition_time = 0 the waveform takes the chip values exactly, so a
    same-code double pass is an exact identity: a real (float64) +-1 train.
    A finite transition_time is the duration of the raised-cosine phase ramp
    centred on each chip boundary; it must fit inside a chip
    (transition_time < bin_duration / S), and |m| stays 1.
    """
    if len(code) != grid.chips_per_bin:
        raise ValueError(
            f"code length {len(code)} does not match grid chips_per_bin "
            f"{grid.chips_per_bin}"
        )
    chip = grid.bin_duration / len(code)
    if not 0.0 <= transition_time < chip:
        raise ValueError(
            f"transition_time must lie in [0, {chip:.3e}) to fit inside "
            f"one chip, got {transition_time}"
        )

    q = grid.samples_per_chip
    chips_full = np.tile(code.chips, grid.n_bins).astype(np.float64)
    base = np.repeat(chips_full, q)
    tau = transition_time
    if tau == 0.0:
        return base

    wave = base.astype(np.complex128)
    chip_phase = (1.0 - chips_full) * (math.pi / 2.0)

    dt = grid.dt
    n = grid.n_samples
    j = np.arange(n)
    nearest = np.rint(j / q).astype(np.int64)  # chip boundary index
    delta_t = (j - nearest * q) * dt  # signed offset from that boundary
    total_chips = chips_full.size
    in_ramp = (np.abs(delta_t) < tau / 2.0) & (nearest >= 1) & (nearest <= total_chips - 1)
    if np.any(in_ramp):
        m = nearest[in_ramp]
        left = chip_phase[m - 1]
        right = chip_phase[m]
        s = (delta_t[in_ramp] + tau / 2.0) / tau
        blend = 0.5 * (1.0 - np.cos(math.pi * s))
        phases = left + (right - left) * blend
        wave[in_ramp] = np.exp(1j * phases)
    return wave


def modulate(
    env: SampledEnvelope, code: SpreadingCode, transition_time: float = 0.0
) -> SampledEnvelope:
    """Apply the code waveform pointwise. Exactly norm preserving."""
    wave = modulation_waveform(code, env.grid, transition_time)
    return SampledEnvelope(env.grid, env.samples * wave)


@dataclass(frozen=True)
class FbgSpec:
    """Gaussian reflection grating centred on the despread packet.

    Reflection amplitude R(f) = peak_reflectivity * exp(-f^2 /
    (2 sigma_filt^2)) and transmission T(f) = sqrt(1 - R^2), both real and
    even in f (zero phase). sigma_filt = inf gives a perfect mirror,
    peak_reflectivity = 0 a degenerate all-pass element.
    """

    sigma_filt: float
    peak_reflectivity: float = 1.0

    def __post_init__(self) -> None:
        if not self.sigma_filt > 0:
            raise ValueError(f"sigma_filt must be positive, got {self.sigma_filt}")
        if not 0.0 <= self.peak_reflectivity <= 1.0:
            raise ValueError(
                f"peak_reflectivity must lie in [0, 1], got {self.peak_reflectivity}"
            )


def grating_response(
    frequencies: np.ndarray, fbg: FbgSpec
) -> tuple[np.ndarray, np.ndarray]:
    """(reflect, transmit) amplitudes of the grating at the given frequencies."""
    if math.isinf(fbg.sigma_filt):
        r = np.full(frequencies.shape, fbg.peak_reflectivity)
    else:
        x = frequencies / fbg.sigma_filt
        r = fbg.peak_reflectivity * np.exp(-0.5 * x * x)
    t = np.sqrt(np.maximum(0.0, 1.0 - r * r))
    return r, t


# Outside a grating's band R <= _BAND_EDGE and T == 1.0 (1 - R^2 rounds to
# 1.0 once R < 7e-9), so the through port is exact there. The reflection
# left out is the Gaussian tail beyond the edge, about 9.1 sigma_filt: over
# bins 1 / (n_bins * bin_duration) apart it sums to about n_bins *
# sigma_filt * bin_duration / 9 times _BAND_EDGE, and no spectrum bin
# exceeds the input's peak times the grid length, so no reflected sample
# moves by more than about 2.2e-19 * n_bins * sigma_filt * bin_duration
# times the input's peak: 1.4e-17 at the default 8 / T with 8 bins, well
# under the 2.2e-16 rounding unit of the FFTs themselves.
_BAND_EDGE = 1e-18


@dataclass(frozen=True, eq=False)
class Grating:
    """A grating on one grid, acting on a band of its lowest rfft bins only.

    The band is the K lowest bins of ``np.fft.rfftfreq``: every bin where
    R > 1e-18 or T != 1.0 lies in it. ``reflect`` holds R and ``bite``
    holds 1 - T on the band, and outside it the grating passes light
    unchanged. The grid's N samples are cut into D polyphase rows of
    length L = N / D, sample l * D + d going to row d, where L is the
    smallest divisor of N with K <= L // 2 (or N itself, D = 1, if there is
    none). A band bin k of the whole grid is bin k of every row's rfft,
    shifted by the twiddle exp(-2 pi i k d / N) of its row; ``forward``
    and ``inverse`` hold those (D, K) twiddles, the inverse ones divided by
    D. So ``spectrum`` is one rfft over the rows and a twiddle sum, and
    ``branch`` one irfft over the twiddled rows, with no transform of
    length N. D = 1 is the same code with unit twiddles: a plain rfft /
    irfft pair, as on small grids or a perfect mirror (whose band is the
    whole spectrum). An all-pass grating changes no bin; its band is bin 0
    alone, where both responses are 0.

    This is the only place that tells real amplitudes from complex ones: a
    complex array is filtered as its stacked real and imaginary parts, and
    its branches come back complex.
    """

    n_samples: int
    reflect: np.ndarray
    bite: np.ndarray
    forward: np.ndarray
    inverse: np.ndarray

    @classmethod
    def on_grid(cls, grid: TimeGrid, fbg: FbgSpec) -> "Grating":
        n = grid.n_samples
        reflect, transmit = grating_response(np.fft.rfftfreq(n, d=grid.dt), fbg)
        changed = np.flatnonzero((reflect > _BAND_EDGE) | (transmit != 1.0))
        # at least bin 0, so that every transform has a bin to work on
        band = 1 + int(changed.max(initial=0))
        length = next((m for m in range(2 * band, n + 1) if n % m == 0), n)
        rows = n // length
        # row d, bin k; d * k < n / 2, so the angles need no reduction
        angle = (2 * np.pi / n) * np.outer(np.arange(rows), np.arange(band))
        return cls(
            n_samples=n,
            reflect=reflect[:band],
            bite=1.0 - transmit[:band],
            forward=np.exp(-1j * angle),
            inverse=np.exp(1j * angle) / rows,
        )

    @property
    def rows(self) -> int:
        """D, the number of polyphase rows."""
        return self.forward.shape[0]

    def spectrum(self, samples: np.ndarray) -> np.ndarray:
        """The band of the real-FFT spectrum. A complex array with a nonzero
        imaginary part gives two rows, one for its real and one for its
        imaginary part."""
        if np.iscomplexobj(samples):
            if np.any(samples.imag):
                samples = np.stack([samples.real, samples.imag])
            else:
                samples = samples.real
        rows, band = self.forward.shape
        phases = samples.reshape(*samples.shape[:-1], -1, rows).swapaxes(-1, -2)
        row_spectra = np.fft.rfft(phases)[..., :band]
        return (row_spectra * self.forward).sum(axis=-2)

    def branch(self, spectrum: np.ndarray, response: np.ndarray) -> np.ndarray:
        """Time samples of the band spectrum times a response on the band."""
        rows = self.rows
        twiddled = (spectrum * response)[..., None, :] * self.inverse
        # the length is explicit because rows can have odd length
        phases = np.fft.irfft(twiddled, self.n_samples // rows)
        samples = phases.swapaxes(-1, -2).reshape(*phases.shape[:-2], self.n_samples)
        if samples.ndim == 2:
            return samples[0] + 1j * samples[1]
        return samples


def insert(samples: np.ndarray, wave: np.ndarray, grating: Grating) -> np.ndarray:
    """Add stage, inserted photon: reflected into the line, then spread."""
    return wave * grating.branch(grating.spectrum(samples), grating.reflect)


def despread(
    samples: np.ndarray, wave: np.ndarray, grating: Grating
) -> tuple[np.ndarray, np.ndarray]:
    """Passing light after the local modulator, and its band spectrum; both
    ports of the stage's grating branch off this one transform."""
    light = wave * samples
    return light, grating.spectrum(light)


def drop_branch(spectrum: np.ndarray, grating: Grating) -> np.ndarray:
    """Reflected port of a drop stage: what the local receiver collects."""
    return grating.branch(spectrum, grating.reflect)


def through_branch(
    light: np.ndarray, spectrum: np.ndarray, wave: np.ndarray, grating: Grating
) -> np.ndarray:
    """Transmitted port, spread back with the local code: the despread light
    less what the grating takes out of its band, (1 - T) times its spectrum."""
    return wave * (light - grating.branch(spectrum, grating.bite))


def fbg_reflect(env: SampledEnvelope, fbg: FbgSpec) -> SampledEnvelope:
    """Band-pass branch: amplitude R(f) applied in the frequency domain."""
    grating = Grating.on_grid(env.grid, fbg)
    spectrum = grating.spectrum(env.samples)
    return SampledEnvelope(env.grid, grating.branch(spectrum, grating.reflect))


def fbg_transmit(env: SampledEnvelope, fbg: FbgSpec) -> SampledEnvelope:
    """Band-stop branch: amplitude sqrt(1 - R^2)."""
    grating = Grating.on_grid(env.grid, fbg)
    spectrum = grating.spectrum(env.samples)
    return SampledEnvelope(env.grid, env.samples - grating.branch(spectrum, grating.bite))


def _stage_operators(
    env: SampledEnvelope, code: SpreadingCode, fbg: FbgSpec, transition_time: float
) -> tuple[np.ndarray, Grating]:
    wave = modulation_waveform(code, env.grid, transition_time)
    return wave, Grating.on_grid(env.grid, fbg)


def mux_new_path(
    env: SampledEnvelope,
    code: SpreadingCode,
    fbg: FbgSpec,
    transition_time: float = 0.0,
) -> SampledEnvelope:
    """Add stage seen by the photon being inserted: reflect, then spread.

    The narrowband packet is reflected into the line by the grating and
    spread by the user's modulator on the way out. The transmitted part of
    the packet spectrum leaves through the grating and is discarded as loss.
    """
    wave, grating = _stage_operators(env, code, fbg, transition_time)
    return SampledEnvelope(env.grid, insert(env.samples, wave, grating))


def mux_old_path(
    env: SampledEnvelope,
    code: SpreadingCode,
    fbg: FbgSpec,
    transition_time: float = 0.0,
) -> SampledEnvelope:
    """Add stage seen by light already on the line.

    The incoming superposition is despread with the local code, the grating
    transmits everything outside its stop band (the reflected sliver goes
    back up the input fibre and is lost), and a second modulator restores
    the original spreading.
    """
    wave, grating = _stage_operators(env, code, fbg, transition_time)
    light, spectrum = despread(env.samples, wave, grating)
    return SampledEnvelope(env.grid, through_branch(light, spectrum, wave, grating))


def demux_drop_path(
    env: SampledEnvelope,
    code: SpreadingCode,
    fbg: FbgSpec,
    transition_time: float = 0.0,
) -> SampledEnvelope:
    """Drop stage towards the local receiver: despread, keep the reflection."""
    wave, grating = _stage_operators(env, code, fbg, transition_time)
    _, spectrum = despread(env.samples, wave, grating)
    return SampledEnvelope(env.grid, drop_branch(spectrum, grating))


def demux_through_path(
    env: SampledEnvelope,
    code: SpreadingCode,
    fbg: FbgSpec,
    transition_time: float = 0.0,
) -> SampledEnvelope:
    """Drop stage seen by photons passing on to later receivers.

    Same optical chain as mux_old_path: modulate, transmit through the
    grating, modulate back. The reflected sliver is what the local receiver
    sees as crosstalk.
    """
    return mux_old_path(env, code, fbg, transition_time)
