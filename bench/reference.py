"""Independent numpy model of the add-drop chain.

The benchmark checks the program's photon walks against this model. It is
written from the paper's model alone and uses numpy only, nothing from
``spreadmux.signal``, ``spreadmux.optics`` or ``spreadmux.network``:

* user u's chip waveform is ``repeat(tile(roll(base, u), B), q)`` for a grid
  of B bins with q samples per chip, the code restarting in every bin;
* the grating reflects with a Gaussian amplitude R(f) = exp(-f^2 / (2 s^2))
  and transmits T(f) = sqrt(1 - R^2), both applied in the frequency domain;
* a photon is one Gaussian packet per 1-bit, amplitude standard deviation
  0.1 of a bin, centred in its bin and sampled directly, each packet scaled
  to unit probability.

Time is in units of the bin duration, frequency in units of its inverse.
"""

from __future__ import annotations

import numpy as np

PACKET_STD = 0.1  # amplitude standard deviation of a packet, in bins
SAMPLES_PER_CHIP = 4


def msequence_problems(chips: np.ndarray) -> list[str]:
    """Why a bipolar code is not an m-sequence; empty if it is one.

    Checks the length 2**n - 1, the balance of -1, and the two-valued
    periodic autocorrelation (S at lag 0, -1 elsewhere), which also rules
    out any period shorter than S.
    """
    chips = np.asarray(chips, dtype=np.int64)
    size = chips.size
    problems = []
    if size < 3 or (size + 1) & size:
        problems.append(f"length {size} is not 2**n - 1")
    if not np.all(np.abs(chips) == 1):
        return problems + ["chips are not all +1 or -1"]
    if chips.sum() != -1:
        problems.append(f"balance {int(chips.sum())} != -1")
    spectrum = np.fft.fft(chips.astype(np.float64))
    acf = np.rint(np.fft.ifft(spectrum * np.conj(spectrum)).real).astype(np.int64)
    if np.any(acf[1:] == size):
        problems.append("code repeats before its full length")
    if acf[0] != size or np.any(acf[1:] != -1):
        problems.append("autocorrelation is not two-valued (S, -1)")
    return problems


class ReferenceChain:
    """The chain of one code family on a grid of ``n_bins`` bins."""

    def __init__(self, base_chips: np.ndarray, n_bins: int, sigma_filt: float):
        self.base = np.asarray(base_chips, dtype=np.float64)
        self.n_bins = n_bins
        spreading = self.base.size
        self.dt = 1.0 / (spreading * SAMPLES_PER_CHIP)
        self.n_samples = n_bins * spreading * SAMPLES_PER_CHIP
        freqs = np.fft.fftfreq(self.n_samples, d=self.dt)
        self.reflect = np.exp(-0.5 * (freqs / sigma_filt) ** 2)
        self.transmit = np.sqrt(1.0 - self.reflect**2)

    def waveform(self, user: int) -> np.ndarray:
        return np.repeat(np.tile(np.roll(self.base, user), self.n_bins), SAMPLES_PER_CHIP)

    def _filter(self, amplitude: np.ndarray, response: np.ndarray) -> np.ndarray:
        return np.fft.ifft(np.fft.fft(amplitude) * response)

    def launch(self, bits, phase: float = 0.0) -> np.ndarray:
        """One unit-probability packet per 1-bit, all with the same phase."""
        t = np.arange(self.n_samples) * self.dt
        amplitude = np.zeros(self.n_samples, dtype=np.complex128)
        for k, bit in enumerate(bits):
            if bit:
                packet = np.exp(-((t - (k + 0.5)) ** 2) / (2.0 * PACKET_STD**2))
                amplitude += packet / np.sqrt(np.sum(packet**2) * self.dt)
        return amplitude * np.exp(1j * phase)

    def probability(self, amplitude: np.ndarray) -> float:
        return float(np.sum(np.abs(amplitude) ** 2) * self.dt)

    def deliver(self, amplitude: np.ndarray, add_order, drop_order,
                source: int, receiver: int) -> np.ndarray:
        """Amplitude that reaches ``receiver`` from ``source``.

        All adds come first, in ``add_order``, then all drops. The source's
        add reflects its packet into the line and spreads it; every later
        stage despreads, lets the grating transmit and spreads again; the
        receiver's drop despreads and keeps the reflection.
        """
        stages = [("add", u) for u in add_order] + [("drop", u) for u in drop_order]
        x = None
        for kind, user in stages:
            wave = self.waveform(user)
            if x is None:
                if kind == "drop" and user == receiver:
                    return np.zeros(self.n_samples, dtype=np.complex128)
                if kind == "add" and user == source:
                    x = wave * self._filter(amplitude, self.reflect)
            elif kind == "drop" and user == receiver:
                return self._filter(wave * x, self.reflect)
            else:
                x = wave * self._filter(wave * x, self.transmit)
        raise ValueError(f"no path from user {source} to receiver {receiver}")

    def reflection_losses(self) -> tuple[float, float]:
        """Loss of one packet after one and after two grating reflections.

        With a single user the spreading cancels, so the two-reflection loss
        is that user's whole add-drop loss, and no user loses less than the
        one reflection of its own add.
        """
        spectrum = np.fft.fft(self.launch([1] + [0] * (self.n_bins - 1)))
        once = self.probability(np.fft.ifft(self.reflect * spectrum))
        twice = self.probability(np.fft.ifft(self.reflect**2 * spectrum))
        return 1.0 - once, 1.0 - twice
