"""Figures of merit: loss, crosstalk, fidelity and per-bin detection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .network import PhotonTrace
from .signal import SampledEnvelope, TimeGrid, gaussian_packet, inner_product, norm_sq

__all__ = [
    "COW_LABELS",
    "CowState",
    "cow_state",
    "cow_states",
    "loss_probability",
    "crosstalk_probability",
    "fidelity",
    "per_bin_detection",
    "ideal_loss_bound",
]


def loss_probability(trace: PhotonTrace) -> float:
    """1 minus the probability left in the delivered amplitude."""
    return 1.0 - norm_sq(trace.envelope)


def crosstalk_probability(traces: Iterable[PhotonTrace]) -> float:
    """Integrated foreign probability collected by a receiver.

    Densities of independent photons add, so this is the sum of delivered
    norms over the given traces; pass the traces of every foreign sender.
    """
    return float(sum(norm_sq(tr.envelope) for tr in traces))


def fidelity(
    reference: SampledEnvelope,
    received: SampledEnvelope,
    normalize: bool = False,
) -> float:
    """|<received|reference>|^2, optionally after renormalising the received
    amplitude to unit probability (the conditional state given arrival)."""
    overlap = inner_product(received, reference)
    value = abs(overlap) ** 2
    if normalize:
        total = norm_sq(received)
        if total <= 0.0:
            raise ValueError("cannot renormalise a zero received amplitude")
        value /= total
    return float(value)


def per_bin_detection(density: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Integrate a density series bin by bin, returning n_bins values."""
    density = np.asarray(density, dtype=np.float64)
    if density.shape != (grid.n_samples,):
        raise ValueError(
            f"density shape {density.shape} does not match grid "
            f"({grid.n_samples},)"
        )
    per_bin = density.reshape(grid.n_bins, grid.samples_per_bin).sum(axis=1)
    return per_bin * grid.dt


def ideal_loss_bound(n_users: int, spreading_factor: int) -> float:
    """Worst-case loss (2N - 2) / S for ideal filters; simulated losses are
    compared against this trend, not expected to match it."""
    if n_users < 1:
        raise ValueError(f"n_users must be >= 1, got {n_users}")
    return (2.0 * n_users - 2.0) / float(spreading_factor)


COW_LABELS = ("zero", "one", "plus", "minus")


@dataclass(frozen=True, eq=False)
class CowState:
    """Coherent-one-way qubit over two adjacent time bins."""

    label: str
    envelope: SampledEnvelope


def cow_state(grid: TimeGrid, label: str, first_bin: int = 0) -> CowState:
    """Build one of the four test states on bins (first_bin, first_bin + 1).

    "one" puts the photon in the earlier bin, "zero" in the later one;
    "plus" and "minus" are the equal superpositions, renormalised exactly.
    """
    if label not in COW_LABELS:
        raise ValueError(f"label must be one of {COW_LABELS}, got {label!r}")
    if not 0 <= first_bin <= grid.n_bins - 2:
        raise ValueError("cow_state needs two adjacent bins inside the grid")
    early = gaussian_packet(grid, first_bin)
    late = gaussian_packet(grid, first_bin + 1)
    if label == "one":
        env = early
    elif label == "zero":
        env = late
    else:
        sign = 1.0 if label == "plus" else -1.0
        raw = early + sign * late
        env = raw * (1.0 / np.sqrt(norm_sq(raw)))
    return CowState(label=label, envelope=env)


def cow_states(grid: TimeGrid, first_bin: int = 0) -> Sequence[CowState]:
    """All four test states in canonical order."""
    return tuple(cow_state(grid, label, first_bin) for label in COW_LABELS)
