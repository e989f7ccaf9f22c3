"""Add-drop chains: who modulates, who filters, and in which order.

A plan is every Add on one fibre, in add order, followed by every Drop, in
drop order; user u modulates with the base code circularly shifted by u.
Photons never interact, so each sender's photon is walked on its own: it
enters at its own Add, is disturbed by every later Add, and at every Drop
splits into the part that receiver collects and the part that passes on.
One walk per sender therefore serves every receiver; a single (source,
receiver) delivery stops the walk at that receiver's Drop.

A stage applies one operator again and again: despread with the local code,
let the grating take its narrowband bite, spread again. Each plan therefore
builds, on first use, the grating's responses on its grid and every user's
modulator waveform, and every walk through the plan reuses them. A
word is a sum of unit packets, one per 1-bit, and its grid has one unit
packet per bin, so the plan also keeps those packets and every sender's
word is added up from them.
Amplitudes walk as they are, real or complex; the grating
(:class:`~spreadmux.optics.Grating`) filters either kind through real FFTs
of the narrow band it changes.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .codes import SpreadingCode, shift_code
from .optics import (
    FbgSpec,
    Grating,
    despread,
    drop_branch,
    insert,
    modulation_waveform,
    through_branch,
)
from .signal import SampledEnvelope, TimeGrid, gaussian_packet

__all__ = [
    "UserChannel",
    "NetworkPlan",
    "PhotonTrace",
    "propagate_envelope",
    "propagate_photon",
    "receiver_density",
    "receiver_densities",
]

@dataclass(frozen=True, eq=False)
class UserChannel:
    """One sender: identity, spreading code, bit pattern and launch phase."""

    user_id: int
    code: SpreadingCode
    bits: tuple[int, ...]
    global_phase: float = 0.0

    def __post_init__(self) -> None:
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0/1, got {self.bits}")
        object.__setattr__(self, "bits", bits)


@dataclass(frozen=True, eq=False)
class NetworkPlan:
    """Every Add in add_order, then every Drop in drop_order, plus the
    shared hardware description.

    User u modulates with base_code circularly shifted by u, so user ids
    lie in [1, S) for a code of S chips and no two users share a code. Each
    user adds at most once and drops at most once, and only a user that
    adds can drop.
    """

    grid: TimeGrid
    fbg: FbgSpec
    base_code: SpreadingCode
    add_order: tuple[int, ...]
    drop_order: tuple[int, ...]
    transition_time: float = 0.0

    def __post_init__(self) -> None:
        for name in ("add_order", "drop_order"):
            order = tuple(getattr(self, name))
            object.__setattr__(self, name, order)
            if len(set(order)) != len(order):
                raise ValueError(f"{name} names a user more than once: {order}")
        spreading = len(self.base_code)
        outside = [u for u in self.add_order if not 1 <= u < spreading]
        if outside:
            raise ValueError(
                f"at most {spreading - 1} users fit one code family: user ids "
                f"must lie in [1, {spreading}) so that no two share a shift, "
                f"got {outside}"
            )
        adds = set(self.add_order)
        strays = [u for u in self.drop_order if u not in adds]
        if strays:
            raise ValueError(f"users {strays} have a Drop stage but no Add stage")
        if spreading != self.grid.chips_per_bin:
            raise ValueError(
                f"base code has {spreading} chips, grid expects "
                f"{self.grid.chips_per_bin}"
            )

    @classmethod
    def from_orders(
        cls,
        grid: TimeGrid,
        fbg: FbgSpec,
        base_code: SpreadingCode,
        add_order: Sequence[int],
        drop_order: Sequence[int],
        transition_time: float = 0.0,
    ) -> "NetworkPlan":
        """All Adds in add_order followed by all Drops in drop_order."""
        return cls(grid, fbg, base_code, add_order, drop_order, transition_time)

    @classmethod
    def fifo(
        cls,
        grid: TimeGrid,
        fbg: FbgSpec,
        base_code: SpreadingCode,
        n_users: int,
        transition_time: float = 0.0,
    ) -> "NetworkPlan":
        """Default chain: Add(1..N) then Drop(1..N), first in first out."""
        if n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {n_users}")
        order = list(range(1, n_users + 1))
        return cls.from_orders(grid, fbg, base_code, order, order, transition_time)

    @functools.cached_property
    def codes(self) -> dict[int, SpreadingCode]:
        """Every user's code, the base code shifted by the user id."""
        return {u: shift_code(self.base_code, u) for u in self.add_order}

    @functools.cached_property
    def grating(self) -> Grating:
        """The grating on this plan's grid, built on first use."""
        return Grating.on_grid(self.grid, self.fbg)

    @functools.cached_property
    def waveforms(self) -> dict[int, np.ndarray]:
        """Every user's modulator waveform, built on first use."""
        return {
            u: modulation_waveform(code, self.grid, self.transition_time)
            for u, code in self.codes.items()
        }

    @functools.cached_property
    def packets(self) -> np.ndarray:
        """Every bin's unit packet at phase 0, one real row per bin, built
        on first use."""
        table = np.empty((self.grid.n_bins, self.grid.n_samples))
        for k in range(self.grid.n_bins):
            table[k] = gaussian_packet(self.grid, k).samples.real
        return table

    def word(self, bits: Sequence[int]) -> np.ndarray:
        """Phase-0 amplitude of a word, all real: zeros plus the unit packet
        of every 1-bit, added in bit order."""
        if len(bits) != self.grid.n_bins:
            raise ValueError(
                f"channel sends {len(bits)} bits but grid has {self.grid.n_bins} bins"
            )
        word = np.zeros(self.grid.n_samples)
        for idx, bit in enumerate(bits):
            if bit:
                word += self.packets[idx]
        return word


@dataclass(frozen=True, eq=False)
class PhotonTrace:
    """Delivered amplitude for one (source, receiver) pair."""

    source_id: int
    receiver_id: int
    envelope: SampledEnvelope


def _walk(
    samples: np.ndarray, source_id: int, plan: NetworkPlan
) -> Iterator[tuple[int, np.ndarray]]:
    """Walk one input amplitude from the source's Add down the chain.

    Yields (receiver_id, delivered samples) at every Drop, in drop order.
    At a Drop both output ports branch off one forward transform, and the
    through port is computed only when the walk is resumed and a later Drop
    remains.
    """
    if not plan.drop_order:
        return
    grating = plan.grating
    waveforms = plan.waveforms
    samples = insert(samples, waveforms[source_id], grating)
    for user in plan.add_order[plan.add_order.index(source_id) + 1 :]:
        wave = waveforms[user]
        light, spectrum = despread(samples, wave, grating)
        samples = through_branch(light, spectrum, wave, grating)
    for user in plan.drop_order:
        wave = waveforms[user]
        light, spectrum = despread(samples, wave, grating)
        yield user, drop_branch(spectrum, grating)
        if user != plan.drop_order[-1]:
            samples = through_branch(light, spectrum, wave, grating)


def _check_source(source_id: int, plan: NetworkPlan) -> None:
    if source_id not in plan.add_order:
        raise ValueError(f"source user {source_id} has no Add stage in the plan")


def propagate_envelope(
    env: SampledEnvelope,
    source_id: int,
    receiver_id: int,
    plan: NetworkPlan,
) -> SampledEnvelope:
    """Walk an arbitrary input amplitude through the chain.

    Adds ahead of the source's own Add cannot touch the photon and are
    skipped.
    """
    if env.grid != plan.grid:
        raise ValueError("envelope grid does not match the plan grid")
    _check_source(source_id, plan)
    if receiver_id not in plan.drop_order:
        raise ValueError(f"receiver {receiver_id} has no Drop stage in the plan")
    walk = _walk(env.samples, source_id, plan)
    delivered = next(d for r, d in walk if r == receiver_id)
    return SampledEnvelope(plan.grid, delivered)


def _check_channel(channel: UserChannel, plan: NetworkPlan) -> None:
    planned = plan.codes.get(channel.user_id)
    if planned is not None and not np.array_equal(planned.chips, channel.code.chips):
        raise ValueError(
            f"channel {channel.user_id} carries a code that differs from the "
            f"plan assignment"
        )


def propagate_photon(
    channel: UserChannel,
    receiver_id: int,
    plan: NetworkPlan,
) -> PhotonTrace:
    """Deliver one sender's photon amplitude to one receiver.

    The launch phase is common to every packet of the word and every stage
    is linear, so the phase-0 word (a real amplitude from the plan's
    packets) is walked and the phase applied to what arrives. A word of
    zeros arrives as zeros.
    """
    _check_channel(channel, plan)
    word = SampledEnvelope(plan.grid, plan.word(channel.bits))
    delivered = propagate_envelope(word, channel.user_id, receiver_id, plan)
    phase = cmath.exp(1j * channel.global_phase)
    return PhotonTrace(channel.user_id, receiver_id, delivered * phase)


def receiver_density(traces: Iterable[PhotonTrace]) -> np.ndarray:
    """Photon-number density at one receiver.

    Independent single photons add at the density level, so the result is
    sum_p |psi_p(t)|^2 over the given traces. Amplitudes belonging to the
    same source already interfere inside each trace envelope.
    """
    traces = list(traces)
    if not traces:
        raise ValueError("receiver_density needs at least one trace")
    grid = traces[0].envelope.grid
    receiver = traces[0].receiver_id
    density = np.zeros(grid.n_samples, dtype=np.float64)
    for tr in traces:
        if tr.envelope.grid != grid:
            raise ValueError("traces mix different grids")
        if tr.receiver_id != receiver:
            raise ValueError("traces mix different receivers")
        density += tr.envelope.density
    return density


def receiver_densities(
    channels: Sequence[UserChannel],
    plan: NetworkPlan,
) -> dict[int, np.ndarray]:
    """Photon-number density at every receiver, one walk per sender.

    Each sender's walk feeds every receiver it reaches, and its delivered
    densities are added into one array per receiver as the walk goes, in
    channel order, as :func:`receiver_density` adds them for one receiver.
    The launch phase cannot change a density, so it is not applied.
    """
    densities = {r: np.zeros(plan.grid.n_samples) for r in plan.drop_order}
    for channel in channels:
        _check_channel(channel, plan)
        _check_source(channel.user_id, plan)
        samples = plan.word(channel.bits)
        if not any(channel.bits):
            continue
        for receiver, delivered in _walk(samples, channel.user_id, plan):
            densities[receiver] += np.abs(delivered) ** 2
    return densities
