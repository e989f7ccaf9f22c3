"""Chain construction, validation, photon walks and receiver densities."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from spreadmux.codes import LfsrSpec, msequence_code, shift_code
from spreadmux.network import (
    NetworkPlan,
    PhotonTrace,
    UserChannel,
    propagate_envelope,
    propagate_photon,
    receiver_densities,
    receiver_density,
)
from spreadmux.optics import (
    FbgSpec,
    demux_drop_path,
    demux_through_path,
    mux_new_path,
    mux_old_path,
)
from spreadmux.signal import SampledEnvelope, TimeGrid, gaussian_packet, norm_sq

# closed-form matched-link delivery, see test_optics for the derivation
SINGLE_USER_DELIVERED = 0.962626135683


@pytest.fixture
def plan3(grid31, fbg, code5) -> NetworkPlan:
    return NetworkPlan.fifo(grid31, fbg, code5, n_users=3)


class TestUserChannel:
    def test_bits_normalised(self, code5):
        ch = UserChannel(1, code5, (True, 0, 1))
        assert ch.bits == (1, 0, 1)

    def test_bits_validated(self, code5):
        with pytest.raises(ValueError, match="bits"):
            UserChannel(1, code5, (0, 2))


class TestNetworkPlan:
    def test_fields_are_the_two_orders_and_the_hardware(self):
        names = [f.name for f in dataclasses.fields(NetworkPlan)]
        assert names == [
            "grid", "fbg", "base_code", "add_order", "drop_order", "transition_time",
        ]

    def test_fifo_layout(self, plan3):
        assert plan3.add_order == (1, 2, 3)
        assert plan3.drop_order == (1, 2, 3)

    def test_fifo_assigns_shifted_codes(self, plan3, code5):
        for uid in (1, 2, 3):
            np.testing.assert_array_equal(
                plan3.codes[uid].chips, np.roll(code5.chips, uid)
            )

    def test_fifo_user_count_bounds(self, grid31, fbg, code5):
        with pytest.raises(ValueError, match="n_users"):
            NetworkPlan.fifo(grid31, fbg, code5, 0)
        with pytest.raises(ValueError, match="at most"):
            NetworkPlan.fifo(grid31, fbg, code5, 31)

    def test_from_orders_rejects_more_users_than_codes(self, grid31, fbg, code5):
        users = list(range(1, 32))
        NetworkPlan.from_orders(grid31, fbg, code5, users[:-1], users[:-1])
        with pytest.raises(ValueError, match="at most 30 users"):
            NetworkPlan.from_orders(grid31, fbg, code5, users, users[::-1])

    @pytest.mark.parametrize("users", [[1, 32], [0, 1], [-1, 2]])
    def test_user_ids_sharing_a_code_rejected(self, grid31, fbg, code5, users):
        # shifts repeat every S = 31 chips: 32 is user 1's code, -1 user 30's
        with pytest.raises(ValueError, match=r"must lie in \[1, 31\)"):
            NetworkPlan.from_orders(grid31, fbg, code5, users, users)

    def test_from_orders_custom_drop_order(self, grid31, fbg, code5):
        plan = NetworkPlan.from_orders(grid31, fbg, code5, [1, 2, 3], [2, 1, 3])
        assert plan.drop_order == (2, 1, 3)

    def test_orders_become_tuples(self, grid31, fbg, code5):
        plan = NetworkPlan.from_orders(grid31, fbg, code5, iter([2, 1]), [1])
        assert plan.add_order == (2, 1) and plan.drop_order == (1,)

    def test_duplicate_add_rejected(self, grid31, fbg, code5):
        with pytest.raises(ValueError, match="add_order names a user more than once"):
            NetworkPlan.from_orders(grid31, fbg, code5, [1, 1], [1])

    def test_duplicate_drop_rejected(self, grid31, fbg, code5):
        with pytest.raises(ValueError, match="drop_order names a user more than once"):
            NetworkPlan.from_orders(grid31, fbg, code5, [1, 2], [2, 2])

    def test_drop_without_add_rejected(self, grid31, fbg, code5):
        with pytest.raises(ValueError, match="no Add"):
            NetworkPlan.from_orders(grid31, fbg, code5, [1], [2])

    def test_code_length_must_match_grid(self, grid31, fbg):
        short = msequence_code(LfsrSpec(4))
        with pytest.raises(ValueError, match="chips"):
            NetworkPlan.from_orders(grid31, fbg, short, [1], [1])


class TestChannelEnvelope:
    """The amplitude a channel launches: ``plan.word`` of its bits, with the
    launch phase applied by ``propagate_photon`` to what arrives."""

    def test_bit_count_must_match_bins(self, plan3):
        with pytest.raises(ValueError, match="bits"):
            propagate_photon(UserChannel(1, plan3.codes[1], (1, 0)), 1, plan3)

    def test_all_zero_word_is_dark(self, plan3):
        assert not np.any(plan3.word((0,)))

    def test_norm_counts_occupied_bins(self, grid31_2bins, fbg, code5):
        plan = NetworkPlan.fifo(grid31_2bins, fbg, code5, 1)
        word = SampledEnvelope(grid31_2bins, plan.word((1, 1)))
        assert norm_sq(word) == pytest.approx(2.0, rel=1e-9)

    def test_phase_applied_to_every_packet(self, grid31_2bins, fbg, code5):
        plan = NetworkPlan.fifo(grid31_2bins, fbg, code5, 1)
        code = plan.codes[1]
        plain = propagate_photon(UserChannel(1, code, (1, 1)), 1, plan)
        rotated = propagate_photon(
            UserChannel(1, code, (1, 1), global_phase=0.9), 1, plan
        )
        np.testing.assert_allclose(
            rotated.envelope.samples, plain.envelope.samples * np.exp(0.9j), atol=1e-12
        )


class TestPlanWord:
    WORDS = {
        "all_ones": (1,) * 8,
        "single_one": (0, 0, 0, 0, 0, 1, 0, 0),
        "random": tuple(int(b) for b in np.random.default_rng(5).integers(0, 2, 8)),
    }

    @pytest.mark.parametrize("name", sorted(WORDS))
    def test_matches_channel_envelope(self, fbg, code5, name):
        # a channel's envelope is the unit packet of every 1-bit, added in
        # bit order
        grid = TimeGrid(1.0, 31, 4, n_bins=8)
        plan = NetworkPlan.fifo(grid, fbg, code5, 1)
        bits = self.WORDS[name]
        expected = np.zeros(grid.n_samples)
        for k, bit in enumerate(bits):
            if bit:
                expected = expected + gaussian_packet(grid, k).samples.real
        assert np.array_equal(plan.word(bits), expected)

    @pytest.mark.parametrize("name", sorted(WORDS))
    def test_matches_reference_launch(self, fbg, code5, name):
        reference = _reference_module()
        grid = TimeGrid(1.0, 31, reference.SAMPLES_PER_CHIP, n_bins=8)
        plan = NetworkPlan.fifo(grid, fbg, code5, 1)
        expected = reference.ReferenceChain(code5.chips, 8, fbg.sigma_filt).launch(
            self.WORDS[name]
        )
        peak = np.max(np.abs(expected))
        assert np.max(np.abs(plan.word(self.WORDS[name]) - expected)) <= 1e-12 * peak

    def test_bit_count_must_match_bins(self, plan3):
        with pytest.raises(ValueError, match="bits"):
            plan3.word((1, 0))


class TestPropagation:
    def test_single_user_delivery_matches_oracle(self, grid31, fbg, code5):
        plan = NetworkPlan.fifo(grid31, fbg, code5, 1)
        trace = propagate_photon(UserChannel(1, plan.codes[1], (1,)), 1, plan)
        assert trace.source_id == 1 and trace.receiver_id == 1
        assert norm_sq(trace.envelope) == pytest.approx(
            SINGLE_USER_DELIVERED, rel=1e-9
        )

    def test_unknown_source_rejected(self, plan3, grid31):
        env = gaussian_packet(grid31)
        with pytest.raises(ValueError, match="no Add stage"):
            propagate_envelope(env, 9, 1, plan3)

    def test_unknown_receiver_rejected(self, plan3, grid31):
        env = gaussian_packet(grid31)
        with pytest.raises(ValueError, match="no Drop stage"):
            propagate_envelope(env, 1, 9, plan3)

    def test_grid_mismatch_rejected(self, plan3, grid31_2bins):
        env = gaussian_packet(grid31_2bins)
        with pytest.raises(ValueError, match="grid"):
            propagate_envelope(env, 1, 1, plan3)

    def test_matched_beats_foreign_delivery(self, fbg):
        # needs a realistic spreading factor for a crisp contrast
        from spreadmux.signal import TimeGrid

        grid = TimeGrid(1.0, 255, 4)
        base = msequence_code(LfsrSpec(8))
        plan = NetworkPlan.fifo(grid, fbg, base, 3)
        env = gaussian_packet(grid)
        matched = norm_sq(propagate_envelope(env, 1, 1, plan))
        foreign = norm_sq(propagate_envelope(env, 1, 2, plan))
        assert matched > 0.7
        assert foreign < 0.1 * matched

    def test_code_mismatch_rejected(self, plan3, code5):
        wrong = shift_code(code5, 9)
        with pytest.raises(ValueError, match="differs from the plan"):
            propagate_photon(UserChannel(1, wrong, (1,)), 1, plan3)

    def test_dark_channel_short_circuits(self, plan3, code5):
        trace = propagate_photon(UserChannel(1, plan3.codes[1], (0,)), 2, plan3)
        assert norm_sq(trace.envelope) == 0.0

    def test_dark_channel_still_validates_receiver(self, plan3):
        with pytest.raises(ValueError, match="no Drop stage"):
            propagate_photon(UserChannel(1, plan3.codes[1], (0,)), 9, plan3)

    def test_loss_grows_with_user_count(self, grid31, fbg, code5):
        def matched_loss(n_users: int) -> float:
            plan = NetworkPlan.fifo(grid31, fbg, code5, n_users)
            trace = propagate_photon(UserChannel(1, plan.codes[1], (1,)), 1, plan)
            return 1.0 - norm_sq(trace.envelope)

        losses = [matched_loss(n) for n in (1, 2, 4, 8)]
        assert losses == sorted(losses)
        assert losses[0] == pytest.approx(1.0 - SINGLE_USER_DELIVERED, abs=1e-9)


class TestPropagateAllAndDensity:
    def test_density_adds_per_photon(self, plan3, grid31):
        channels = [UserChannel(uid, plan3.codes[uid], (1,)) for uid in (1, 2, 3)]
        traces = [propagate_photon(ch, 2, plan3) for ch in channels]
        density = receiver_density(traces)
        expected = sum(t.envelope.density for t in traces)
        np.testing.assert_allclose(density, expected, atol=1e-15)
        assert density.shape == (grid31.n_samples,)

    def test_density_rejects_mixed_receivers(self, plan3):
        a = propagate_photon(UserChannel(1, plan3.codes[1], (1,)), 1, plan3)
        b = propagate_photon(UserChannel(1, plan3.codes[1], (1,)), 2, plan3)
        with pytest.raises(ValueError, match="receivers"):
            receiver_density([a, b])

    def test_density_rejects_mixed_grids(self, plan3, grid31_2bins, fbg, code5):
        a = propagate_photon(UserChannel(1, plan3.codes[1], (1,)), 1, plan3)
        other = NetworkPlan.fifo(grid31_2bins, fbg, code5, 1)
        b = propagate_photon(UserChannel(1, other.codes[1], (1, 0)), 1, other)
        with pytest.raises(ValueError, match="grids"):
            receiver_density([a, b])

    def test_plan_without_drops_reaches_no_receiver(self, grid31, fbg, code5):
        plan = NetworkPlan.from_orders(grid31, fbg, code5, [1, 2], [])
        channel = UserChannel(1, plan.codes[1], (1,))
        assert receiver_densities([channel], plan) == {}

    def test_density_needs_traces(self):
        with pytest.raises(ValueError, match="at least one"):
            receiver_density([])


def composed_walk(env, source_id, receiver_id, plan):
    """The chain spelled out stage by stage with the public per-stage
    functions, which always work on complex amplitudes: every Add in add
    order, then every Drop in drop order."""
    tau, fbg = plan.transition_time, plan.fbg
    inserted = False
    for user in plan.add_order:
        if user == source_id:
            env = mux_new_path(env, plan.codes[user], fbg, tau)
            inserted = True
        elif inserted:
            env = mux_old_path(env, plan.codes[user], fbg, tau)
    for user in plan.drop_order:
        if user == receiver_id:
            return demux_drop_path(env, plan.codes[user], fbg, tau).samples
        env = demux_through_path(env, plan.codes[user], fbg, tau)
    raise AssertionError("receiver never reached")


def assert_walk_matches_composition(env, plan):
    for source in plan.add_order:
        for receiver in plan.drop_order:
            walked = propagate_envelope(env, source, receiver, plan).samples
            expected = composed_walk(env, source, receiver, plan)
            peak = np.max(np.abs(expected))
            assert np.max(np.abs(walked - expected)) <= 1e-12 * peak, (source, receiver)


def interleaved_plan(grid, fbg, code, transition_time=0.0):
    # the drop order differs from the add order, so a receiver can sit
    # ahead of or behind the senders it hears in the drop chain
    return NetworkPlan.from_orders(
        grid, fbg, code, [1, 2, 3, 4], [2, 3, 1, 4], transition_time
    )


class TestWalkAgainstStageComposition:
    @pytest.mark.parametrize(
        "samples_per_chip, n_bins", [(4, 2), (3, 1)], ids=["even", "odd_length"]
    )
    def test_real_operator(self, fbg, code5, samples_per_chip, n_bins):
        grid = TimeGrid(1.0, 31, samples_per_chip, n_bins)
        assert grid.n_samples % 2 == (1 if samples_per_chip == 3 else 0)
        plan = interleaved_plan(grid, fbg, code5)
        env = gaussian_packet(grid, n_bins - 1)
        assert_walk_matches_composition(env, plan)

    @pytest.mark.parametrize("transition_time", [0.3 / 31], ids=["finite_transition"])
    def test_complex_operator(self, grid31_2bins, fbg, code5, transition_time):
        plan = interleaved_plan(grid31_2bins, fbg, code5, transition_time)
        env = gaussian_packet(grid31_2bins, 0) * np.exp(0.4j)
        assert_walk_matches_composition(env, plan)

    def test_complex_input_through_real_operator(self, grid31_2bins, fbg, code5):
        # two packets with different phases: no global phase makes this real
        env = gaussian_packet(grid31_2bins, 0) * np.exp(0.3j) + (
            gaussian_packet(grid31_2bins, 1) * np.exp(2.1j)
        )
        assert np.any(env.samples.imag) and np.any(env.samples.real)
        plan = interleaved_plan(grid31_2bins, fbg, code5)
        assert_walk_matches_composition(env, plan)

    def test_receiver_densities_match_per_pair_walks(self, grid31_2bins, fbg, code5):
        plan = interleaved_plan(grid31_2bins, fbg, code5)
        channels = [
            UserChannel(1, plan.codes[1], (1, 1), global_phase=0.5),
            UserChannel(2, plan.codes[2], (0, 0)),
            UserChannel(3, plan.codes[3], (0, 1), global_phase=4.0),
            UserChannel(4, plan.codes[4], (1, 0)),
        ]
        densities = receiver_densities(channels, plan)
        assert set(densities) == set(plan.drop_order)
        for receiver in plan.drop_order:
            expected = receiver_density(
                [propagate_photon(ch, receiver, plan) for ch in channels]
            )
            peak = np.max(expected)
            assert np.max(np.abs(densities[receiver] - expected)) <= 1e-12 * peak

    def test_run_trace_matches_per_pair_walks(self):
        from spreadmux.experiments import DEFAULT_SIGMA_FILT, ScenarioConfig, run_trace

        result = run_trace(
            ScenarioConfig(kind="trace", n_registers=(5,), users=(3,), bits_per_user=4)
        )
        plan = NetworkPlan.fifo(
            result.grid, FbgSpec(DEFAULT_SIGMA_FILT), msequence_code(LfsrSpec(5)), 3
        )
        for receiver in plan.drop_order:
            expected = receiver_density(
                [
                    propagate_photon(UserChannel(u, plan.codes[u], result.bits[u]),
                                     receiver, plan)
                    for u in result.users
                ]
            )
            peak = np.max(expected)
            assert np.max(np.abs(result.densities[receiver] - expected)) <= 1e-12 * peak


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.py"


def _reference_module():
    # bench/reference.py imports numpy only and shares no code with spreadmux
    spec = importlib.util.spec_from_file_location("bench_reference", REFERENCE)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    return reference


class TestWalkAgainstReferenceChain:
    def test_polyphase_walk_matches_full_fft_chain(self, fbg):
        # n = 7, 8 bins: 4064 samples, a grating band of 583 bins, and so
        # two polyphase rows of 2032 samples
        reference = _reference_module()
        base = msequence_code(LfsrSpec(7))
        grid = TimeGrid(1.0, 127, reference.SAMPLES_PER_CHIP, 8)
        users = [1, 2, 3, 4, 5, 6]
        drop_order = [4, 1, 6, 2, 5, 3]
        plan = NetworkPlan.from_orders(grid, fbg, base, users, drop_order)
        assert plan.grating.rows == 2
        chain = reference.ReferenceChain(base.chips, 8, fbg.sigma_filt)
        bits = (1, 0, 1, 1, 0, 0, 1, 0)
        for source, receiver in ((2, 4), (5, 5), (1, 3)):
            channel = UserChannel(source, plan.codes[source], bits, global_phase=0.7)
            walked = propagate_photon(channel, receiver, plan).envelope.samples
            launched = plan.word(bits) * np.exp(0.7j)
            expected = chain.deliver(launched, users, drop_order, source, receiver)
            peak = np.max(np.abs(expected))
            assert np.max(np.abs(walked - expected)) <= 1e-12 * peak, (source, receiver)
