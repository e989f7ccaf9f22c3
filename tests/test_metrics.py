"""Loss, crosstalk, fidelity, per-bin detection and the two-bin test states."""

import math

import numpy as np
import pytest

from spreadmux.metrics import (
    COW_LABELS,
    cow_state,
    cow_states,
    crosstalk_probability,
    fidelity,
    ideal_loss_bound,
    loss_probability,
    per_bin_detection,
)
from spreadmux.network import NetworkPlan, PhotonTrace, UserChannel, propagate_photon
from spreadmux.signal import (
    SampledEnvelope,
    gaussian_packet,
    inner_product,
    norm_sq,
    zero_envelope,
)


@pytest.fixture
def plan2(grid31, fbg, code5):
    return NetworkPlan.fifo(grid31, fbg, code5, 2)


class TestLossAndCrosstalk:
    def test_loss_complements_delivered_norm(self, plan2):
        trace = propagate_photon(UserChannel(1, plan2.codes[1], (1,)), 1, plan2)
        assert loss_probability(trace) == pytest.approx(
            1.0 - norm_sq(trace.envelope), abs=1e-15
        )

    def test_loss_of_dark_channel_is_one(self, plan2):
        trace = propagate_photon(UserChannel(1, plan2.codes[1], (0,)), 1, plan2)
        assert loss_probability(trace) == 1.0

    def test_crosstalk_sums_foreign_norms(self, plan2):
        tr = propagate_photon(UserChannel(2, plan2.codes[2], (1,)), 1, plan2)
        assert crosstalk_probability([tr]) == pytest.approx(norm_sq(tr.envelope))
        assert crosstalk_probability([tr, tr]) == pytest.approx(
            2.0 * norm_sq(tr.envelope)
        )

    def test_crosstalk_of_nothing_is_zero(self):
        assert crosstalk_probability([]) == 0.0


class TestFidelity:
    def test_identical_states(self, grid31):
        env = gaussian_packet(grid31)
        assert fidelity(env, env) == pytest.approx(1.0, rel=1e-12)

    def test_attenuation_without_distortion(self, grid31):
        env = gaussian_packet(grid31)
        dimmed = 0.5 * env
        assert fidelity(env, dimmed) == pytest.approx(0.25, rel=1e-12)
        assert fidelity(env, dimmed, normalize=True) == pytest.approx(1.0, rel=1e-12)

    def test_phase_invariance(self, grid31):
        env = gaussian_packet(grid31)
        rotated = env * np.exp(0.77j)
        assert fidelity(env, rotated) == pytest.approx(1.0, rel=1e-12)

    def test_orthogonal_states(self, grid31_2bins):
        early = gaussian_packet(grid31_2bins, 0)
        late = gaussian_packet(grid31_2bins, 1)
        assert fidelity(early, late) < 1e-20

    def test_zero_received_needs_no_normalisation(self, grid31):
        env = gaussian_packet(grid31)
        assert fidelity(env, zero_envelope(grid31)) == 0.0
        with pytest.raises(ValueError, match="zero received"):
            fidelity(env, zero_envelope(grid31), normalize=True)


class TestPerBinDetection:
    def test_partition_of_total_probability(self, grid31_2bins):
        env = gaussian_packet(grid31_2bins, 1)
        detections = per_bin_detection(env.density, grid31_2bins)
        assert detections.shape == (2,)
        assert detections.sum() == pytest.approx(norm_sq(env), rel=1e-12)
        assert detections[1] == pytest.approx(1.0, abs=1e-9)
        assert detections[0] < 1e-9

    def test_shape_validated(self, grid31):
        with pytest.raises(ValueError, match="shape"):
            per_bin_detection(np.zeros(7), grid31)


class TestIdealLossBound:
    def test_reference_values(self):
        assert ideal_loss_bound(1, 1023) == 0.0
        assert ideal_loss_bound(5, 1023) == pytest.approx(8.0 / 1023)
        assert ideal_loss_bound(50, 255) == pytest.approx(98.0 / 255)

    def test_monotone_in_users_and_spreading(self):
        assert ideal_loss_bound(20, 1023) > ideal_loss_bound(5, 1023)
        assert ideal_loss_bound(5, 4095) < ideal_loss_bound(5, 1023)

    def test_user_count_validated(self):
        with pytest.raises(ValueError, match="n_users"):
            ideal_loss_bound(0, 1023)


class TestCowStates:
    def test_labels_and_order(self, grid31_2bins):
        states = cow_states(grid31_2bins)
        assert tuple(s.label for s in states) == COW_LABELS

    def test_all_unit_norm(self, grid31_2bins):
        for state in cow_states(grid31_2bins):
            assert norm_sq(state.envelope) == pytest.approx(1.0, rel=1e-12)

    def test_bit_states_occupy_opposite_bins(self, grid31_2bins):
        one = cow_state(grid31_2bins, "one")
        zero = cow_state(grid31_2bins, "zero")
        one_bins = per_bin_detection(one.envelope.density, grid31_2bins)
        zero_bins = per_bin_detection(zero.envelope.density, grid31_2bins)
        assert one_bins[0] > 0.999 and one_bins[1] < 1e-6
        assert zero_bins[1] > 0.999 and zero_bins[0] < 1e-6

    def test_superpositions_are_orthogonal(self, grid31_2bins):
        plus = cow_state(grid31_2bins, "plus").envelope
        minus = cow_state(grid31_2bins, "minus").envelope
        assert abs(inner_product(plus, minus)) < 1e-12

    def test_superposition_overlaps_with_bit_states(self, grid31_2bins):
        plus = cow_state(grid31_2bins, "plus").envelope
        one = cow_state(grid31_2bins, "one").envelope
        # equal-weight superposition: |<one|plus>|^2 = 1/2 up to the
        # exp(-25) packet overlap
        assert abs(inner_product(one, plus)) ** 2 == pytest.approx(0.5, rel=1e-6)

    def test_label_validated(self, grid31_2bins):
        with pytest.raises(ValueError, match="label"):
            cow_state(grid31_2bins, "half")

    def test_needs_two_bins(self, grid31):
        with pytest.raises(ValueError, match="adjacent bins"):
            cow_state(grid31, "plus")

    def test_first_bin_offset(self):
        from spreadmux.signal import TimeGrid

        grid = TimeGrid(1.0, 31, 4, n_bins=4)
        state = cow_state(grid, "one", first_bin=2)
        bins = per_bin_detection(state.envelope.density, grid)
        assert bins[2] == pytest.approx(1.0, abs=1e-9)
