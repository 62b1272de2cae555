"""Resource-state builders, loss channels and the party layout."""

import numpy as np
import pytest

from cvqss import (
    ChannelSpec,
    GaussianState,
    PartyLayout,
    build_three_mode_chain,
    build_kn_state,
    chain_topology,
    star_topology,
    validate,
)
from cvqss import keyrate, states
from cvqss.states import MAX_PLAYERS
from helpers import apply_cz, chain_expected_cov, pure_loss, squeezed_vacuum, tensor, variance


class TestChannelSpec:
    @pytest.mark.parametrize("transmissivity", [-0.01, 1.01])
    def test_transmissivity_range(self, transmissivity):
        with pytest.raises(ValueError):
            ChannelSpec(transmissivity)

    @pytest.mark.parametrize("transmissivity, bad", [
        (np.array([0.5, 1.5, -0.1]), "1.5"), (np.array([0.2, np.nan]), "nan"), (-0.01, "-0.01"),
    ], ids=["array", "array-nan", "scalar"])
    def test_each_value_is_checked_with_the_first_outside_named(self, transmissivity, bad):
        with pytest.raises(ValueError, match=rf"^transmissivity must lie in \[0, 1\], got {bad}$"):
            ChannelSpec(transmissivity)

    def test_negative_excess_noise_rejected(self):
        with pytest.raises(ValueError):
            ChannelSpec(0.5, -1e-3)


class TestPartyLayout:
    def test_dealer_cannot_play(self):
        with pytest.raises(ValueError):
            PartyLayout("A", ("A", "B"))

    def test_conjugate_players_must_exist(self):
        with pytest.raises(ValueError):
            PartyLayout("A", ("B",), frozenset({"C"}))

    def test_announced_coordinates(self):
        layout = PartyLayout("A", ("B", "C"), frozenset({"B"}))
        assert layout.announced_coordinate("B", "x") == ("B", "p")
        assert layout.announced_coordinate("B", "p") == ("B", "x")
        assert layout.announced_coordinate("C", "x") == ("C", "x")
        assert layout.announced_coordinates(("B", "C"), "p") == [("B", "x"), ("C", "p")]

    def test_check_state_catches_missing_modes(self):
        layout = PartyLayout("A", ("B", "Z"))
        state, _ = build_three_mode_chain(0.3, 1.0)
        with pytest.raises(ValueError, match="absent"):
            layout.check_state(state)


class TestPureLoss:
    def test_full_transmission_is_identity(self):
        state, _ = build_three_mode_chain(0.8, 1.0)
        out = pure_loss(state, "B", ChannelSpec(1.0, 0.0))
        assert np.allclose(out.cov, state.cov, atol=1e-12)
        assert out.labels == state.labels

    def test_zero_transmission_yields_vacuum(self):
        state, _ = build_three_mode_chain(0.8, 1.0)
        out = pure_loss(state, "B", ChannelSpec(0.0, 0.0))
        block = out.cov[np.ix_([2, 3], [2, 3])]
        assert np.allclose(block, 0.5 * np.eye(2), atol=1e-12)
        off = np.abs(out.cov[[0, 1, 4, 5], :][:, [2, 3]])
        assert off.max() < 1e-12

    @pytest.mark.parametrize("r", [0.0, 0.7, 1.3])
    @pytest.mark.parametrize("transmissivity", [0.0, 0.3, 0.85, 1.0])
    @pytest.mark.parametrize("excess", [0.0, 0.05])
    def test_closed_form_variances(self, r, transmissivity, excess):
        # Independent oracle: T*V + (1-T)/2 + excess on each diagonal entry.
        state = squeezed_vacuum(r, "p", label="a")
        out = pure_loss(state, "a", ChannelSpec(transmissivity, excess))
        for quad in ("x", "p"):
            expected = (transmissivity * variance(state, "a", quad)
                        + 0.5 * (1.0 - transmissivity) + excess)
            assert variance(out, "a", quad) == pytest.approx(expected, abs=1e-12)

    def test_mean_scales_by_root_transmissivity(self):
        state = GaussianState(np.array([2.0, -1.0, 0.5, 0.0]),
                              0.5 * np.eye(4), ("a", "b"))
        out = pure_loss(state, "a", ChannelSpec(0.49, 0.0))
        assert np.allclose(out.mean, [1.4, -0.7, 0.5, 0.0], atol=1e-12)

    @pytest.mark.parametrize("transmissivity", [0.1, 0.6, 0.95])
    def test_output_stays_physical(self, transmissivity):
        state, _ = build_three_mode_chain(1.2, 1.0)
        out = pure_loss(state, "C", ChannelSpec(transmissivity, 0.0))
        assert validate(out).physical

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            pure_loss(vacuum_state(), "zz", ChannelSpec(0.5))


def vacuum_state():
    return GaussianState(np.zeros(2), 0.5 * np.eye(2), ("a",))


class TestThreeModeChain:
    def test_layout(self):
        _, layout = build_three_mode_chain(1.0, 0.9)
        assert layout.dealer_mode == "A"
        assert layout.player_modes == ("B", "C")
        assert layout.conjugate_players == frozenset({"B"})

    def test_lossless_state_is_pure(self):
        state, _ = build_three_mode_chain(1.15, 1.0)
        nus = np.array(validate(state).symplectic_eigenvalues)
        assert np.abs(nus - 0.5).max() < 1e-9

    def test_coupled_vacua_are_pure(self):
        state, _ = build_three_mode_chain(0.0, 1.0)
        assert validate(state).purity == pytest.approx(1.0, abs=1e-9)

    def test_lossy_state_is_mixed_but_physical(self):
        state, _ = build_three_mode_chain(0.5, 0.85)
        diag = validate(state)
        assert diag.physical
        assert diag.purity < 1.0

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.15])
    @pytest.mark.parametrize("transmissivity", [1.0, 0.9, 0.85])
    def test_matches_hand_propagated_covariance(self, r, transmissivity):
        state, _ = build_three_mode_chain(r, transmissivity)
        assert np.allclose(state.cov, chain_expected_cov(r, transmissivity), atol=1e-12)
        assert np.allclose(state.mean, np.zeros(6), atol=1e-15)

    def test_gate_order_is_irrelevant(self):
        # Both couplings are x-x interactions, so they commute.
        inputs = tensor(tensor(squeezed_vacuum(0.9, "p", label="A"),
                               squeezed_vacuum(0.9, "p", label="B")),
                        squeezed_vacuum(0.9, "p", label="C"))
        ab_first = apply_cz(apply_cz(inputs, "A", "B", 1.0), "B", "C", 1.0)
        bc_first = apply_cz(apply_cz(inputs, "B", "C", 1.0), "A", "B", 1.0)
        assert np.allclose(ab_first.cov, bc_first.cov, atol=1e-12)


class TestKnState:
    def test_general_builder_reproduces_the_chain(self):
        spec = ChannelSpec(0.9, 0.0)
        state, layout = build_kn_state(
            2, 0.8, {"B": spec, "C": spec}, (("A", "B"), ("B", "C")),
            player_labels=("B", "C"))
        chain, chain_layout = build_three_mode_chain(0.8, 0.9)
        assert np.allclose(state.cov, chain.cov, atol=1e-14)
        assert layout == chain_layout

    def test_star_state_validates(self):
        spec = ChannelSpec(1.0, 0.0)
        state, layout = build_kn_state(
            4, 1.0, {f"B{i}": spec for i in range(1, 5)}, star_topology(4))
        assert validate(state).physical
        # every leaf of the star sits at odd distance from the dealer
        assert layout.conjugate_players == frozenset({"B1", "B2", "B3", "B4"})

    def test_chain_parity_alternates(self):
        spec = ChannelSpec(1.0, 0.0)
        _, layout = build_kn_state(
            3, 0.5, {f"B{i}": spec for i in range(1, 4)}, chain_topology(3))
        assert layout.conjugate_players == frozenset({"B1", "B3"})

    def test_disconnected_topology_rejected(self):
        spec = ChannelSpec(1.0, 0.0)
        with pytest.raises(ValueError, match="disconnected"):
            build_kn_state(3, 0.5, {f"B{i}": spec for i in range(1, 4)},
                           (("A", "B1"), ("B2", "B3")))

    def test_missing_channel_spec_rejected(self):
        with pytest.raises(ValueError, match="missing channel specs"):
            build_kn_state(2, 0.5, {"B1": ChannelSpec(1.0)}, chain_topology(2))

    def test_single_player_rejected(self):
        with pytest.raises(ValueError):
            build_kn_state(1, 0.5, {"B1": ChannelSpec(1.0)}, chain_topology(1))

    def test_player_cap_rejected_before_any_matrix(self, monkeypatch):
        def no_squeezer(*args, **kwargs):
            raise AssertionError("a matrix was built before the player cap")

        monkeypatch.setattr(states, "_squeezed_covariance", no_squeezer)
        n = MAX_PLAYERS + 1
        with pytest.raises(ValueError, match=f"n = {n} players exceeds the supported "
                                             f"maximum of {MAX_PLAYERS}"):
            build_kn_state(n, 0.5, {}, star_topology(n))
        assert keyrate.MAX_PLAYERS is MAX_PLAYERS

    def test_excess_noise_reduces_purity(self):
        clean = ChannelSpec(0.9, 0.0)
        noisy = ChannelSpec(0.9, 0.1)
        state_clean, _ = build_kn_state(2, 1.0, {"B1": clean, "B2": clean},
                                        chain_topology(2))
        state_noisy, _ = build_kn_state(2, 1.0, {"B1": noisy, "B2": noisy},
                                        chain_topology(2))
        assert validate(state_noisy).physical
        assert validate(state_noisy).purity < validate(state_clean).purity
