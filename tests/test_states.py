"""Resource-state builders, loss channels and the party layout."""

import mpmath
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
from helpers import (
    apply_cz,
    chain_expected_cov,
    kn_state_exact,
    kn_state_loop,
    pure_loss,
    squeezed_vacuum,
    tensor,
    variance,
)

#: Roundings of relative size u = eps/2 that bound any entry of the build. The
#: longest path is a player's p variance: exp (under 1 ulp, counted as 2), then
#: g*g, * V_x, * the gate count and + V_p, two sqrt(T) and two scalings, and
#: + the noise, 11 in all; one more covers the second-order terms.
BUILD_ROUNDINGS = 12
ORACLE_CHANNELS = {f"B{i}": spec for i, spec in enumerate([
    ChannelSpec(0.0), ChannelSpec(1.0), ChannelSpec(0.0, 0.05), ChannelSpec(1.0, 0.02),
    ChannelSpec(0.5, 0.05), ChannelSpec(0.93, 0.01)], start=1)}
ORACLE_R = [0.0, 0.35, 1.1, 2.0]


def assert_within_roundings(cov, exact):
    """Each entry of ``cov`` within BUILD_ROUNDINGS u of ``exact``'s (an exact 0 is 0)."""
    bound = BUILD_ROUNDINGS * np.finfo(float).eps / 2
    for (i, j), value in np.ndenumerate(cov):
        assert abs(mpmath.mpf(value) - exact[i][j]) <= bound * abs(exact[i][j]), (i, j)


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

    def test_cross_covariance_scales_by_root_transmissivity(self):
        # The mode's amplitude, and so each of its correlations, keeps sqrt(T).
        state, _ = build_three_mode_chain(0.8, 1.0)
        out = pure_loss(state, "B", ChannelSpec(0.49, 0.05))
        others = [0, 1, 4, 5]
        assert np.allclose(out.cov[np.ix_([2, 3], others)],
                           0.7 * state.cov[np.ix_([2, 3], others)], atol=1e-12)
        assert np.allclose(out.cov[np.ix_(others, others)],
                           state.cov[np.ix_(others, others)], atol=1e-12)

    @pytest.mark.parametrize("transmissivity", [0.1, 0.6, 0.95])
    def test_output_stays_physical(self, transmissivity):
        state, _ = build_three_mode_chain(1.2, 1.0)
        out = pure_loss(state, "C", ChannelSpec(transmissivity, 0.0))
        assert validate(out).physical

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            pure_loss(vacuum_state(), "zz", ChannelSpec(0.5))


def vacuum_state():
    return GaussianState(0.5 * np.eye(2), ("a",))


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

    def test_parity_follows_the_shortest_path_on_a_cycle(self):
        # A-B1-B2-B3-B4-A: the long way round puts B3 at distance 3, the
        # short way at 2, so B3 is not conjugate and B4 is.
        spec = ChannelSpec(1.0, 0.0)
        edges = (("A", "B1"), ("B1", "B2"), ("B2", "B3"), ("B3", "B4"), ("B4", "A"))
        _, layout = build_kn_state(4, 0.5, {f"B{i}": spec for i in range(1, 5)}, edges)
        assert layout.conjugate_players == frozenset({"B1", "B4"})

    def test_disconnected_topology_rejected(self):
        spec = ChannelSpec(1.0, 0.0)
        with pytest.raises(ValueError, match="disconnected"):
            build_kn_state(3, 0.5, {f"B{i}": spec for i in range(1, 4)},
                           (("A", "B1"), ("B2", "B3")))

    def test_the_first_bad_edge_is_refused_before_the_graph_or_squeezing(self):
        specs = {f"B{i}": ChannelSpec(1.0, 0.0) for i in range(1, 4)}
        for edges, message in [
            ((("A", "B1"), ("B1", "B1"), ("A", "Z")), "self-loop on 'B1'"),
            ((("A", "B1"), ("Z", "Z"), ("B1", "B1")),
             "edge ('Z', 'Z') references an unknown node"),
            ((("A", "B1"), ("B2", "B3")), "topology is disconnected from the dealer: ['B2', 'B3']"),
        ]:
            with pytest.raises(ValueError) as refusal:
                build_kn_state(3, -1.0, specs, edges)
            assert str(refusal.value) == message

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


class TestKnStateOracle:
    """The closed-form build against a 50-digit evaluation of the model."""

    @pytest.mark.parametrize("cz_weight", [0.8, 1.0, 1.3])
    @pytest.mark.parametrize("topology", [chain_topology, star_topology])
    def test_every_entry_is_within_the_build_roundings(self, topology, cz_weight):
        state, _ = build_kn_state(6, np.array(ORACLE_R), ORACLE_CHANNELS, topology(6),
                                  cz_weight=cz_weight)
        for cov, r in zip(state.cov, ORACLE_R):
            assert_within_roundings(cov, kn_state_exact(r, ORACLE_CHANNELS, topology(6),
                                                         cz_weight))

    def test_a_repeated_edge_is_two_gates_and_the_gate_by_gate_oracle_agrees(self):
        specs = {f"B{i}": ORACLE_CHANNELS[f"B{i}"] for i in range(1, 5)}
        edges = chain_topology(4) + (("B2", "B1"),)
        state, _ = build_kn_state(4, np.array(ORACLE_R), specs, edges, cz_weight=1.3)
        for cov, r in zip(state.cov, ORACLE_R):
            exact = kn_state_exact(r, specs, edges, 1.3)
            assert_within_roundings(cov, exact)
            assert_within_roundings(kn_state_loop(r, specs, edges, 1.3).cov, exact)
