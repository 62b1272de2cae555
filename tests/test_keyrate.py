"""Secret-key-rate bounds and threshold-structure enumeration."""

import copy
import math
import pickle
import tracemalloc
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from cvqss import (
    ChannelSpec,
    GaussianState,
    PartyLayout,
    SECURITY_THRESHOLD,
    ThresholdScheme,
    build_three_mode_chain,
    build_kn_state,
    chain_topology,
    keyrate_eavesdropping,
    keyrate_qss,
    star_topology,
)
from cvqss import keyrate as keyrate_module
from cvqss.estimation import check_conditional_variances
from cvqss.jsontext import json_text
from cvqss.keyrate import combine
from helpers import (
    bisect_root,
    chain_expected_variances,
    dishonest_rate_loop,
    product_vacuum,
    pure_loss,
    schur_loop,
    star_closed_forms,
    tensor,
    two_mode_squeezed,
    vacuum,
    variance,
)

#: Squeezing at which the two-mode inference product sits exactly on the
#: security threshold: 1/(2 cosh 2r)^2 = exp(-2).
R_THRESHOLD = 0.5 * math.acosh(0.5 * math.e)


def chain_grid():
    return [(r, t) for r in (0.0, 0.3, 0.8, 1.15, 1.5) for t in (1.0, 0.9, 0.85)]


class TestEnumeration:
    def test_two_two(self):
        scheme = ThresholdScheme(2, 2)
        assert scheme.access_structures == ((1, 2),)
        assert scheme.adversarial_structures == ((1,), (2,))

    def test_three_of_five_counts(self):
        scheme = ThresholdScheme(3, 5)
        assert len(scheme.access_structures) == 10
        assert len(scheme.adversarial_structures) == 10

    def test_lexicographic_order(self):
        scheme = ThresholdScheme(2, 4)
        assert scheme.access_structures == tuple(
            sorted(scheme.access_structures))
        assert scheme.access_structures[0] == (1, 2)

    def test_k_equal_one_has_empty_adversarial_structure(self):
        scheme = ThresholdScheme(1, 3)
        assert scheme.adversarial_structures == ((),)
        assert len(scheme.access_structures) == 3

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            ThresholdScheme(3, 2)

    def test_player_cap(self):
        with pytest.raises(ValueError, match="desk scale"):
            ThresholdScheme(2, 25)

    def test_structure_budget_refuses_before_enumerating(self, monkeypatch):
        def no_subsets(*args):
            raise AssertionError("subsets built before the budget check")

        monkeypatch.setattr(keyrate_module, "combinations", no_subsets)
        monkeypatch.setattr(keyrate_module, "_subset_rows", no_subsets)
        count = math.comb(24, 12) + math.comb(24, 11)
        assert count > keyrate_module.MAX_STRUCTURES
        with pytest.raises(ValueError, match=f"{count} .*budget of "
                                             f"{keyrate_module.MAX_STRUCTURES}"):
            ThresholdScheme(12, 24)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            ThresholdScheme(0, 3)

    @pytest.mark.parametrize("k, n", [(k, n) for n in range(2, 15) for k in range(1, n + 1)]
                             + [(k, 24) for k in (1, 2, 23, 24)])
    def test_structures_are_derived_from_k_and_n(self, k, n):
        scheme = ThresholdScheme(k, n)
        players = range(1, n + 1)
        assert scheme.access_structures == tuple(combinations(players, k))
        assert scheme.adversarial_structures == tuple(combinations(players, k - 1))
        access, colluding = scheme._player_rows
        honest = keyrate_module._complements(colluding, n)
        assert access.tolist() == (np.array(scheme.access_structures) - 1).tolist()
        assert [sorted(set(range(n)) - set(c)) for c in colluding.tolist()] == honest.tolist()
        groups = list(combinations(range(n), k - 1))
        expected = (np.array(list(combinations(range(n), k)), dtype=int),
                    np.array(groups, dtype=int).reshape(len(groups), k - 1),  # k = 1: one ()
                    np.array([[i for i in range(n) if i not in group] for group in groups]))
        for rows, want in zip((access, colluding, honest), expected, strict=True):
            assert rows.dtype == want.dtype and rows.shape == want.shape
            assert np.array_equal(rows, want)
        # The scheme holds its access and colluding rows, read-only; honest sides are built.
        assert [rows.flags.writeable for rows in scheme._player_rows] == [False, False]
        assert scheme == ThresholdScheme(k, n)
        with pytest.raises(TypeError):
            ThresholdScheme(k, n, scheme.access_structures, scheme.adversarial_structures)

    def test_scheme_is_its_k_and_n_and_derives_the_tuples_on_first_read(self, monkeypatch):
        def no_tuples(*args):
            raise AssertionError("structure tuples built")

        monkeypatch.setattr(keyrate_module, "combinations", no_tuples)
        scheme = ThresholdScheme(7, 14)
        assert repr(scheme) == "ThresholdScheme(k=7, n=14)"
        copied = pickle.loads(pickle.dumps(scheme))
        assert copied == scheme and hash(copied) == hash(ThresholdScheme(7, 14))
        assert scheme != ThresholdScheme(6, 14)
        assert all(np.array_equal(a, b) for a, b in zip(copied._player_rows,
                                                        scheme._player_rows))
        monkeypatch.undo()
        assert copied.access_structures == tuple(combinations(range(1, 15), 7))
        assert scheme.access_structures is scheme.access_structures  # built once
        assert pickle.loads(pickle.dumps(scheme)) == scheme

    @pytest.mark.parametrize("k", [23, 24])
    def test_rows_never_outgrow_the_structures(self, k):
        # Widths below k - 1 keep only rows that can still reach it; extended by
        # every larger index, the rows of width 12 would be C(24, 12) = 2.7 million.
        tracemalloc.start()
        try:
            ThresholdScheme(k, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_structure_lists_are_not_accepted(self):
        # This list repeats {B1, B2} and drops {B2, B3}; on this chain it read
        # K = 0.662 with a positive verdict, where the full reduction has no key.
        with pytest.raises(TypeError):
            ThresholdScheme(2, 3, ((1, 2), (1, 2), (1, 3)), ((1,), (2,), (3,)))
        state, layout = build_kn_state(3, 1.0, {f"B{i}": ChannelSpec(0.9) for i in (1, 2, 3)},
                                       chain_topology(3))
        report = keyrate_qss(state, layout, ThresholdScheme(2, 3))
        assert report.combined_rate == pytest.approx(-1.348224570168, abs=1e-9)
        assert not report.positive


class TestEavesdroppingBound:
    def test_uncorrelated_state_is_insecure(self):
        state = product_vacuum(["A", "B", "C"])
        layout = PartyLayout("A", ("B", "C"))
        report = keyrate_eavesdropping(state, layout)
        assert report.v_x_conditional == pytest.approx(0.5, abs=1e-12)
        assert report.v_p_conditional == pytest.approx(0.5, abs=1e-12)
        assert report.rate == pytest.approx(-math.log2(0.5 * math.e), abs=1e-12)
        assert report.rate < 0

    def test_threshold_state_has_zero_rate(self):
        state = two_mode_squeezed(R_THRESHOLD)
        layout = PartyLayout("A", ("B",))
        report = keyrate_eavesdropping(state, layout)
        assert report.inference_product == pytest.approx(SECURITY_THRESHOLD, rel=1e-12)
        assert abs(report.rate) < 1e-12

    def test_feasible_squeezing_keeps_positive_rate(self):
        state, layout = build_three_mode_chain(1.15, 1.0)
        assert keyrate_eavesdropping(state, layout).rate > 0.0


class TestDishonestBound:
    def test_uncorrelated_honest_player_kills_the_key(self):
        state, _ = build_three_mode_chain(1.0, 1.0)
        state = tensor(state, vacuum(1, labels=("D",)))
        layout = PartyLayout("A", ("B", "D"), frozenset({"B"}))
        report = keyrate_qss(state, layout, ThresholdScheme(2, 2))
        assert report.adversarial_conditional_variance[("B",)] == pytest.approx(
            variance(state, "A", "p"), rel=1e-12)
        assert report.dishonest_rates["B"] < -1.0

    @pytest.mark.parametrize("r,transmissivity", chain_grid())
    def test_never_beats_eavesdropping_bound(self, r, transmissivity):
        state, layout = build_three_mode_chain(r, transmissivity)
        eav = keyrate_eavesdropping(state, layout).rate
        report = keyrate_qss(state, layout, ThresholdScheme(2, 2))
        for player in ("B", "C"):
            assert report.dishonest_rates[player] <= eav + 1e-9

    def test_chain_asymmetry_separates_the_players(self):
        state, layout = build_three_mode_chain(1.0, 1.0)
        report = keyrate_qss(state, layout, ThresholdScheme(2, 2))
        expected = chain_expected_variances(1.0, 1.0)
        assert report.adversarial_conditional_variance[("B",)] == pytest.approx(
            expected["v_p_given_c_only"], rel=1e-12)
        assert report.adversarial_conditional_variance[("C",)] == pytest.approx(
            expected["v_p_given_b_only"], rel=1e-12)
        assert report.dishonest_rates["B"] < report.dishonest_rates["C"]


class TestClosedFormOracle:
    @pytest.mark.parametrize("r,transmissivity", chain_grid())
    def test_all_inference_variances_match_hand_derivation(self, r, transmissivity):
        state, layout = build_three_mode_chain(r, transmissivity)
        expected = chain_expected_variances(r, transmissivity)
        eav = keyrate_eavesdropping(state, layout)
        assert eav.v_x_conditional == pytest.approx(
            expected["v_x_given_all"], rel=1e-12)
        assert eav.v_p_conditional == pytest.approx(
            expected["v_p_given_all"], rel=1e-12)
        report = keyrate_qss(state, layout, ThresholdScheme(2, 2))
        assert report.adversarial_conditional_variance[("B",)] == pytest.approx(
            expected["v_p_given_c_only"], rel=1e-12)
        assert report.adversarial_conditional_variance[("C",)] == pytest.approx(
            expected["v_p_given_b_only"], rel=1e-12)


class TestCombinedBound:
    @pytest.mark.parametrize("r,transmissivity", chain_grid())
    def test_two_two_equals_worst_dishonest_player(self, r, transmissivity):
        state, layout = build_three_mode_chain(r, transmissivity)
        report = keyrate_qss(state, layout, ThresholdScheme(2, 2))
        worst = min(dishonest_rate_loop(state, layout, "B"),
                    dishonest_rate_loop(state, layout, "C"))
        assert report.combined_rate == pytest.approx(worst, abs=1e-9)

    @pytest.mark.parametrize("r,transmissivity", chain_grid())
    def test_combined_never_beats_eavesdropping(self, r, transmissivity):
        state, layout = build_three_mode_chain(r, transmissivity)
        report = keyrate_qss(state, layout, ThresholdScheme(2, 2))
        assert report.combined_rate <= report.eavesdropping_rate + 1e-9

    def test_combined_is_min_information_minus_max_holevo(self):
        state, layout = build_three_mode_chain(1.0, 0.9)
        report = keyrate_qss(state, layout, ThresholdScheme(2, 2))
        expected = (min(report.access_mutual_information.values())
                    - max(report.adversarial_holevo.values()))
        assert report.combined_rate == pytest.approx(expected, abs=1e-12)

    def test_star_two_of_three_report_shape(self):
        spec = ChannelSpec(1.0, 0.0)
        state, layout = build_kn_state(
            3, 1.0, {f"B{i}": spec for i in range(1, 4)}, star_topology(3))
        report = keyrate_qss(state, layout, ThresholdScheme(2, 3))
        assert len(report.access_mutual_information) == 3
        assert len(report.adversarial_holevo) == 3
        assert report.positive == (report.combined_rate > 0.0)

    def test_vacuumed_player_blocks_full_threshold(self):
        # (n, n) needs every player; replacing one with vacuum removes the
        # correlations the scheme requires, so no key survives.
        spec = ChannelSpec(1.0, 0.0)
        state, layout = build_kn_state(
            3, 1.2, {f"B{i}": spec for i in range(1, 4)}, chain_topology(3))
        state = pure_loss(state, "B2", ChannelSpec(0.0, 0.0))
        report = keyrate_qss(state, layout, ThresholdScheme(3, 3))
        assert report.combined_rate <= 0.0

    def test_unsqueezed_chain_has_no_key(self):
        spec = ChannelSpec(0.95, 0.0)
        state, layout = build_kn_state(
            3, 0.0, {f"B{i}": spec for i in range(1, 4)}, chain_topology(3))
        report = keyrate_qss(state, layout, ThresholdScheme(3, 3))
        assert report.combined_rate <= 0.0

    def test_threshold_squeezing_zeroes_the_combined_rate(self):
        # The (2, 2) chain rate crosses zero where the binding inference
        # product reaches exp(-2); locate the crossing and pin the identity.
        scheme = ThresholdScheme(2, 2)

        def product_gap(r):
            state, layout = build_three_mode_chain(r, 1.0)
            report = keyrate_qss(state, layout, scheme)
            return report.inference_product - SECURITY_THRESHOLD

        r_star = bisect_root(product_gap, 0.05, 1.0)
        state, layout = build_three_mode_chain(r_star, 1.0)
        report = keyrate_qss(state, layout, scheme)
        assert abs(report.combined_rate) < 1e-10

    def test_scheme_size_must_match_layout(self):
        state, layout = build_three_mode_chain(1.0, 1.0)
        with pytest.raises(ValueError, match="players"):
            keyrate_qss(state, layout, ThresholdScheme(2, 3))

    def test_one_one_rejected(self):
        state = two_mode_squeezed(0.5)
        layout = PartyLayout("A", ("B",))
        with pytest.raises(ValueError, match="sharing"):
            keyrate_qss(state, layout, ThresholdScheme(1, 1))


class TestDegenerateThreshold:
    """k = 1: the adversarial side reduces to plain eavesdropping."""

    def test_empty_collusion_reproduces_eavesdropping_holevo(self):
        state, layout = build_three_mode_chain(1.0, 0.9)
        report = keyrate_qss(state, layout, ThresholdScheme(1, 2))
        eav = keyrate_eavesdropping(state, layout)
        assert report.adversarial_holevo[()] == pytest.approx(
            eav.holevo_bound, abs=1e-12)
        assert report.adversarial_conditional_variance[()] == pytest.approx(
            eav.v_p_conditional, abs=1e-12)

    def test_uncorrelated_resource_matches_eavesdropping_rate_exactly(self):
        state = product_vacuum(["A", "B", "C"])
        layout = PartyLayout("A", ("B", "C"))
        report = keyrate_qss(state, layout, ThresholdScheme(1, 2))
        eav = keyrate_eavesdropping(state, layout)
        assert report.combined_rate == pytest.approx(eav.rate, abs=1e-12)

    def test_correlated_resource_stays_below_eavesdropping_rate(self):
        # With k = 1 every single player must decode alone, which costs
        # reconciliation information; the bound cannot exceed the plain one.
        state, layout = build_three_mode_chain(1.0, 1.0)
        report = keyrate_qss(state, layout, ThresholdScheme(1, 2))
        assert report.combined_rate <= report.eavesdropping_rate + 1e-12


class TestAllPlayerInference:
    """A side whose one row is every player stands in for the all-player inference."""

    @pytest.mark.parametrize("topology", [star_topology, chain_topology])
    @pytest.mark.parametrize("n, k", [(2, 1), (2, 2), (5, 1), (5, 5)])
    def test_one_row_sides_equal_the_all_player_inference_bit_for_bit(self, n, k, topology):
        spec = ChannelSpec(np.array([1.0, 0.9]), 0.01)  # a stack of two points
        state, layout = build_kn_state(n, np.array([0.4, 1.2]),
                                       {f"B{i}": spec for i in range(1, n + 1)}, topology(n))
        rates = keyrate_module.key_rates(state, layout, ThresholdScheme(k, n))
        x, p, bound = keyrate_module._everyone(state, layout)
        for side, reference in ((rates.everyone_x, x), (rates.everyone_p, p)):
            for ours, theirs in zip(side, reference, strict=True):
                assert np.array_equal(ours, theirs)
        for ours, theirs in zip(rates.eavesdropping, bound, strict=True):
            assert np.array_equal(ours, theirs)
        if k == n:
            assert rates.everyone_x is rates.access
        if k == 1:
            assert rates.everyone_p is rates.adversarial

    def test_report_carries_the_all_player_variances(self):
        state, layout = _kn_state(4, star_topology)
        report = keyrate_qss(state, layout, ThresholdScheme(2, 4))
        eav = keyrate_eavesdropping(state, layout)
        assert report._everyone_variances == (eav.v_x_conditional, eav.v_p_conditional)
        assert "_everyone_variances" not in json_text(report)


def _kn_state(n, topology, r=1.15, transmissivity=0.93):
    spec = ChannelSpec(transmissivity, 0.0)
    return build_kn_state(n, r, {f"B{i}": spec for i in range(1, n + 1)},
                          topology(n))


def _ulp_apart(state, layout, player):
    """The state with ``player``'s p variance one ulp lower."""
    cov, i = np.array(state.cov), state.quad_index(player, "p")
    cov[i, i] = np.nextafter(cov[i, i], 0.0)
    return GaussianState(cov, state.labels), layout


def _reference_sides(state, layout, scheme):
    """Per-structure variances and gains from one 2-D Schur complement each."""

    def indices(groups, basis):
        return [[state.quad_index(*coord)
                 for coord in layout.announced_coordinates(players, basis)]
                for players in groups]

    def players(structure):
        return tuple(layout.player_modes[i - 1] for i in structure)

    access = [players(s) for s in scheme.access_structures]
    honest = [tuple(p for p in layout.player_modes if p not in players(s))
              for s in scheme.adversarial_structures]
    x_side = schur_loop(state.cov, state.quad_index("A", "x"), indices(access, "x"))
    p_side = schur_loop(state.cov, state.quad_index("A", "p"), indices(honest, "p"))
    return x_side, p_side, honest


def _assert_report_matches_loop(state, layout, scheme):
    """keyrate_qss's per-structure variances and gains equal the loop reference bit for bit,
    and its gains' estimators are the access rows and the collusions' complements."""
    report = keyrate_qss(state, layout, scheme)
    (x_var, x_gains, _), (p_var, p_gains, _), honest = _reference_sides(state, layout, scheme)
    access, colluding = scheme._player_rows
    assert np.array_equal(report.access_gains.estimators, access)
    assert np.array_equal(report.adversarial_gains.estimators,
                          keyrate_module._complements(colluding, scheme.n))
    assert np.array_equal(list(report.access_conditional_variance.values()), x_var)
    assert np.array_equal(
        [list(g.gains.values()) for g in report.access_gains.values()], x_gains)
    assert np.array_equal(list(report.adversarial_conditional_variance.values()), p_var)
    assert np.array_equal(
        [list(g.gains.values()) for g in report.adversarial_gains.values()], p_gains)
    for players, gains in report.access_gains.items():
        assert tuple(gains.gains) == players and gains.quadrature == "x"
    for (colluders, gains), players in zip(report.adversarial_gains.items(), honest,
                                           strict=True):
        assert set(gains.gains).isdisjoint(colluders) and gains.quadrature == "p"
        assert tuple(gains.gains) == players and len(players) == scheme.n - len(colluders)


class TestBatchedStructures:
    """keyrate_qss's batched kernel against the per-structure loop, bit for bit."""

    @pytest.mark.parametrize("n, k, topology", [
        (14, 7, star_topology),
        (4, 2, star_topology),
        (6, 3, chain_topology),
        (5, 1, star_topology),
        (5, 1, chain_topology),
        (5, 5, star_topology),
        (5, 5, chain_topology),
    ])
    def test_matches_structure_loop(self, n, k, topology):
        state, layout = _kn_state(n, topology)
        _assert_report_matches_loop(state, layout, ThresholdScheme(k, n))

    def test_each_estimator_set_is_factored_once(self, monkeypatch):
        # A chain's players are not interchangeable, so a (4, 8) report evaluates
        # C(8, 4) access rows, C(8, 3) honest sides, all players in x and in p, and the
        # eight single dishonest players, and its gains come from the same factors.
        state, layout = _kn_state(8, chain_topology, transmissivity=0.9)
        assert not keyrate_module._interchangeable(state, layout)
        cholesky, blocks = np.linalg.cholesky, []

        def counting_cholesky(a, *args, **kwargs):
            blocks.append(math.prod(np.shape(a)[:-2]))
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        keyrate_qss(state, layout, ThresholdScheme(4, 8))
        assert blocks == [70, 56, 1, 1, 8]

    @pytest.mark.parametrize("n, k, topology", [
        (5, 3, chain_topology), (4, 1, star_topology), (6, 6, star_topology)])
    def test_structure_labels_are_the_combinations_of_the_player_modes(self, n, k, topology):
        _, layout = _kn_state(n, topology)
        modes = layout.player_modes
        colluding = list(combinations(modes, k - 1))
        expected = (list(combinations(modes, k)), colluding,
                    [tuple(m for m in modes if m not in group) for group in colluding])
        access, colluding = ThresholdScheme(k, n)._player_rows
        labels = tuple(keyrate_module._labels(modes, rows) for rows in (
            access, colluding, keyrate_module._complements(colluding, n)))
        assert labels == expected
        assert {type(label) for side in labels for label in side} == {tuple}

    @pytest.mark.parametrize("side, scale", [("x", 0.0), ("p", 1.5)])
    def test_out_of_range_variance_raises_conditioning_message(
            self, monkeypatch, side, scale):
        # The star's rows share one evaluated row; the chain's are each evaluated.
        real_schur = keyrate_module.schur
        for topology in (star_topology, chain_topology):
            state, layout = _kn_state(4, topology)
            target = state.quad_index("A", side)
            bad = scale * variance(state, "A", side)

            def corrupted(cov, target_idx, estimator_idx, labels):
                variances, v_target, gains = real_schur(cov, target_idx, estimator_idx, labels)
                if target_idx == target:
                    variances[..., -1] = bad
                return variances, v_target, gains

            monkeypatch.setattr(keyrate_module, "schur", corrupted)
            with pytest.raises(ValueError) as batched:
                keyrate_qss(state, layout, ThresholdScheme(2, 4))
            with pytest.raises(ValueError) as single:
                check_conditional_variances(np.array([bad]), variance(state, "A", side))
            assert str(batched.value) == str(single.value)


class TestInterchangeable:
    """The proof that lets every structure of a side share its first row's inference."""

    def test_a_star_and_a_star_stack_are_interchangeable(self):
        assert keyrate_module._interchangeable(*_kn_state(6, star_topology))
        # Points differ from each other; each is compared only with itself.
        assert keyrate_module._interchangeable(
            *_kn_state(6, star_topology, r=np.linspace(0.0, 2.0, 61)))

    def test_a_7_14_star_is_interchangeable_at_every_point_of_the_default_grid(self):
        # The default sweep's T-major (T, r) grid, built as one stack; a
        # gate-by-gate build left 22 of these points an ulp off player symmetry.
        grid = np.linspace(0.0, 1.5, 61)
        transmissivity = np.repeat([1.0, 0.95, 0.9, 0.85], len(grid))
        stack = _kn_state(14, star_topology, r=np.tile(grid, 4), transmissivity=transmissivity)
        assert keyrate_module._interchangeable(*stack)

    def test_a_chain_and_a_ring_are_not_and_every_row_matches_the_loop(self):
        assert not keyrate_module._interchangeable(*_kn_state(6, chain_topology))
        # A star whose players also form a ring B1-B2-B3-B4-B1 is unchanged by
        # swapping opposite players, (B1 B3) or (B2 B4), but not by (B1 B2).
        ring = star_topology(4) + (("B1", "B2"), ("B2", "B3"), ("B3", "B4"), ("B4", "B1"))
        state, layout = _kn_state(4, lambda n: ring)
        assert not keyrate_module._interchangeable(state, layout)
        _assert_report_matches_loop(state, layout, ThresholdScheme(2, 4))

    def test_a_partial_conjugate_set_is_not_and_every_row_matches_the_loop(self):
        state, layout = _kn_state(6, star_topology)
        partial = PartyLayout("A", layout.player_modes, frozenset({"B1", "B2"}))
        assert not keyrate_module._interchangeable(state, partial)
        _assert_report_matches_loop(state, partial, ThresholdScheme(3, 6))

    def test_an_ulp_apart_player_is_not_and_every_row_is_evaluated(self, monkeypatch):
        # As a gate-by-gate build left B3, B7 and B11 of some (7, 14) stars.
        state, layout = _ulp_apart(*_kn_state(6, star_topology), "B3")
        assert not keyrate_module._interchangeable(state, layout)
        real_schur, rows = keyrate_module.schur, []

        def counting_schur(cov, target_idx, estimator_idx, labels):
            rows.append(len(estimator_idx))
            return real_schur(cov, target_idx, estimator_idx, labels)

        monkeypatch.setattr(keyrate_module, "schur", counting_schur)
        _assert_report_matches_loop(state, layout, ThresholdScheme(3, 6))
        # C(6, 3) access rows, C(6, 2) honest sides, all players in x and in p, and
        # the six single dishonest players.
        assert rows == [20, 15, 1, 1, 6]

    def test_a_range_error_names_the_row_it_names_without_the_fold(self, monkeypatch):
        state, layout = _kn_state(6, star_topology)
        assert keyrate_module._interchangeable(state, layout)
        b3, real_schur = [state.quad_index("B3", q) for q in "xp"], keyrate_module.schur

        def corrupted(cov, target_idx, estimator_idx, labels):
            # Rows holding B3 fail with a value naming its position; (B1, B2, B3) comes first.
            variances, v_target, gains = real_schur(cov, target_idx, estimator_idx, labels)
            hit = np.isin(estimator_idx, b3)
            return (np.where(hit.any(axis=1), -1.0 - hit.argmax(axis=1), variances), v_target,
                    gains)

        monkeypatch.setattr(keyrate_module, "schur", corrupted)
        messages = []
        for interchangeable in (keyrate_module._interchangeable, lambda *_: False):
            monkeypatch.setattr(keyrate_module, "_interchangeable", interchangeable)
            with pytest.raises(ValueError) as error:
                keyrate_qss(state, layout, ThresholdScheme(3, 6))
            messages.append(str(error.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("conditional variance -3.0 ")

    def test_one_asymmetric_point_unfolds_the_whole_stack_and_no_bit_moves(self):
        even, layout = _kn_state(6, star_topology)
        uneven, _ = _ulp_apart(even, layout, "B3")
        stack = GaussianState(np.stack([even.cov, uneven.cov]), even.labels)
        assert not keyrate_module._interchangeable(stack, layout)
        scheme = ThresholdScheme(3, 6)
        stacked = keyrate_module.key_rates(stack, layout, scheme)
        for point, state in enumerate((even, uneven)):
            alone = keyrate_module.key_rates(state, layout, scheme)
            for side in ("access", "adversarial"):
                for got, want in zip(getattr(stacked, side)[:2], getattr(alone, side)[:2]):
                    # The even point alone evaluates its first row, which stands for all.
                    assert np.array_equal(got[point], np.broadcast_to(want, got[point].shape))

    def test_every_row_matches_the_loop_where_one_channel_differs(self):
        specs = {f"B{i}": ChannelSpec(0.8 if i == 3 else 0.93) for i in range(1, 7)}
        state, layout = build_kn_state(6, 1.15, specs, star_topology(6))
        assert not keyrate_module._interchangeable(state, layout)
        _assert_report_matches_loop(state, layout, ThresholdScheme(3, 6))

    def test_signed_zeros_are_not_interchangeable(self):
        # B and C differ only in the sign of a zero x-p covariance.
        cov = np.diag([1.0, 1.0, 0.7, 0.7, 0.7, 0.7])
        cov[0, 2] = cov[2, 0] = cov[0, 4] = cov[4, 0] = 0.3
        layout = PartyLayout("A", ("B", "C"))
        for zero, interchangeable in ((0.0, True), (-0.0, False)):
            cov[2, 3] = cov[3, 2] = zero
            state = GaussianState(cov.copy(), ("A", "B", "C"))
            assert keyrate_module._interchangeable(state, layout) is interchangeable

    def test_each_inference_evaluates_one_row(self, monkeypatch):
        # Access, adversarial, all-player x and p, and single dishonest players:
        # five rows in all, against 1,730 (12 players) and 6,451 (14) structure rows,
        # each factored once: the report's gains come from the same factors.
        real_schur, cholesky, rows, blocks = keyrate_module.schur, np.linalg.cholesky, [], []

        def counting_schur(cov, target_idx, estimator_idx, labels):
            rows.append(len(estimator_idx))
            return real_schur(cov, target_idx, estimator_idx, labels)

        def counting_cholesky(a, *args, **kwargs):
            blocks.append(math.prod(np.shape(a)[:-2]))
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(keyrate_module, "schur", counting_schur)
        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        for n in (12, 14):
            rows.clear()
            blocks.clear()
            keyrate_qss(*_kn_state(n, star_topology, transmissivity=0.9),
                        ThresholdScheme(n // 2, n))
            assert sum(rows) == 5 and sum(blocks) == 5

    @pytest.mark.parametrize("n, k, topology", [
        (4, 2, star_topology), (6, 3, star_topology),
        (6, 3, chain_topology), (5, 1, chain_topology),
    ])
    def test_interchangeability_is_checked_once_per_report(self, n, k, topology, monkeypatch):
        # Access side, honest side and, for k != 2, the single-dishonest side share one.
        calls, real = [], keyrate_module._interchangeable

        def counting(state, layout):
            calls.append(layout)
            return real(state, layout)

        monkeypatch.setattr(keyrate_module, "_interchangeable", counting)
        keyrate_qss(*_kn_state(n, topology, transmissivity=0.9), ThresholdScheme(k, n))
        assert len(calls) == 1


@seed(2026_1021)
@settings(max_examples=24, deadline=None, database=None)
@given(data=st.data(), n=st.integers(2, 6),
       topology=st.sampled_from([star_topology, chain_topology]), r=st.floats(0.0, 2.0))
def test_relabelling_the_players_moves_no_variance_beyond_a_few_eps(data, n, topology, r):
    # The same names, channels and edges with the modes stored in a drawn player order:
    # every structure's variance, keyed by its set of names, is unchanged within a few
    # eps * V. Mixed channels keep a star from folding, so every row is evaluated.
    k = data.draw(st.integers(1, n), label="k")
    names = [f"B{i}" for i in range(1, n + 1)]
    specs = {name: ChannelSpec(data.draw(st.floats(0.5, 1.0)), data.draw(st.floats(0.0, 0.05)))
             for name in names}
    order = data.draw(st.permutations(names), label="order")
    scheme = ThresholdScheme(k, n)
    report, permuted = (
        keyrate_qss(*build_kn_state(n, r, specs, topology(n), player_labels=labels), scheme)
        for labels in (names, order))
    eps = np.finfo(float).eps
    for side, big_v in (("access", report.dealer_x_variance),
                        ("adversarial", report.dealer_p_variance)):
        want, got = ({frozenset(key): v
                      for key, v in getattr(each, f"{side}_conditional_variance").items()}
                     for each in (report, permuted))
        assert want.keys() == got.keys()
        worst = max(abs(got[key] - v) for key, v in want.items())
        assert worst <= 8 * eps * big_v, (side, worst / (eps * big_v))
    assert abs(permuted.combined_rate - report.combined_rate) <= 1e-9


class TestReportValue:
    """A report is a value, whether or not its gain maps have been read."""

    def _report(self):
        state, layout = _kn_state(6, chain_topology)
        return keyrate_qss(state, layout, ThresholdScheme(3, 6))

    def test_pickles_and_deep_copies_to_an_equal_report(self):
        report = self._report()
        assert pickle.loads(pickle.dumps(report)) == report
        assert copy.deepcopy(report) == report

    def test_per_structure_maps_read_as_dicts_of_the_key_rate_arrays(self):
        state, layout = _kn_state(6, chain_topology)
        scheme = ThresholdScheme(3, 6)
        report = keyrate_qss(state, layout, scheme)
        rates = keyrate_module.key_rates(state, layout, scheme)
        access = list(combinations(layout.player_modes, 3))
        adversarial = list(combinations(layout.player_modes, 2))
        for view, labels, values in (
                (report.access_mutual_information, access, rates.combined.access_bits),
                (report.access_conditional_variance, access, rates.access[0]),
                (report.adversarial_holevo, adversarial, rates.combined.adversarial_holevo),
                (report.adversarial_conditional_variance, adversarial, rates.adversarial[0])):
            expected = dict(zip(labels, values.tolist()))
            assert len(view) == len(expected) and "_dict" not in vars(view)  # nothing built
            assert labels[-1] in view and ("B1",) not in view
            assert list(view) == list(expected) and list(view.items()) == list(expected.items())
            assert view == expected and expected == view and repr(view) == repr(expected)
            with pytest.raises(TypeError):
                view[labels[0]] = 0.0
            with pytest.raises(ValueError):
                view.array[0] = 0.0
        assert report == keyrate_qss(state, layout, scheme)
        assert report != keyrate_qss(*_kn_state(6, chain_topology, r=1.0), scheme)

    @pytest.mark.parametrize("topology", [star_topology, chain_topology])
    def test_a_report_copied_before_any_gains_read_gives_equal_gains(self, topology):
        # The adversarial gains' estimator rows are built on first read, copied or not.
        state, layout = _kn_state(6, topology)
        report = keyrate_qss(state, layout, ThresholdScheme(3, 6))
        copies = pickle.loads(pickle.dumps(report)), copy.deepcopy(report)
        for field in ("access_gains", "adversarial_gains"):
            gains = getattr(report, field)
            for copied in (getattr(other, field) for other in copies):
                assert "estimators" not in vars(copied)
                assert copied.array.tobytes() == gains.array.tobytes()
                assert copied.array.shape == gains.array.shape
                assert np.array_equal(copied.estimators, gains.estimators)
                assert copied == gains and repr(copied) == repr(gains)
        assert all(copied == report for copied in copies)

    def test_json_does_not_depend_on_reading_the_gains_first(self):
        unread, read = self._report(), self._report()
        assert read.access_gains[("B1", "B2", "B3")].quadrature == "x"
        assert json_text(unread) == json_text(read)


class TestCombine:
    """The one reduction from conditional variances to a rate."""

    def test_hand_values_with_first_index_ties(self):
        # I = log2(2 / v) / 2 and chi = log2(e) + log2(2 u) / 2, both tied twice.
        bound = combine(2.0, [1.0, 0.5, 1.0], np.array([0.25, 1.0, 1.0]))
        log2_e = math.log2(math.e)
        assert bound.access_bits.tolist() == [0.5, 1.0, 0.5]
        assert bound.adversarial_holevo.tolist() == [log2_e - 0.5, log2_e + 0.5, log2_e + 0.5]
        assert (bound.binding_access, bound.binding_adversarial) == (0, 1)
        assert bound.rate == 0.5 - (log2_e + 0.5)

    def test_information_is_gaussian_mutual_information_bit_for_bit(self):
        # np.log2 and math.log2 differ in the last bit for about 1 in 10^4 doubles.
        conditional = np.random.default_rng(5).uniform(0.01, 1.9, 100_000)
        bound = combine(1.9, conditional, [0.5])
        assert np.array_equal(bound.access_bits, 0.5 * np.log2(1.9 / conditional))

    def test_fitted_variance_above_the_dealer_variance_is_allowed(self):
        bound = combine(1.0, [2.0], [0.5])
        assert bound.access_bits == [-0.5]
        assert bound.rate == -0.5 - (math.log2(math.e) - 0.5)

    @pytest.mark.parametrize("n, k, topology", [
        *[(5, k, star_topology) for k in range(1, 6)], (5, 3, chain_topology)])
    def test_a_folded_report_equals_the_unfolded_report_bit_for_bit(
            self, n, k, topology, monkeypatch):
        state, layout = _kn_state(n, topology)
        scheme = ThresholdScheme(k, n)
        assert keyrate_module._interchangeable(state, layout) == (topology is star_topology)
        folded = keyrate_qss(state, layout, scheme)
        monkeypatch.setattr(keyrate_module, "_interchangeable", lambda *_: False)
        unfolded = keyrate_qss(state, layout, scheme)

        def bits(value):
            if isinstance(value, keyrate_module._StructureMap):
                return value.array.dtype, value.array.shape, value.array.tobytes()
            if isinstance(value, float):
                return np.float64(value).tobytes()
            if isinstance(value, dict):
                return bits(tuple(value.items()))
            if isinstance(value, tuple):
                return [bits(item) for item in value]
            return value

        # Every field, the all-player variances outside the fields too.
        for name, value in vars(folded).items():
            assert bits(value) == bits(getattr(unfolded, name)), name
        if topology is star_topology:  # every structure of a side ties: the first binds
            assert folded.binding_access == tuple(f"B{i}" for i in range(1, k + 1))
            assert folded.binding_adversarial == tuple(f"B{i}" for i in range(1, k))

    def test_the_first_non_finite_term_is_named(self):
        # The first non-finite term, in structure order, is a NaN; an infinity follows.
        dealer, finite, nan = np.array([1.0, 1e300]), np.ones((2, 4)), math.nan
        small = np.array([[1.0] * 4, [nan, 1e-320, nan, 1e-320]])  # V / v overflows
        large = np.array([[1.0] * 4, [nan, 1e10, nan, 1e10]])  # V u overflows
        for sides, name in (((small, finite), "mutual information"),
                            ((finite, large), "Holevo term")):
            with pytest.raises(ValueError, match=f"^{name} nan is not finite at dealer x "
                                                 "variance 1e[+]300: "):
                combine(dealer, *sides)

    def test_single_dishonest_rows_are_the_largest_subsets_reversed(self):
        for n in range(2, 25):
            assert np.array_equal(keyrate_module._complements(np.arange(n)[:, None], n),
                                  keyrate_module._subset_rows(n, n - 1)[1][::-1])

    def test_honest_rows_are_the_complement_width_subsets_reversed(self):
        # The complements of the (k-1)-subsets, in order, are the (n-k+1)-subsets in
        # reverse order. Every k up to n = 16; from n = 17 on the reference enumeration
        # takes seconds (7 s for every (k, n) in the structure budget), so the corners.
        cases = [(k, n) for n in range(2, 17) for k in range(1, n + 1)]
        cases += [(k, n) for n in range(17, 25) for k in (1, 2, n - 1, n)]
        for k, n in cases:
            honest = keyrate_module._complements(ThresholdScheme(k, n)._player_rows[1], n)
            assert np.array_equal(honest, keyrate_module._subset_rows(n, n - k + 1)[1][::-1])

    @pytest.mark.parametrize("n, k, topology", [
        (10, 5, star_topology),
        (6, 3, chain_topology),  # the chain's k != 2 path: one p inference per player
        (4, 2, star_topology),  # k = 2 reads the adversarial structures' variances
    ])
    def test_dishonest_rates_equal_the_single_player_bound_exactly(self, n, k, topology):
        state, layout = _kn_state(n, topology)
        report = keyrate_qss(state, layout, ThresholdScheme(k, n))
        assert list(report.dishonest_rates) == list(layout.player_modes)
        for player, rate in report.dishonest_rates.items():
            assert rate == dishonest_rate_loop(state, layout, player)

    def test_report_is_combine_of_its_own_variances(self):
        state, layout = _kn_state(6, star_topology)
        report = keyrate_qss(state, layout, ThresholdScheme(3, 6))
        bound = combine(report.dealer_x_variance,
                        list(report.access_conditional_variance.values()),
                        list(report.adversarial_conditional_variance.values()))
        assert report.combined_rate == bound.rate
        assert list(report.access_mutual_information.values()) == bound.access_bits.tolist()
        assert list(report.adversarial_holevo.values()) == bound.adversarial_holevo.tolist()
        assert report.binding_access == list(report.access_gains)[bound.binding_access]
        assert report.binding_adversarial == list(
            report.adversarial_gains)[bound.binding_adversarial]


def test_star_rates_equal_the_closed_form_within_the_kernel_bound():
    # Every reported rate of a star against Sherman-Morrison at 50 digits, with
    # I = log2(V / x[m]) / 2 and chi = log2(e) + log2(V p[h]) / 2: the
    # eavesdropping rate (m = h = n), each dishonest rate (m = n, h = n - 1) and
    # the combined rate (m = k, h = n - k + 1). The kernel's relative error on a
    # variance v is at most 8 eps kappa V / v (tests/test_sweep.py; kappa = 1 on
    # the p side), which moves its term by that over 2 ln 2; the logarithms add
    # eps |I| and eps |chi|.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(2026_1019)
    worst = 0.0
    schemes = [(n, range(1, n + 1)) for n in range(2, 9)] + [(16, (1, 16)), (24, (1, 24))]
    for n, ks in schemes:
        r, transmissivity, g = rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0), rng.uniform(0.5, 1.5)
        noise = rng.choice([0.0, rng.uniform(0.0, 0.05)])
        spec = ChannelSpec(transmissivity, noise)
        state, layout = build_kn_state(n, r, {f"B{i}": spec for i in range(1, n + 1)},
                                       star_topology(n), cz_weight=g)
        exact = star_closed_forms(n, r, transmissivity, noise, g)

        def ratio(rate, m, h):
            with mpmath.workdps(50):
                info = mpmath.log(exact.v_x / exact.x[m], 2) / 2
                holevo = mpmath.log(mpmath.e, 2) + mpmath.log(exact.v_x * exact.p[h], 2) / 2
                variances = (8 * exact.kappa_x[m] * exact.v_x / exact.x[m]
                             + 8 * exact.v_p / exact.p[h])
                bound = eps * (variances / (2 * mpmath.log(2)) + abs(info) + abs(holevo))
                return float(abs(rate - (info - holevo)) / bound)

        for k in ks:
            report = keyrate_qss(state, layout, ThresholdScheme(k, n))
            checks = [(report.eavesdropping_rate, n, n), (report.combined_rate, k, n - k + 1)]
            checks += [(rate, n, n - 1) for rate in report.dishonest_rates.values()]
            worst = max(worst, *(ratio(*check) for check in checks))
    assert 0.0 < worst <= 1.0, worst


@seed(1603_03224)
@settings(max_examples=50, deadline=None, database=None)
@given(data=st.data(), n=st.integers(2, 6), star=st.booleans(),
       r=st.floats(0.0, 2.0), transmissivity=st.floats(0.0, 1.0))
def test_combined_rate_never_beats_eavesdropping(data, n, star, r, transmissivity):
    k = data.draw(st.integers(1, n), label="k")
    state, layout = _kn_state(n, star_topology if star else chain_topology,
                              r=r, transmissivity=transmissivity)
    report = keyrate_qss(state, layout, ThresholdScheme(k, n))
    assert report.combined_rate <= report.eavesdropping_rate + 1e-9


@seed(2026_1020)
@settings(max_examples=20, deadline=None, database=None)
@given(n=st.integers(2, 24), noise=st.floats(0.0, 0.05),
       cz_weight=st.floats(0.5, 2.0),
       points=st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 1.0)),
                       min_size=1, max_size=4))
def test_stars_with_one_shared_channel_are_interchangeable(n, noise, cz_weight, points):
    # The fold rests on this: a build that broke player symmetry would fail here, not
    # leave every star op evaluating each structure of a side.
    def star(r, transmissivity):
        spec = ChannelSpec(transmissivity, noise)
        return build_kn_state(n, r, dict.fromkeys([f"B{i}" for i in range(1, n + 1)], spec),
                              star_topology(n), cz_weight=cz_weight)

    assert keyrate_module._interchangeable(*star(*map(np.array, zip(*points))))
    for r, transmissivity in points:
        assert keyrate_module._interchangeable(*star(r, transmissivity))


@seed(2026_1102)
@settings(max_examples=40, deadline=None, database=None)
@given(scheme=st.sampled_from([(k, n) for n in range(2, 9) for k in range(1, n + 1)
                               if (k, n) != (2, 2)]),
       r=st.floats(0.0, 3.0), transmissivity=st.floats(0.3, 1.0), noise=st.floats(0.0, 0.05),
       cz_weight=st.floats(0.3, 3.0))
def test_no_chain_but_the_2_2_one_has_a_positive_key(scheme, r, transmissivity, noise,
                                                      cz_weight):
    # On a chain x_A correlates only with p_B1, so for k < n the access structures
    # without B1 have c = 0 exactly and I = 0; for k >= 3 the collusion {B1, B2}
    # leaves an honest side with u = V(p_A). Either way Heisenberg's relation on the
    # state conditioned on one measurement M, V(x_A|M) V(p_A|M) >= 1/4, bounds the
    # key by 1 - log2(e).
    k, n = scheme
    spec = ChannelSpec(transmissivity, noise)
    state, layout = build_kn_state(n, r, dict.fromkeys([f"B{i}" for i in range(1, n + 1)], spec),
                                   chain_topology(n), cz_weight=cz_weight)
    bound = keyrate_module.key_rates(state, layout, ThresholdScheme(k, n)).combined
    assert bound.rate <= 1.0 - math.log2(math.e) + 1e-12
    assert (bound.access_bits.min() == 0.0) == (k < n)
