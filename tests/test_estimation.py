"""Conditional variances, optimal gains and the mutual information built from them."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from cvqss import (
    ChannelSpec,
    GaussianState,
    JointVariable,
    build_kn_state,
    build_three_mode_chain,
    chain_topology,
    star_topology,
)
from cvqss.estimation import (
    SCHUR_BLOCK_ROWS,
    check_conditional_variances,
    schur,
)
from cvqss.keyrate import combine
from helpers import (
    DegenerateEstimatorError,
    conditional_variance_fixed,
    covariance,
    product_vacuum,
    schur_loop,
    squeezed_vacuum,
    star_closed_forms,
    tensor,
    tmsv_conditional_variance,
    two_mode_squeezed,
    variance,
)


class TestFixedEstimator:
    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 2.0])
    def test_tmsv_closed_form(self, r):
        state = two_mode_squeezed(r)
        estimator = JointVariable("x", {"B": 1.0})
        value = conditional_variance_fixed(state, ("A", "x"), estimator)
        assert value == pytest.approx(tmsv_conditional_variance(r), abs=1e-12)

    def test_unsqueezed_case_reduces_to_vacuum(self):
        state = two_mode_squeezed(0.0)
        value = conditional_variance_fixed(state, ("A", "x"), JointVariable("x", {"B": 1.0}))
        assert value == pytest.approx(0.5, abs=1e-14)

    def test_gain_scale_does_not_matter(self):
        state = two_mode_squeezed(0.7)
        small = conditional_variance_fixed(state, ("A", "x"), JointVariable("x", {"B": 0.2}))
        large = conditional_variance_fixed(state, ("A", "x"), JointVariable("x", {"B": 5.0}))
        assert small == pytest.approx(large, rel=1e-12)

    def test_uncorrelated_estimator_changes_nothing(self):
        state = tensor(squeezed_vacuum(0.9, "p", label="A"), product_vacuum(["B", "C"]))
        estimator = JointVariable("x", {"B": 1.0, "C": -2.0})
        value = conditional_variance_fixed(state, ("A", "x"), estimator)
        assert value == pytest.approx(variance(state, "A", "x"), rel=1e-12)

    def test_nearly_perfect_copy_gives_vanishing_variance(self):
        # At r = 10 the correlation is perfect to machine precision; the
        # inference residue collapses to (numerically) zero.
        state = two_mode_squeezed(10.0)
        value = conditional_variance_fixed(state, ("A", "x"), JointVariable("x", {"B": 1.0}))
        assert 0.0 <= value < 1e-8

    def test_degenerate_estimator_rejected(self):
        frozen = GaussianState(np.zeros(4), np.diag([0.5, 0.5, 0.0, 1e3]), ("A", "B"))
        with pytest.raises(DegenerateEstimatorError):
            conditional_variance_fixed(frozen, ("A", "x"), JointVariable("x", {"B": 1.0}))


def rows(state, *coords):
    """A one-row ``schur`` index array of (mode, quadrature) coordinates."""
    return [[state.quad_index(*coord) for coord in coords]]


class TestOptimalEstimator:
    def test_single_mode_matches_fixed(self):
        state = two_mode_squeezed(0.8)
        v, _, gains = schur(state.cov, state.quad_index("A", "x"), rows(state, ("B", "x")))
        fixed = conditional_variance_fixed(state, ("A", "x"), JointVariable("x", {"B": gains[0, 0]}))
        assert v[0] == pytest.approx(fixed, abs=1e-12)
        expected_gain = (covariance(state, ("A", "x"), ("B", "x"))
                         / variance(state, "B", "x"))
        assert gains[0, 0] == pytest.approx(expected_gain, rel=1e-12)

    @pytest.mark.parametrize("r,transmissivity", [(0.5, 1.0), (1.0, 0.9), (1.15, 0.85)])
    def test_fixed_with_optimal_gains_matches_optimal(self, r, transmissivity):
        state, _ = build_three_mode_chain(r, transmissivity)
        estimators = rows(state, ("B", "p"), ("C", "p"))
        v, _, gains = schur(state.cov, state.quad_index("A", "p"), estimators)
        optimal = JointVariable("p", dict(zip(["B", "C"], gains[0])))
        fixed = conditional_variance_fixed(state, ("A", "p"), optimal)
        assert fixed == pytest.approx(v[0], abs=1e-12)

    @pytest.mark.parametrize("r,transmissivity", [(0.3, 1.0), (1.0, 0.9), (1.15, 0.85)])
    def test_monotone_in_estimator_set(self, r, transmissivity):
        state, _ = build_three_mode_chain(r, transmissivity)
        target = state.quad_index("A", "p")
        both, _, _ = schur(state.cov, target, rows(state, ("B", "p"), ("C", "p")))
        one, _, _ = schur(state.cov, target, rows(state, ("C", "p")))
        assert both[0] <= one[0] + 1e-12

    def test_result_invariant_holds(self):
        state, _ = build_three_mode_chain(1.0, 0.9)
        v, v_unc, _ = schur(state.cov, state.quad_index("A", "x"),
                            rows(state, ("B", "x"), ("C", "x")))
        assert 0.0 < v[0] <= v_unc

    def test_empty_estimator_set_rejected(self):
        state = two_mode_squeezed(0.5)
        with pytest.raises(ValueError):
            schur(state.cov, state.quad_index("A", "x"), rows(state))

    def test_target_mode_cannot_estimate_itself(self):
        state = two_mode_squeezed(0.5)
        with pytest.raises(ValueError):
            schur(state.cov, state.quad_index("A", "x"), rows(state, ("A", "x"), ("B", "x")))


class TestMixedCoordinates:
    """Inference from per-mode quadrature choices, as announced outcomes need."""

    def test_cluster_nullifier_combination(self):
        # On the lossless chain the dealer's x is read from p_B - x_C with
        # residue 1/(4 cosh 2r); the optimal gains are proportional to (1, -1).
        r = 1.0
        state, _ = build_three_mode_chain(r, 1.0)
        estimators = rows(state, ("B", "p"), ("C", "x"))
        v_cond, v_unc, gains = schur(state.cov, state.quad_index("A", "x"), estimators)
        assert v_cond[0] == pytest.approx(1.0 / (4.0 * math.cosh(2 * r)), rel=1e-12)
        assert v_unc == pytest.approx(0.5 * math.exp(2 * r), rel=1e-12)
        assert gains[0, 0] == pytest.approx(-gains[0, 1], rel=1e-12)

    def test_same_quadrature_x_gains_are_blind_on_the_cluster(self):
        # The literal x-x covariances vanish on the chain, so an x-only
        # estimator learns nothing; the announced labels fix this.
        state, _ = build_three_mode_chain(1.0, 1.0)
        v, _, _ = schur(state.cov, state.quad_index("A", "x"),
                        rows(state, ("B", "x"), ("C", "x")))
        assert v[0] == pytest.approx(variance(state, "A", "x"), rel=1e-12)

    def test_optimal_beats_unit_gain_choice_under_loss(self):
        state, _ = build_three_mode_chain(1.0, 0.9)
        v_opt, _, _ = schur(state.cov, state.quad_index("A", "x"),
                            rows(state, ("B", "p"), ("C", "x")))
        # Fixed unit-gain combination, evaluated from raw covariances.
        var_est = (variance(state, "B", "p") + variance(state, "C", "x")
                   - 2.0 * covariance(state, ("B", "p"), ("C", "x")))
        cov_te = (covariance(state, ("A", "x"), ("B", "p"))
                  - covariance(state, ("A", "x"), ("C", "x")))
        v_fixed = variance(state, "A", "x") - cov_te**2 / var_est
        assert v_opt[0] < v_fixed - 1e-9

    def test_unit_gain_choice_is_optimal_without_loss(self):
        state, _ = build_three_mode_chain(1.0, 1.0)
        v_opt, _, _ = schur(state.cov, state.quad_index("A", "x"),
                            rows(state, ("B", "p"), ("C", "x")))
        var_est = (variance(state, "B", "p") + variance(state, "C", "x")
                   - 2.0 * covariance(state, ("B", "p"), ("C", "x")))
        cov_te = (covariance(state, ("A", "x"), ("B", "p"))
                  - covariance(state, ("A", "x"), ("C", "x")))
        v_fixed = variance(state, "A", "x") - cov_te**2 / var_est
        assert v_opt[0] == pytest.approx(v_fixed, rel=1e-12)

    def test_duplicated_coordinate_is_refused(self):
        # A duplicate makes the bordered block singular, but rounding can still leave
        # it a Cholesky factor: (B2 p, B1 p, B2 p) on a star factors, so it is refused
        # by name, in any position and whatever the other rows.
        state = two_mode_squeezed(0.8)
        star, _ = build_kn_state(6, 1.15, dict.fromkeys([f"B{i}" for i in range(1, 7)],
                                                        ChannelSpec(0.9, 0.01)), star_topology(6))
        b1, b2 = star.quad_index("B1", "p"), star.quad_index("B2", "p")
        for cov, target, bad in (
                (state.cov, state.quad_index("A", "x"), rows(state, ("B", "x"), ("B", "x"))),
                (state.cov, state.quad_index("A", "x"),
                 rows(state, ("B", "p"), ("B", "x")) + rows(state, ("B", "x"), ("B", "x"))),
                (star.cov, star.quad_index("A", "x"), [[b2, b1, b2]])):
            with pytest.raises(ValueError, match="^estimator coordinates must be distinct "
                                                 "within a row$"):
                schur(cov, target, bad)


class TestSchurKernel:
    """The batched kernel against a loop of single 2-D Schur complements."""

    @staticmethod
    def star_state(n=6):
        spec = ChannelSpec(0.9, 0.01)
        state, _ = build_kn_state(n, 1.15, {f"B{i}": spec for i in range(1, n + 1)},
                                  star_topology(n))
        return state

    def test_singular_blocks_match_loop(self):
        # At r = 300 the blocks are singular to double precision. A stack is refused
        # with the message of the first row a loop of one-row calls refuses, at the
        # first point that has one.
        spec = ChannelSpec(0.9, 0.01)
        stack, layout = build_kn_state(6, np.array([1.15, 300.0]),
                                       {f"B{i}": spec for i in range(1, 7)}, star_topology(6))
        announced = np.array([stack.quad_index(*coord) for coord in
                              layout.announced_coordinates(layout.player_modes, "x")])
        t, rows = stack.quad_index("A", "x"), announced[np.array(list(combinations(range(6), 3)))]
        with pytest.raises(ValueError) as lone:
            schur_loop(stack.cov[1], t, rows)
        assert str(lone.value).startswith(f"V({t} | ")
        assert "at target variance 1.88651e+260 has no Cholesky factor" in str(lone.value)
        with pytest.raises(ValueError) as batched:
            schur(stack.cov, t, rows)
        assert str(batched.value) == str(lone.value)

    def test_rows_across_blocks_match_loop(self):
        state = self.star_state()
        t = state.quad_index("A", "p")
        candidates = [i for i in range(len(state.cov)) if i != t]
        rng = np.random.default_rng(7)
        rows = np.array([rng.choice(candidates, 4, replace=False)
                         for _ in range(2 * SCHUR_BLOCK_ROWS + 3)])
        variances, _, gains = schur(state.cov, t, rows)
        ref_variances, ref_gains, _ = schur_loop(state.cov, t, rows)
        assert np.array_equal(variances, ref_variances)
        assert np.array_equal(gains, ref_gains)

    @staticmethod
    def access_rows(n, k, topology):
        """A (k, n) resource, the dealer's x index and the announced x rows of every k-subset."""
        spec = ChannelSpec(0.9, 0.01)
        state, layout = build_kn_state(n, 1.15, {f"B{i}": spec for i in range(1, n + 1)},
                                       topology(n))
        announced = np.array([state.quad_index(*coord) for coord in
                              layout.announced_coordinates(layout.player_modes, "x")])
        rows = announced[np.array(list(combinations(range(n), k)))]
        return state, state.quad_index("A", "x"), rows

    def test_repeated_and_partially_tied_rows_match_loop(self):
        state = self.star_state()
        t = state.quad_index("A", "p")
        candidates = [i for i in range(len(state.cov)) if i != t]
        rng = np.random.default_rng(11)
        distinct = np.array([rng.choice(candidates, 3, replace=False) for _ in range(40)])
        repeated = distinct[rng.integers(0, len(distinct), 300)]
        chain_state, chain_t, chain_rows = self.access_rows(12, 6, chain_topology)
        for cov, target, rows in ((state.cov, t, repeated),
                                  (chain_state.cov, chain_t, chain_rows)):
            variances, _, gains = schur(cov, target, rows)
            ref_variances, ref_gains, _ = schur_loop(cov, target, rows)
            assert np.array_equal(variances, ref_variances)
            assert np.array_equal(gains, ref_gains)

    def test_empty_or_target_rows_rejected(self):
        state = self.star_state()
        with pytest.raises(ValueError, match="nonempty"):
            schur(state.cov, 0, np.zeros((3, 0), dtype=int))
        with pytest.raises(ValueError, match=r"\(S, g\) index array, got shape \(2,\)"):
            schur(state.cov, 0, [3, 4])
        with pytest.raises(ValueError, match="exclude the target"):
            schur(state.cov, 0, [[2, 3], [4, 0]])

    def test_range_check_uses_conditioning_message(self):
        for bad in (0.0, -1e-3, 0.7, float("nan")):
            with pytest.raises(ValueError) as batched:
                check_conditional_variances(np.array([0.2, bad, 0.0]), 0.5)
            assert str(batched.value) == f"conditional variance {bad} must lie in (0, 0.5]"
        check_conditional_variances(np.array([0.5, 1e-300]), 0.5)


class TestMutualInformation:
    def test_independence_gives_zero_bits(self):
        assert combine(0.5, [0.5], [0.5]).access_bits == [0.0]

    def test_factor_four_gives_one_bit(self):
        assert combine(2.0, [0.5], [0.5]).access_bits[0] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.0])
    def test_tmsv_information(self, r):
        state = two_mode_squeezed(r)
        v, v_unc, _ = schur(state.cov, state.quad_index("A", "x"), rows(state, ("B", "x")))
        info = combine(v_unc, v, [v_unc]).access_bits[0]
        assert info == pytest.approx(math.log2(math.cosh(2 * r)), rel=1e-12)

    def test_inverted_ordering_rejected(self):
        with pytest.raises(ValueError):
            check_conditional_variances(np.array([0.6]), 0.5)

    def test_nonpositive_conditional_rejected(self):
        with pytest.raises(ValueError):
            check_conditional_variances(np.array([0.0]), 0.5)


class TestDataTypes:
    def test_joint_variable_needs_a_mode(self):
        with pytest.raises(ValueError):
            JointVariable("x", {})

    def test_all_zero_gains_degenerate_when_used_as_estimator(self):
        state = two_mode_squeezed(0.5)
        with pytest.raises(DegenerateEstimatorError):
            conditional_variance_fixed(state, ("A", "x"),
                                       JointVariable("x", {"B": 0.0}))


@seed(2026_1020)
@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data(), n=st.integers(2, 24), r=st.floats(0.0, 2.0),
       transmissivity=st.floats(0.0, 1.0), g=st.floats(0.5, 1.5), noise=st.floats(0.0, 0.05))
def test_star_rows_of_every_width_equal_the_closed_form_within_the_kernel_bound(
        data, n, r, transmissivity, g, noise):
    # One announced-x row and one announced-p row of each width, the players in a drawn
    # order, against Sherman-Morrison at 50 digits. The kernel's error on a variance v
    # is within a multiple of eps * kappa * V, kappa the estimator block's condition
    # number: (d + m b) / d for m players' announced x, and 1 for announced p, whose
    # players are independent.
    order = data.draw(st.permutations(range(n)), label="order")
    spec = ChannelSpec(transmissivity, noise)
    state, layout = build_kn_state(n, r, dict.fromkeys([f"B{i}" for i in range(1, n + 1)], spec),
                                   star_topology(n), cz_weight=g)
    exact = star_closed_forms(n, r, transmissivity, noise, g)
    eps = np.finfo(float).eps
    for basis, forms, big_v, kappa in (("x", exact.x, exact.v_x, exact.kappa_x),
                                        ("p", exact.p, exact.v_p, [1] * (n + 1))):
        announced = np.array([state.quad_index(*coord) for coord in
                              layout.announced_coordinates(layout.player_modes, basis)])
        for width in range(1, n + 1):
            (v,), _, _ = schur(state.cov, state.quad_index("A", basis),
                               announced[order[:width]][None])
            ratio = float(abs(v - forms[width]) / (eps * kappa[width] * big_v))
            assert ratio <= 8.0, (basis, width, ratio)


@seed(2026_1031)
@settings(max_examples=12, deadline=None, database=None)
@given(n=st.integers(2, 8), topology=st.sampled_from([chain_topology, star_topology]),
       r=st.floats(0.0, 2.0), transmissivity=st.just(1.0) | st.floats(0.5, 1.0),
       noise=st.floats(0.0, 0.05))
def test_conditioning_never_hurts_beyond_one_eps(n, topology, r, transmissivity, noise):
    # V(t | E + {j}) <= V(t | E) + eps * V for every estimator set of announced
    # outcomes against each parent that drops one player, the empty set's V(t | {})
    # being V itself. A kernel whose error on v exceeds eps * V breaks it.
    spec = ChannelSpec(transmissivity, noise)
    state, layout = build_kn_state(n, r, dict.fromkeys([f"B{i}" for i in range(1, n + 1)], spec),
                                   topology(n))
    eps = np.finfo(float).eps
    for basis in "xp":
        announced = np.array([state.quad_index(*coord) for coord in
                              layout.announced_coordinates(layout.player_modes, basis)])
        target = state.quad_index("A", basis)
        big_v = state.cov[target, target]
        conditional = {(): big_v}
        for width in range(1, n + 1):
            rows = list(combinations(range(n), width))
            variances, _, _ = schur(state.cov, target, announced[np.array(rows)])
            for row, v in zip(rows, variances.tolist()):
                worst = max(v - conditional[row[:i] + row[i + 1:]] for i in range(width))
                assert worst <= eps * big_v, (basis, row, worst / (eps * big_v))
                conditional[row] = v


@seed(2026_1101)
@settings(max_examples=12, deadline=None, database=None)
@given(data=st.data(), n=st.integers(2, 8), topology=st.sampled_from([chain_topology, star_topology]),
       r=st.floats(0.0, 2.0))
def test_degrading_one_player_never_helps_beyond_one_eps(data, n, topology, r):
    # Lowering player j's T, or raising its excess noise, follows its channel with
    # another, independent of everything else: V(t | E) may only grow, within
    # eps * V, for every estimator set E holding j. A set without j keeps its bits,
    # as the build scales and adds noise to j's rows and columns alone.
    specs = {f"B{i}": ChannelSpec(data.draw(st.just(1.0) | st.floats(0.5, 1.0)),
                                  data.draw(st.floats(0.0, 0.05))) for i in range(1, n + 1)}
    j = data.draw(st.integers(0, n - 1), label="player")
    spec = specs[f"B{j + 1}"]
    degraded = ChannelSpec(data.draw(st.just(spec.transmissivity)
                                     | st.floats(0.0, spec.transmissivity), label="T"),
                           spec.excess_noise + data.draw(st.just(0.0) | st.floats(0.0, 0.05),
                                                         label="added noise"))
    state, layout = build_kn_state(n, r, specs, topology(n))
    worse, _ = build_kn_state(n, r, specs | {f"B{j + 1}": degraded}, topology(n))
    eps = np.finfo(float).eps
    for basis in "xp":
        announced = np.array([state.quad_index(*coord) for coord in
                              layout.announced_coordinates(layout.player_modes, basis)])
        target = state.quad_index("A", basis)
        big_v = state.cov[target, target]
        for width in range(1, n + 1):
            rows = np.array(list(combinations(range(n), width)))
            (before, _, _), (after, _, _) = (schur(s.cov, target, announced[rows])
                                             for s in (state, worse))
            holds = (rows == j).any(axis=1)
            assert np.array_equal(after[~holds], before[~holds]), (basis, width)
            worst = float((before - after)[holds].max())
            assert worst <= eps * big_v, (basis, width, worst / (eps * big_v))
