"""Conditional variances, optimal gains and the mutual information built from them."""

import math
from itertools import combinations

import numpy as np
import pytest

from cvqss import (
    ChannelSpec,
    GaussianState,
    JointVariable,
    build_kn_state,
    build_three_mode_chain,
    chain_topology,
    squeezed_vacuum,
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
    product_vacuum,
    schur_loop,
    tensor,
    tmsv_conditional_variance,
    two_mode_squeezed,
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
        assert value == pytest.approx(state.variance("A", "x"), rel=1e-12)

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
        v, gains, _ = schur(state.cov, state.quad_index("A", "x"), rows(state, ("B", "x")))
        fixed = conditional_variance_fixed(state, ("A", "x"), JointVariable("x", {"B": gains[0, 0]}))
        assert v[0] == pytest.approx(fixed, abs=1e-12)
        expected_gain = (state.covariance(("A", "x"), ("B", "x"))
                         / state.variance("B", "x"))
        assert gains[0, 0] == pytest.approx(expected_gain, rel=1e-12)

    @pytest.mark.parametrize("r,transmissivity", [(0.5, 1.0), (1.0, 0.9), (1.15, 0.85)])
    def test_fixed_with_optimal_gains_matches_optimal(self, r, transmissivity):
        state, _ = build_three_mode_chain(r, transmissivity)
        v, gains, _ = schur(state.cov, state.quad_index("A", "p"),
                            rows(state, ("B", "p"), ("C", "p")))
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
        v, _, v_unc = schur(state.cov, state.quad_index("A", "x"),
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
        v_cond, gains, v_unc = schur(state.cov, state.quad_index("A", "x"),
                                     rows(state, ("B", "p"), ("C", "x")))
        assert v_cond[0] == pytest.approx(1.0 / (4.0 * math.cosh(2 * r)), rel=1e-12)
        assert v_unc == pytest.approx(0.5 * math.exp(2 * r), rel=1e-12)
        assert gains[0, 0] == pytest.approx(-gains[0, 1], rel=1e-12)

    def test_same_quadrature_x_gains_are_blind_on_the_cluster(self):
        # The literal x-x covariances vanish on the chain, so an x-only
        # estimator learns nothing; the announced labels fix this.
        state, _ = build_three_mode_chain(1.0, 1.0)
        v, _, _ = schur(state.cov, state.quad_index("A", "x"),
                        rows(state, ("B", "x"), ("C", "x")))
        assert v[0] == pytest.approx(state.variance("A", "x"), rel=1e-12)

    def test_optimal_beats_unit_gain_choice_under_loss(self):
        state, _ = build_three_mode_chain(1.0, 0.9)
        v_opt, _, _ = schur(state.cov, state.quad_index("A", "x"),
                            rows(state, ("B", "p"), ("C", "x")))
        # Fixed unit-gain combination, evaluated from raw covariances.
        var_est = (state.variance("B", "p") + state.variance("C", "x")
                   - 2.0 * state.covariance(("B", "p"), ("C", "x")))
        cov_te = (state.covariance(("A", "x"), ("B", "p"))
                  - state.covariance(("A", "x"), ("C", "x")))
        v_fixed = state.variance("A", "x") - cov_te**2 / var_est
        assert v_opt[0] < v_fixed - 1e-9

    def test_unit_gain_choice_is_optimal_without_loss(self):
        state, _ = build_three_mode_chain(1.0, 1.0)
        v_opt, _, _ = schur(state.cov, state.quad_index("A", "x"),
                            rows(state, ("B", "p"), ("C", "x")))
        var_est = (state.variance("B", "p") + state.variance("C", "x")
                   - 2.0 * state.covariance(("B", "p"), ("C", "x")))
        cov_te = (state.covariance(("A", "x"), ("B", "p"))
                  - state.covariance(("A", "x"), ("C", "x")))
        v_fixed = state.variance("A", "x") - cov_te**2 / var_est
        assert v_opt[0] == pytest.approx(v_fixed, rel=1e-12)

    def test_duplicated_coordinate_handled_by_pseudoinverse(self):
        state = two_mode_squeezed(0.8)
        target = state.quad_index("A", "x")
        v_dup, _, _ = schur(state.cov, target, rows(state, ("B", "x"), ("B", "x")))
        v_single, _, _ = schur(state.cov, target, rows(state, ("B", "x")))
        assert v_dup[0] == pytest.approx(v_single[0], rel=1e-10)


class TestSchurKernel:
    """The batched kernel against a loop of single 2-D Schur complements."""

    @staticmethod
    def star_state(n=6):
        spec = ChannelSpec(0.9, 0.01)
        state, _ = build_kn_state(n, 1.15, {f"B{i}": spec for i in range(1, n + 1)},
                                  star_topology(n))
        return state

    def test_singular_blocks_match_loop(self):
        # Duplicated coordinates make the block singular; the eigenvalue cut
        # must treat each row exactly as a lone 2-D block would.
        state = self.star_state()
        t, b1, b2 = (state.quad_index("A", "x"), state.quad_index("B1", "p"),
                     state.quad_index("B2", "p"))
        rows = np.array([[b1, b1, b2], [b1, b2, b2], [b2, b2, b2], [b1, b2, b1]])
        variances, gains, v_target = schur(state.cov, t, rows)
        ref_variances, ref_gains, ref_target = schur_loop(state.cov, t, rows)
        assert np.array_equal(variances, ref_variances)
        assert np.array_equal(gains, ref_gains)
        assert v_target == ref_target
        lone, _, _ = schur(state.cov, t, [[b2]])
        assert variances[2] == pytest.approx(lone[0], rel=1e-10)

    def test_rows_across_blocks_match_loop(self):
        state = self.star_state()
        t = state.quad_index("A", "p")
        candidates = [i for i in range(len(state.cov)) if i != t]
        rng = np.random.default_rng(7)
        rows = np.array([rng.choice(candidates, 4, replace=False)
                         for _ in range(2 * SCHUR_BLOCK_ROWS + 3)])
        variances, gains, _ = schur(state.cov, t, rows)
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
            variances, gains, _ = schur(cov, target, rows)
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
        v, _, v_unc = schur(state.cov, state.quad_index("A", "x"), rows(state, ("B", "x")))
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
