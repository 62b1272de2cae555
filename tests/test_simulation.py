"""Monte Carlo sampling, sifting and parameter estimation."""

import math
import time

import numpy as np
import pytest

from cvqss import (
    ChannelSpec,
    GaussianState,
    PartyLayout,
    ThresholdScheme,
    UndersampledError,
    UnphysicalStateError,
    build_kn_state,
    build_three_mode_chain,
    keyrate_eavesdropping,
    run_protocol,
    star_topology,
)
from cvqss import simulation
from cvqss.keyrate import combine
from helpers import (
    chain_expected_variances,
    fit_design,
    product_vacuum,
    regression_loop,
    revealed_design,
    two_mode_squeezed,
)


@pytest.fixture
def no_normals(monkeypatch):
    """Every generator the library seeds fails on a Gaussian draw."""
    real_rng = np.random.default_rng

    class NoNormals:
        def __init__(self, seed):
            self._rng = real_rng(seed)

        def __getattr__(self, name):
            if name == "standard_normal":
                raise AssertionError("drew Gaussian outcomes")
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", NoNormals)


def star_state(n, r=1.15, transmissivity=0.95):
    spec = ChannelSpec(transmissivity, 0.0)
    return build_kn_state(n, r, {f"B{i}": spec for i in range(1, n + 1)},
                          star_topology(n))


def announced_pattern(layout, dealer_basis):
    """Party -> measured quadrature of every party in one sifted pattern."""
    coords = [(layout.dealer_mode, dealer_basis)]
    coords += layout.announced_coordinates(layout.player_modes, dealer_basis)
    return dict(coords)


class TestSampling:
    def test_same_seed_is_bit_identical(self):
        state, layout = build_three_mode_chain(0.7, 0.9)
        patterns = [announced_pattern(layout, "x"), announced_pattern(layout, "p")]
        first = simulation._revealed_designs(state, patterns, 5000, 0.5, 0.5, seed=11)
        second = simulation._revealed_designs(state, patterns, 5000, 0.5, 0.5, seed=11)
        assert first[0] == second[0]
        for a, b in zip(first[1], second[1]):
            assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        state, layout = build_three_mode_chain(0.7, 0.9)
        patterns = [announced_pattern(layout, "x"), announced_pattern(layout, "p")]
        _, (first, _) = simulation._revealed_designs(state, patterns, 5000, 0.5, 0.5, seed=1)
        _, (second, _) = simulation._revealed_designs(state, patterns, 5000, 0.5, 0.5, seed=2)
        assert not np.array_equal(first, second)

    def test_vacuum_variances(self):
        design = revealed_design(product_vacuum(["A", "B"]), {"A": "x", "B": "p"},
                                 400000, seed=3)
        for column in (1, 2):
            values = design[:, column]
            sample_variance = values.var(ddof=1)
            standard_error = 0.5 * math.sqrt(2.0 / (len(values) - 1))
            assert abs(sample_variance - 0.5) < 3.0 * standard_error

    def test_tmsv_cross_covariance(self):
        r = 0.8
        design = revealed_design(two_mode_squeezed(r), {"A": "x", "B": "x"}, 200000, seed=4)
        xa, xb = design[:, 1], design[:, 2]
        empirical = np.cov(xa, xb)[0, 1]
        expected = 0.5 * math.sinh(2 * r)
        var = 0.5 * math.cosh(2 * r)
        standard_error = math.sqrt((var * var + expected**2) / len(xa))
        assert abs(empirical - expected) < 3.0 * standard_error

    def test_unphysical_state_rejected(self):
        state, layout = build_three_mode_chain(1.0, 1.0)
        bogus = GaussianState(state.mean, 0.25 * np.eye(6), state.labels)
        with pytest.raises(UnphysicalStateError, match="min symplectic eigenvalue"):
            run_protocol(bogus, layout, ThresholdScheme(2, 2), rounds=100)

    def test_negative_definite_state_rejected(self):
        state, layout = build_three_mode_chain(1.0, 1.0)
        bogus = GaussianState(state.mean, -0.5 * np.eye(6), state.labels)
        with pytest.raises(UnphysicalStateError, match="negative eigenvalue"):
            run_protocol(bogus, layout, ThresholdScheme(2, 2), rounds=100)

    def test_argument_validation(self):
        state, layout = build_three_mode_chain(1.0, 1.0)
        scheme = ThresholdScheme(2, 2)
        with pytest.raises(ValueError):
            run_protocol(state, layout, scheme, rounds=0)
        with pytest.raises(ValueError):
            run_protocol(state, layout, scheme, rounds=10, basis_probability=1.0)


class TestEmpiricalConditioning:
    def test_product_state_shows_no_correlation(self):
        design = revealed_design(product_vacuum(["A", "B", "C"]),
                                 {"A": "x", "B": "x", "C": "x"}, 200000, seed=6)
        fit = fit_design(design, "x", ["B", "C"])
        assert fit.variance == pytest.approx(0.5, rel=0.02)
        for player, gain in fit.gains.gains.items():
            assert abs(gain) < 3.0 * fit.gain_standard_errors[player]

    def test_chain_oracle_agreement_and_gain_errors(self):
        r, transmissivity = 1.0, 0.9
        state, layout = build_three_mode_chain(r, transmissivity)
        report = run_protocol(state, layout, ThresholdScheme(2, 2),
                              rounds=1000000, seed=7, reveal_fraction=1.0)
        fit = report.inference_x
        expected = chain_expected_variances(r, transmissivity)["v_x_given_all"]
        assert abs(fit.variance - expected) / expected < 0.01

        analytic_gains = keyrate_eavesdropping(state, layout).x_gains.gains
        for player in layout.player_modes:
            assert (abs(fit.gains.gains[player] - analytic_gains[player])
                    < 3.0 * fit.gain_standard_errors[player])

    def test_undersampled_error_carries_the_count(self):
        state, layout = build_three_mode_chain(0.5, 1.0)
        with pytest.raises(UndersampledError) as excinfo:
            run_protocol(state, layout, ThresholdScheme(2, 2), rounds=400,
                         seed=9, reveal_fraction=1.0)
        assert excinfo.value.available < 100
        assert excinfo.value.required == 100
        assert excinfo.value.rounds_needed == 800  # 100 / (1/2)^3

    def test_standard_errors_are_positive(self):
        design = revealed_design(two_mode_squeezed(0.5), {"A": "x", "B": "x"},
                                 20000, seed=10)
        assert fit_design(design, "x", ["B"]).standard_error > 0.0


class TestRunProtocol:
    def test_report_is_reproducible(self):
        state, layout = build_three_mode_chain(1.0, 0.9)
        scheme = ThresholdScheme(2, 2)
        first = run_protocol(state, layout, scheme, rounds=30000, seed=21,
                             reveal_fraction=0.5)
        second = run_protocol(state, layout, scheme, rounds=30000, seed=21,
                              reveal_fraction=0.5)
        assert first.combined_rate == second.combined_rate
        assert first.sifted_counts == second.sifted_counts
        assert first.inference_x.variance == second.inference_x.variance

    def test_converges_to_analytic_rate(self):
        state, layout = build_three_mode_chain(1.15, 1.0)
        scheme = ThresholdScheme(2, 2)
        report = run_protocol(state, layout, scheme, rounds=1000000, seed=7,
                              reveal_fraction=1.0)
        assert report.combined_rate > 0.0
        relative = abs(report.combined_rate - report.analytic.combined_rate)
        assert relative / abs(report.analytic.combined_rate) < 0.05
        assert report.secure

    def test_sifting_accounting(self):
        state, layout = build_three_mode_chain(0.8, 1.0)
        scheme = ThresholdScheme(2, 2)
        report = run_protocol(state, layout, scheme, rounds=50000, seed=13,
                              reveal_fraction=0.25)
        assert sum(report.sifted_counts.values()) == 50000
        assert report.key_pattern == "xpx"
        assert report.check_pattern == "pxp"
        key_count = report.sifted_counts[report.key_pattern]
        assert report.revealed_key_rounds == round(0.25 * key_count)
        assert report.raw_key_length == key_count - report.revealed_key_rounds

    def test_small_run_reports_larger_uncertainty(self):
        state, layout = build_three_mode_chain(1.0, 0.9)
        scheme = ThresholdScheme(2, 2)
        small = run_protocol(state, layout, scheme, rounds=2000, seed=17,
                             reveal_fraction=1.0)
        large = run_protocol(state, layout, scheme, rounds=200000, seed=17,
                             reveal_fraction=1.0)
        assert small.combined_rate_standard_error > large.combined_rate_standard_error
        assert small.inference_x.rounds_used >= 100

    def test_insecure_verdict_deep_in_the_negative_region(self):
        state, layout = build_three_mode_chain(0.1, 0.85)
        scheme = ThresholdScheme(2, 2)
        report = run_protocol(state, layout, scheme, rounds=200000, seed=7,
                              reveal_fraction=1.0)
        assert report.analytic.combined_rate < 0.0
        assert not report.secure

    def test_reveal_fraction_validation(self):
        state, layout = build_three_mode_chain(1.0, 1.0)
        scheme = ThresholdScheme(2, 2)
        with pytest.raises(ValueError):
            run_protocol(state, layout, scheme, rounds=1000, reveal_fraction=0.0)
        with pytest.raises(ValueError):
            run_protocol(state, layout, scheme, rounds=1000, reveal_fraction=1.5)

    def test_scheme_layout_mismatch_rejected(self):
        state, layout = build_three_mode_chain(1.0, 1.0)
        with pytest.raises(ValueError):
            run_protocol(state, layout, ThresholdScheme(2, 3), rounds=1000)

    def test_degenerate_threshold_runs(self):
        state, layout = build_three_mode_chain(1.0, 1.0)
        report = run_protocol(state, layout, ThresholdScheme(1, 2),
                              rounds=20000, seed=23, reveal_fraction=1.0)
        assert set(report.adversarial_variance) == {()}
        assert len(report.access_variance) == 2

    def test_star_scheme_runs_per_structure_regressions(self):
        state, layout = star_state(3, r=1.0, transmissivity=1.0)
        report = run_protocol(state, layout, ThresholdScheme(2, 3),
                              rounds=100000, seed=29, reveal_fraction=1.0)
        assert len(report.access_variance) == 3
        assert len(report.adversarial_variance) == 3
        for colluders, fit in report.adversarial_variance.items():
            analytic = report.analytic.adversarial_conditional_variance[colluders]
            assert abs(fit.variance - analytic) / analytic < 0.1


class TestSharedReduction:
    @pytest.mark.parametrize("beta", [1.0, 0.9])
    def test_rates_are_combine_of_the_fitted_variances(self, beta):
        state, layout = star_state(4)
        report = run_protocol(state, layout, ThresholdScheme(2, 4),
                              rounds=100000, seed=31, beta=beta)
        access = list(report.access_variance.values())
        adversarial = list(report.adversarial_variance.values())
        bound = combine(report.dealer_x_variance, [fit.variance for fit in access],
                        [fit.variance for fit in adversarial], beta)
        assert report.combined_rate == bound.rate
        assert list(report.access_mutual_information.values()) == bound.access_bits.tolist()
        assert list(report.adversarial_holevo.values()) == bound.adversarial_holevo.tolist()
        assert report.eavesdropping_rate == combine(
            report.dealer_x_variance, [report.inference_x.variance],
            [report.inference_p.variance], beta).rate
        # The delta-method error is taken at combine's binding structures.
        vx = access[bound.binding_access]
        vp = adversarial[bound.binding_adversarial]
        scale = 1.0 / (2.0 * math.log(2.0))
        dealer_se = math.sqrt(2.0 / (vx.rounds_used - 1))
        expected = math.sqrt((beta * scale * vx.standard_error / vx.variance) ** 2
                             + (scale * vp.standard_error / vp.variance) ** 2
                             + ((beta - 1.0) * scale * dealer_se) ** 2)
        assert report.combined_rate_standard_error == pytest.approx(expected, rel=1e-12)


class TestRevealedSampling:
    @pytest.mark.parametrize("players, basis_probability", [(2, 0.5), (4, 0.3)])
    def test_pattern_counts_are_within_five_sigma(self, players, basis_probability):
        if players == 2:
            state, layout = build_three_mode_chain(1.0, 0.9)
        else:
            state, layout = star_state(players)
        rounds = 100000
        report = run_protocol(state, layout, ThresholdScheme(2, players),
                              rounds=rounds, seed=31,
                              basis_probability=basis_probability)
        assert set(report.sifted_counts) == {report.key_pattern,
                                             report.check_pattern, "other"}
        assert sum(report.sifted_counts.values()) == rounds
        for pattern in (report.key_pattern, report.check_pattern):
            p = math.prod(basis_probability if basis == "x" else 1 - basis_probability
                          for basis in pattern)
            sigma = math.sqrt(rounds * p * (1 - p))
            assert abs(report.sifted_counts[pattern] - rounds * p) < 5 * sigma

    def test_revealed_rows_follow_the_pattern_marginal(self):
        state, layout = star_state(4, transmissivity=0.9)
        patterns = [announced_pattern(layout, "x"), announced_pattern(layout, "p")]
        # p = 1/32 per pattern, so about 2e5 rows each.
        counts, designs = simulation._revealed_designs(
            state, patterns, 6_400_000, 1.0, 0.5, seed=37)
        for required, count, design in zip(patterns, counts, designs):
            assert len(design) == count
            assert np.all(design[:, 0] == 1.0)
            idx = [state.quad_index(party, basis) for party, basis in required.items()]
            expected = state.cov[np.ix_(idx, idx)]
            empirical = np.cov(design[:, 1:], rowvar=False)
            diag = np.diag(expected)
            sigma = np.sqrt((np.outer(diag, diag) + expected**2) / count)
            assert np.all(np.abs(empirical - expected) < 5 * sigma)
            mean_sigma = np.sqrt(diag / count)
            assert np.all(np.abs(design[:, 1:].mean(axis=0)) < 5 * mean_sigma)

    def test_twenty_player_undersampling_fails_before_any_normal(self, no_normals):
        state, layout = star_state(20)
        scheme = ThresholdScheme(2, 20)
        start = time.perf_counter()
        with pytest.raises(UndersampledError, match="sifted") as excinfo:
            run_protocol(state, layout, scheme, rounds=1000, seed=1)
        assert time.perf_counter() - start < 1.0
        # Both patterns have p = 2^-21; half their rounds are revealed.
        assert excinfo.value.rounds_needed == 100 * 2**22
        assert str(excinfo.value.rounds_needed) in str(excinfo.value)

    def test_design_budget_refuses_before_any_normal(self, no_normals, monkeypatch):
        monkeypatch.setattr(simulation, "MAX_DESIGN_CELLS", 1000)
        state, layout = build_three_mode_chain(0.5, 1.0)
        with pytest.raises(ValueError, match=r"10000 rounds reveal \d+ rows of 4 "
                                             "columns .*budget of 1000 design cells"):
            run_protocol(state, layout, ThresholdScheme(2, 2), rounds=10000)


class TestRegressionKernel:
    RTOL = 1e-12

    def assert_matches(self, fit, reference, target_square_mean):
        variance, gains, se, gain_se, rounds = reference
        assert fit.rounds_used == rounds
        np.testing.assert_allclose(fit.variance, variance, rtol=self.RTOL)
        # A jackknife refit (YY_g - c_g . m_g) / (n_g - d) cancels sums of
        # size YY_g ~ n * E[y^2], so summing in another order moves it by a
        # few eps * E[y^2]; the standard error combines 50 such refits.
        # Relative to the standard error that is up to ~2e-12 here.
        se_atol = 4 * math.sqrt(50) * np.finfo(float).eps * target_square_mean
        np.testing.assert_allclose(fit.standard_error, se, rtol=0, atol=se_atol)
        assert list(fit.gains.gains) == list(gains)
        for party in gains:
            np.testing.assert_allclose(fit.gains.gains[party], gains[party], rtol=self.RTOL)
            np.testing.assert_allclose(fit.gain_standard_errors[party], gain_se[party],
                                       rtol=self.RTOL)

    @pytest.mark.parametrize("players", [2, 4])
    def test_shared_gram_fits_match_the_reference_loop(self, players):
        if players == 2:
            state, layout = build_three_mode_chain(1.0, 0.9)
        else:
            state, layout = star_state(players)
        rounds, seed = 200000, 41
        report = run_protocol(state, layout, ThresholdScheme(2, players),
                              rounds=rounds, seed=seed)
        patterns = [announced_pattern(layout, "x"), announced_pattern(layout, "p")]
        _, designs = simulation._revealed_designs(state, patterns, rounds, 0.5, 0.5, seed)
        everyone = layout.player_modes

        def check(basis, fits):
            design = designs[basis == "p"]
            for estimators, fit in fits:
                reference = regression_loop(design, everyone, estimators)
                self.assert_matches(fit, reference, np.mean(design[:, 1] ** 2))

        check("x", [(everyone, report.inference_x)]
              + list(report.access_variance.items()))
        check("p", [(everyone, report.inference_p)]
              + [([p for p in everyone if p not in colluders], fit)
                 for colluders, fit in report.adversarial_variance.items()])
