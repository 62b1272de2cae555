"""Monte Carlo sampling, sifting and parameter estimation."""

import dataclasses
import math
import time
from itertools import combinations
import tracemalloc

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
    chain_topology,
    keyrate_eavesdropping,
    keyrate_qss,
    run_protocol,
    star_topology,
)
from cvqss import simulation
from cvqss.estimation import SCHUR_BLOCK_ROWS
from cvqss.keyrate import _complements, _labels, combine
from helpers import (
    chain_expected_variances,
    design_scatter,
    fit_design,
    product_vacuum,
    regression_loop,
    revealed_design,
    revealed_designs,
    structure_fit,
    two_mode_squeezed,
)


@pytest.fixture
def no_normals(monkeypatch):
    """Every generator the library seeds fails on a draw of an outcome statistic."""
    real_rng = np.random.default_rng

    class NoNormals:
        def __init__(self, seed):
            self._rng = real_rng(seed)

        def __getattr__(self, name):
            if name in ("standard_normal", "gamma", "chisquare"):
                raise AssertionError(f"drew outcome statistics ({name})")
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


def all_player_fit_z(state, layout, rounds, seed, references):
    """z of the all-player fits of one sampler draw, key then check pattern.

    ``references`` holds (variance, party -> gain) per pattern; each fit
    gives the z of its residual variance against its standard error, then
    of each gain against its OLS error.
    """
    patterns = [announced_pattern(layout, "x"), announced_pattern(layout, "p")]
    _, scatters = simulation._revealed_scatters(state, patterns, rounds, 1.0, 0.5, seed)
    players = layout.player_modes
    z = []
    for (scatter, rows), basis, (variance, gains) in zip(scatters, "xp", references):
        (fit,) = simulation._fit(scatter, rows, basis, np.arange(len(players))[None], [players])
        z.append((fit.variance - variance) / fit.standard_error)
        z += [(fit.gains.gains[p] - gains[p]) / fit.gain_standard_errors[p] for p in gains]
    return z


def structure_fit_z(state, layout, scheme, analytic, rounds, seed):
    """z of every access and honest-side fit of one sampler draw, every round
    revealed, against ``analytic``'s per-structure conditional variances."""
    patterns = [announced_pattern(layout, "x"), announced_pattern(layout, "p")]
    _, (key, check) = simulation._revealed_scatters(state, patterns, rounds, 1.0, 0.5, seed)
    players = layout.player_modes
    access_rows, colluding = scheme._player_rows
    honest_rows = _complements(colluding, scheme.n)
    access, adversarial, honest = (_labels(players, rows)
                                   for rows in (access_rows, colluding, honest_rows))
    pairs = [*zip(simulation._fit(*key, "x", access_rows, access),
                  (analytic.access_conditional_variance[s] for s in access)),
             *zip(simulation._fit(*check, "p", honest_rows, honest),
                  (analytic.adversarial_conditional_variance[s] for s in adversarial))]
    return [(fit.variance - variance) / fit.standard_error for fit, variance in pairs]


def assert_calibrated(z):
    """Each column of ``z`` (one row per seed) has mean 0 and sd 1, each within
    4 standard errors of that statistic for the seed count."""
    seeds = len(z)
    assert np.all(np.abs(z.mean(axis=0)) < 4 / math.sqrt(seeds))
    assert np.all(np.abs(z.std(axis=0, ddof=1) - 1) < 4 / math.sqrt(2 * (seeds - 1)))


class TestSampling:
    def test_same_seed_is_bit_identical(self):
        state, layout = build_three_mode_chain(0.7, 0.9)
        patterns = [announced_pattern(layout, "x"), announced_pattern(layout, "p")]
        first = simulation._revealed_scatters(state, patterns, 5000, 0.5, 0.5, seed=11)
        second = simulation._revealed_scatters(state, patterns, 5000, 0.5, 0.5, seed=11)
        assert first[0] == second[0]
        for (scatter_a, rows_a), (scatter_b, rows_b) in zip(first[1], second[1]):
            assert np.array_equal(scatter_a, scatter_b) and rows_a == rows_b

    def test_different_seeds_differ(self):
        state, layout = build_three_mode_chain(0.7, 0.9)
        patterns = [announced_pattern(layout, "x"), announced_pattern(layout, "p")]
        _, ((first, _), _) = simulation._revealed_scatters(state, patterns, 5000, 0.5, 0.5, 1)
        _, ((second, _), _) = simulation._revealed_scatters(state, patterns, 5000, 0.5, 0.5, 2)
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
        with pytest.raises(UnphysicalStateError, match="not positive definite"):
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
        expected = chain_expected_variances(r, transmissivity)
        assert (abs(report.inference_x.variance - expected["v_x_given_all"])
                / expected["v_x_given_all"] < 0.01)

        # The reported errors are calibrated on this chain: over many seeds,
        # the z of each gain and residual variance has mean 0 and sd 1.
        analytic = keyrate_eavesdropping(state, layout)
        references = [(expected["v_x_given_all"], analytic.x_gains.gains),
                      (expected["v_p_given_all"], analytic.p_gains.gains)]
        assert_calibrated(np.array([all_player_fit_z(state, layout, 20000, seed, references)
                                    for seed in range(200)]))

    def test_star_structure_errors_are_calibrated(self):
        # The (2, 4) star's structures are tied, so its verdict rests on every
        # per-structure error: each of the 6 access and 4 honest-side fits
        # must be calibrated against the analytic variance on its own.
        state, layout = star_state(4)
        scheme = ThresholdScheme(2, 4)
        analytic = keyrate_qss(state, layout, scheme)
        assert_calibrated(np.array([structure_fit_z(state, layout, scheme, analytic, 20000, seed)
                                    for seed in range(200)]))

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

    def test_report_does_not_depend_on_the_state_mean(self):
        # A fit with an intercept reads the rows only through their scatter about
        # their mean, so shifting the mean moves no bit of the report.
        state, layout = build_three_mode_chain(1.15, 0.95)
        scheme = ThresholdScheme(2, 2)
        report = run_protocol(state, layout, scheme, rounds=10**6, seed=7)
        for shift in (1e8, -1e12):
            moved = dataclasses.replace(state, mean=state.mean + shift)
            assert run_protocol(moved, layout, scheme, rounds=10**6, seed=7) == report

    def test_a_round_count_that_is_not_an_integer_is_refused_before_any_draw(
            self, monkeypatch):
        state, layout = build_three_mode_chain(1.0, 1.0)
        scheme = ThresholdScheme(2, 2)
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", None)  # any draw fails
            for rounds in (1000000.5, 1e6):
                with pytest.raises(ValueError, match=f"rounds must be an integer, got {rounds}"):
                    run_protocol(state, layout, scheme, rounds=rounds)
        assert run_protocol(state, layout, scheme, rounds=np.int64(10**4)).rounds == 10**4

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
    def test_rates_are_combine_of_the_fitted_variances(self):
        state, layout = star_state(4)
        report = run_protocol(state, layout, ThresholdScheme(2, 4),
                              rounds=100000, seed=31)
        access = list(report.access_variance.values())
        adversarial = list(report.adversarial_variance.values())
        bound = combine(report.dealer_x_variance, [fit.variance for fit in access],
                        [fit.variance for fit in adversarial])
        assert report.combined_rate == bound.rate
        assert list(report.access_mutual_information.values()) == bound.access_bits.tolist()
        assert list(report.adversarial_holevo.values()) == bound.adversarial_holevo.tolist()
        assert report.eavesdropping_rate == combine(
            report.dealer_x_variance, [report.inference_x.variance],
            [report.inference_p.variance]).rate
        # The delta-method error is taken at combine's binding structures.
        vx = access[bound.binding_access]
        vp = adversarial[bound.binding_adversarial]
        scale = 1.0 / (2.0 * math.log(2.0))
        expected = math.sqrt((scale * vx.standard_error / vx.variance) ** 2
                             + (scale * vp.standard_error / vp.variance) ** 2)
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
        counts, designs = revealed_designs(state, patterns, 6_400_000, 1.0, 0.5, seed=37)
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

    def test_memory_is_flat_in_rounds(self):
        state, layout = star_state(4)
        scheme = ThresholdScheme(2, 4)
        run_protocol(state, layout, scheme, rounds=10**6)  # lazy imports and caches
        peaks = []
        for rounds in (10**6, 10**12):
            tracemalloc.start()
            try:
                run_protocol(state, layout, scheme, rounds=rounds, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


class TestSufficientStatistics:
    """Each pattern's drawn scatter has its rows' law.

    The scatter about their mean of n iid rows x ~ N(mu, Sigma) is
    Wishart(n - 1, Sigma), whatever mu: its entries S_ij have mean
    (n - 1) Sigma_ij and variance (n - 1) (Sigma_ij^2 + Sigma_ii Sigma_jj).
    Bounds are 5 standard errors of the sample statistics, estimated from the
    same draws.
    """

    # The fewest rows a fit accepts (MIN_SIFTED_ROUNDS) and 50000 rows; and 6,
    # the fewest rows with all five Bartlett columns live, where a Wishart
    # degree of freedom off by one moves the scatter's mean by a fifth.
    @pytest.mark.parametrize("count, calls", [(100, 200), (50000, 40), (6, 600)])
    def test_pattern_scatter_moments(self, count, calls):
        state, layout = star_state(4, transmissivity=0.9)
        idx = [state.quad_index(party, basis)
               for party, basis in announced_pattern(layout, "x").items()]
        cov = state.cov[np.ix_(idx, idx)]
        rng = np.random.default_rng(53)
        scatters = []
        for _ in range(calls):
            scatter, rows = simulation._pattern_scatter(rng, cov, count)
            assert rows == count
            scatters.append(scatter)
        scatters = np.array(scatters)

        sem = scatters.std(axis=0, ddof=1) / math.sqrt(calls)
        assert np.all(np.abs(scatters.mean(axis=0) - (count - 1) * cov) <= 5 * sem)
        diag = np.diag(cov)
        expected = (count - 1) * (cov**2 + np.outer(diag, diag))
        squares = (scatters - scatters.mean(axis=0)) ** 2
        sem = squares.std(axis=0, ddof=1) / math.sqrt(calls)
        assert np.all(np.abs(scatters.var(axis=0, ddof=1) - expected) <= 5 * sem)


class TestRegressionKernel:
    RTOL = 1e-12

    def assert_matches(self, fit, reference):
        variance, gains, se, gain_se, rounds = reference
        assert fit.rounds_used == rounds
        np.testing.assert_allclose(fit.variance, variance, rtol=self.RTOL)
        np.testing.assert_allclose(fit.standard_error, se, rtol=self.RTOL)
        assert list(fit.gains.gains) == list(gains)
        for party in gains:
            np.testing.assert_allclose(fit.gains.gains[party], gains[party], rtol=self.RTOL)
            np.testing.assert_allclose(fit.gain_standard_errors[party], gain_se[party],
                                       rtol=self.RTOL)

    @pytest.mark.parametrize("players", [2, 4])
    def test_shared_scatter_fits_match_the_reference_loop(self, players):
        if players == 2:
            state, layout = build_three_mode_chain(1.0, 0.9)
        else:
            state, layout = star_state(players)
        rounds, seed = 200000, 41
        patterns = [announced_pattern(layout, "x"), announced_pattern(layout, "p")]
        _, designs = revealed_designs(state, patterns, rounds, 0.5, 0.5, seed)
        everyone = layout.player_modes
        column = {player: j for j, player in enumerate(everyone, start=1)}
        access_rows, colluding = ThresholdScheme(2, players)._player_rows
        honest_rows = _complements(colluding, players)

        for design, basis, rows in zip(designs, "xp", (access_rows, honest_rows)):
            scatter = design_scatter(design)
            for positions in (np.arange(players)[None], rows):
                batch = _labels(everyone, positions)
                for estimators, fit in zip(batch,
                                           simulation._fit(*scatter, basis, positions, batch),
                                           strict=True):
                    self.assert_matches(fit, regression_loop(design, everyone, estimators))
                    # Batching the structures moves no bit of any fit.
                    self.assert_same_bits(
                        fit, structure_fit(*scatter, basis, {p: column[p] for p in estimators}))

    @staticmethod
    def assert_same_bits(fit, single):
        assert fit.rounds_used == single.rounds_used
        assert list(fit.gains.gains) == list(single.gains.gains)
        assert np.array_equal(
            [fit.variance, fit.standard_error, *fit.gains.gains.values(),
             *fit.gain_standard_errors.values()],
            [single.variance, single.standard_error, *single.gains.gains.values(),
             *single.gain_standard_errors.values()])

    def test_structures_are_fitted_in_bounded_chunks(self, monkeypatch):
        # 330 structures of 4 estimators: chunks of 256 and 74, so the (S, g, g)
        # sub-blocks never hold more than SCHUR_BLOCK_ROWS structures.
        rng = np.random.default_rng(3)
        root = rng.standard_normal((12, 12))
        scatter = simulation._pattern_scatter(rng, root @ root.T + np.eye(12), 10000)
        parties = [f"B{i}" for i in range(1, 12)]
        structures = list(combinations(parties, 4))
        real_solve, shapes = np.linalg.solve, []

        def solve(a, b):
            shapes.append(a.shape)
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        fits = simulation._fit(*scatter, "x", np.array(list(combinations(range(11), 4))),
                               structures)
        monkeypatch.undo()
        assert shapes == [(SCHUR_BLOCK_ROWS, 4, 4), (74, 4, 4)]
        assert len(fits) == len(structures)
        for group, fit in zip(structures, fits):
            self.assert_same_bits(fit, structure_fit(
                *scatter, "x", {party: 1 + parties.index(party) for party in group}))

    def test_report_keys_carry_their_structures_fits(self):
        # An asymmetric (2, 4) chain: every structure's fit differs, so a fit
        # under the wrong access structure or colluder key shows.
        specs = {"B1": ChannelSpec(0.95, 0.0), "B2": ChannelSpec(0.8, 0.02),
                 "B3": ChannelSpec(0.9, 0.0), "B4": ChannelSpec(0.7, 0.01)}
        state, layout = build_kn_state(4, 1.0, specs, chain_topology(4))
        rounds, seed = 10**6, 11
        report = run_protocol(state, layout, ThresholdScheme(2, 4), rounds=rounds, seed=seed)
        patterns = [announced_pattern(layout, "x"), announced_pattern(layout, "p")]
        _, (key, check) = simulation._revealed_scatters(state, patterns, rounds, 0.5, 0.5, seed)
        players = layout.player_modes
        column = {player: j for j, player in enumerate(players, start=1)}

        def single(scatter, basis, estimators):
            return structure_fit(*scatter, basis, {p: column[p] for p in estimators})

        assert list(report.access_variance) == list(combinations(players, 2))
        assert list(report.adversarial_variance) == list(combinations(players, 1))
        assert len({fit.variance for fit in report.access_variance.values()}) == 6
        assert len({fit.variance for fit in report.adversarial_variance.values()}) == 4
        self.assert_same_bits(report.inference_x, single(key, "x", players))
        self.assert_same_bits(report.inference_p, single(check, "p", players))
        for structure, fit in report.access_variance.items():
            self.assert_same_bits(fit, single(key, "x", structure))
        for colluders, fit in report.adversarial_variance.items():
            honest = [p for p in players if p not in colluders]
            self.assert_same_bits(fit, single(check, "p", honest))
