"""Moment representation, builders and symplectic transformations."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from cvqss import (
    ChannelSpec,
    GaussianState,
    UnphysicalStateError,
    build_kn_state,
    chain_topology,
    symplectic_eigenvalues,
    symplectic_form,
    validate,
)
from helpers import (
    SymplecticTransform,
    apply_beamsplitter,
    apply_cz,
    beamsplitter_transform,
    cz_transform,
    partial_trace,
    pure,
    squeezed_vacuum,
    tensor,
    vacuum,
    variance,
)


def symplectic_residual(matrix):
    omega = symplectic_form(matrix.shape[0] // 2)
    return np.abs(matrix @ omega @ matrix.T - omega).max()


class TestVacuum:
    def test_single_mode(self):
        state = vacuum(1)
        assert np.array_equal(state.mean, np.zeros(2))
        assert np.array_equal(state.cov, 0.5 * np.eye(2))

    def test_three_modes_is_tensor_of_vacua(self):
        assert np.array_equal(vacuum(3).cov, 0.5 * np.eye(6))

    def test_minimum_uncertainty(self):
        diag = validate(vacuum(2))
        assert diag.min_symplectic_eigenvalue == pytest.approx(0.5, abs=1e-12)
        assert diag.purity == pytest.approx(1.0, abs=1e-12)
        assert diag.physical

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            vacuum(0)


class TestSqueezedVacuum:
    def test_no_squeezing_is_vacuum(self):
        state = squeezed_vacuum(0.0, "p")
        assert np.allclose(state.cov, vacuum(1).cov)

    def test_ten_db_squeezing(self):
        state = squeezed_vacuum(1.15, "p")
        assert variance(state, "m0", "p") == pytest.approx(0.5 * math.exp(-2.3))
        assert variance(state, "m0", "x") == pytest.approx(0.5 * math.exp(2.3))
        # standard deviation of the squeezed quadrature relative to vacuum
        assert round(math.exp(-1.15), 2) == 0.32

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.7, 1.15, 2.0])
    @pytest.mark.parametrize("quad", ["x", "p"])
    def test_minimum_uncertainty_product(self, r, quad):
        state = squeezed_vacuum(r, quad)
        product = variance(state, "m0", "x") * variance(state, "m0", "p")
        assert product == pytest.approx(0.25, rel=1e-12)

    def test_negative_squeezing_rejected(self):
        with pytest.raises(ValueError, match=r"^squeezing parameter r must be >= 0, got -0\.1$"):
            squeezed_vacuum(-0.1, "x")

    def test_unknown_quadrature_rejected(self):
        with pytest.raises(ValueError):
            squeezed_vacuum(0.5, "q")

    @pytest.mark.parametrize("r, message", [
        ([-1.0, math.inf], "must be >= 0"),
        ([math.inf, -1.0], "must be finite, got inf"),
        ([400.0, -1.0], r"r = 400\.0 overflows"),
        ([-1.0, 400.0], "must be >= 0"),
        ([1.0, math.nan, 400.0], "must be finite, got nan"),
        ([[1.0, 400.0], [-1.0, 2.0]], r"r = 400\.0 overflows"),  # row-major order
        ([1e308], r"r = 1e\+308 overflows"),  # 2r is inf, and math.exp(inf) does not raise
        ([1.0, 1e308, -1.0], r"r = 1e\+308 overflows"),
    ])
    def test_stack_error_names_the_first_offending_value(self, r, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            with pytest.raises(ValueError, match=message):
                squeezed_vacuum(np.array(r))

    @pytest.mark.parametrize("r", [np.zeros(0), np.zeros((2, 0))], ids=["0", "2x0"])
    def test_empty_stack_is_refused_by_name(self, r):
        # Not numpy's "zero-size array to reduction operation" from the symmetry check.
        shape = re.escape(str(r.shape + (2, 2)))
        with pytest.raises(ValueError, match=f"^cov is an empty stack of shape {shape}: "):
            squeezed_vacuum(r)
        spec = ChannelSpec(0.9)
        shape = re.escape(str(r.shape + (6, 6)))
        with pytest.raises(ValueError, match=f"^cov is an empty stack of shape {shape}: "):
            build_kn_state(2, r, {"B1": spec, "B2": spec}, chain_topology(2))

    @pytest.mark.parametrize("quad", ["x", "p"])
    def test_stack_holds_math_exp_bit_for_bit(self, quad):
        # np.exp differs from math.exp in the last bit on some of these values.
        r = np.concatenate([np.linspace(0.0, 1.5, 61), [354.0, 0.0]]).reshape(3, 21)
        cov = squeezed_vacuum(r, quad).cov
        assert cov.shape == (3, 21, 2, 2)
        for index, value in np.ndenumerate(r):
            squeezed, anti = 0.5 * math.exp(-2.0 * value), 0.5 * math.exp(2.0 * value)
            diagonal = [squeezed, anti] if quad == "x" else [anti, squeezed]
            assert np.array_equal(cov[index], np.diag(diagonal))


class TestTensor:
    def test_vacua_compose(self):
        state = tensor(vacuum(1, labels=("a",)), vacuum(1, labels=("b",)))
        assert np.array_equal(state.cov, vacuum(2).cov)
        assert np.array_equal(state.mean, vacuum(2).mean)

    def test_product_state_has_no_cross_covariance(self):
        state = tensor(squeezed_vacuum(1.0, "x", label="a"),
                       squeezed_vacuum(0.5, "p", label="b"))
        assert np.array_equal(state.cov[:2, 2:], np.zeros((2, 2)))

    def test_symplectic_spectrum_is_union(self):
        a = squeezed_vacuum(0.8, "x", label="a")
        lossy = GaussianState(np.zeros(2), 0.7 * np.eye(2), ("b",))
        nus = symplectic_eigenvalues(tensor(a, lossy).cov)
        expected = np.sort(np.concatenate([symplectic_eigenvalues(a.cov),
                                           symplectic_eigenvalues(lossy.cov)]))
        assert np.allclose(nus, expected, atol=1e-12)

    def test_label_collision_rejected(self):
        with pytest.raises(ValueError, match="collide"):
            tensor(vacuum(1), vacuum(1))


class TestCzGate:
    def test_zero_weight_is_identity(self):
        state = vacuum(2)
        out = apply_cz(state, "m0", "m1", 0.0)
        assert np.array_equal(out.cov, state.cov)

    def test_unit_weight_on_vacuum(self):
        # Hand propagation of S cov S^T for p1 -> p1 + x2, p2 -> p2 + x1.
        out = apply_cz(vacuum(2), "m0", "m1", 1.0)
        expected = np.diag([0.5, 1.0, 0.5, 1.0])
        expected[1, 2] = expected[2, 1] = 0.5
        expected[0, 3] = expected[3, 0] = 0.5
        assert np.allclose(out.cov, expected, atol=1e-14)

    @pytest.mark.parametrize("weight", [-2.0, -0.5, 0.3, 1.0, 3.7])
    def test_transform_is_symplectic(self, weight):
        transform = cz_transform(vacuum(3), "m0", "m2", weight)
        assert symplectic_residual(transform.matrix) < 1e-12

    @pytest.mark.parametrize("weight", [0.5, 1.0, 2.5])
    def test_inverse_weight_undoes_gate(self, weight):
        state = tensor(squeezed_vacuum(0.6, "p", label="a"),
                       squeezed_vacuum(1.1, "x", label="b"))
        roundtrip = apply_cz(apply_cz(state, "a", "b", weight), "a", "b", -weight)
        assert np.allclose(roundtrip.cov, state.cov, atol=1e-12)
        assert np.allclose(roundtrip.mean, state.mean, atol=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            apply_cz(vacuum(2), "m0", "nope", 1.0)

    def test_same_mode_rejected(self):
        with pytest.raises(ValueError):
            apply_cz(vacuum(2), "m0", "m0", 1.0)


class TestBeamsplitter:
    def test_full_transmission_is_identity(self):
        state = tensor(squeezed_vacuum(0.9, "x", label="a"), vacuum(1, labels=("b",)))
        out = apply_beamsplitter(state, "a", "b", 1.0)
        assert np.allclose(out.cov, state.cov, atol=1e-15)

    def test_zero_transmission_swaps_modes(self):
        # Reflected port carries the minus sign on mode j: means map
        # (x_i, p_i) -> (x_j, p_j) and (x_j, p_j) -> (-x_i, -p_i).
        cov = np.diag([1.0, 2.0, 3.0, 4.0])
        state = GaussianState(np.array([1.0, 2.0, 3.0, 4.0]), cov, ("i", "j"))
        out = apply_beamsplitter(state, "i", "j", 0.0)
        assert np.allclose(out.mean, [3.0, 4.0, -1.0, -2.0], atol=1e-15)
        assert np.allclose(np.diag(out.cov), [3.0, 4.0, 1.0, 2.0], atol=1e-15)

    @pytest.mark.parametrize("r", [0.4, 1.0])
    def test_balanced_mixing_of_squeezed_and_vacuum(self, r):
        state = tensor(squeezed_vacuum(r, "p", label="a"), vacuum(1, labels=("b",)))
        out = apply_beamsplitter(state, "a", "b", 0.5)
        expected = 0.5 * (0.5 * math.exp(2 * r) + 0.5)
        assert variance(out, "a", "x") == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("transmissivity", [0.0, 0.25, 0.5, 0.93, 1.0])
    def test_transform_is_symplectic(self, transmissivity):
        transform = beamsplitter_transform(vacuum(2), "m0", "m1", transmissivity)
        assert symplectic_residual(transform.matrix) < 1e-12

    @pytest.mark.parametrize("transmissivity", [-0.1, 1.1])
    def test_out_of_range_transmissivity_rejected(self, transmissivity):
        with pytest.raises(ValueError):
            apply_beamsplitter(vacuum(2), "m0", "m1", transmissivity)


class TestPartialTrace:
    def test_keep_all_is_identity(self):
        state = apply_cz(vacuum(2), "m0", "m1", 1.0)
        out = partial_trace(state, ["m0", "m1"])
        assert np.array_equal(out.cov, state.cov)
        assert out.labels == state.labels

    def test_recovers_product_factors(self):
        a = squeezed_vacuum(0.8, "x", label="a")
        b = squeezed_vacuum(0.2, "p", label="b")
        joint = tensor(a, b)
        assert np.array_equal(partial_trace(joint, ["a"]).cov, a.cov)
        assert np.array_equal(partial_trace(joint, ["b"]).cov, b.cov)

    def test_order_follows_original_state(self):
        state = vacuum(3)
        out = partial_trace(state, ["m2", "m0"])
        assert out.labels == ("m0", "m2")

    def test_reduced_mode_of_coupled_vacua(self):
        coupled = apply_cz(vacuum(2), "m0", "m1", 1.0)
        reduced = partial_trace(coupled, ["m0"])
        assert variance(reduced, "m0", "x") == pytest.approx(0.5, abs=1e-14)
        assert variance(reduced, "m0", "p") == pytest.approx(1.0, abs=1e-14)

    def test_empty_or_unknown_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(vacuum(2), [])
        with pytest.raises(ValueError):
            partial_trace(vacuum(2), ["m0", "zz"])


class TestValidate:
    def test_vacuum_is_pure(self):
        diag = validate(vacuum(1))
        assert diag.min_symplectic_eigenvalue == pytest.approx(0.5, abs=1e-12)
        assert diag.purity == pytest.approx(1.0, abs=1e-12)
        assert pure(diag)

    def test_sub_vacuum_noise_is_flagged(self):
        bogus = GaussianState(np.zeros(2), 0.25 * np.eye(2), ("m0",))
        diag = validate(bogus)
        assert not diag.physical
        assert diag.min_symplectic_eigenvalue == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("cov", [-0.5 * np.eye(2), np.diag([1.0, -0.3, 1.0, 1.0])])
    def test_non_positive_covariance_is_flagged(self, cov):
        # No Cholesky factor: the symplectic spectrum is undefined, not that of -V.
        state = GaussianState(np.zeros(len(cov)), cov, tuple(range(len(cov) // 2)))
        diag = validate(state)
        assert diag.symplectic_eigenvalues == ()
        assert diag.min_symplectic_eigenvalue is None and diag.purity is None
        assert not diag.physical
        assert not pure(diag)
        with pytest.raises(UnphysicalStateError, match="not positive definite"):
            symplectic_eigenvalues(cov)

    def test_never_raises_on_weird_input(self):
        weird = GaussianState(np.zeros(2), np.diag([1e6, 1e-9]), ("m0",))
        assert not validate(weird).physical


class TestSymplecticSpectrumOracle:
    """The default (2, 2) chain's smallest symplectic eigenvalue against a 50-digit
    evaluation on the same stored covariance: mpmath's Cholesky factor L, then the
    eigenvalues +/-nu of the Hermitian i L^T Omega L."""

    @staticmethod
    def chain(r, excess_noise):
        specs = dict.fromkeys(["B1", "B2"], ChannelSpec(1.0, excess_noise))
        return build_kn_state(2, r, specs, chain_topology(2))[0]

    @staticmethod
    def exact_min_nu(cov):
        with mpmath.workdps(50):
            factor = mpmath.cholesky(mpmath.matrix(cov.tolist()))
            omega = mpmath.matrix(symplectic_form(len(cov) // 2).tolist())
            form = (factor.T * omega * factor) * mpmath.mpc(0, 1)
            return min(nu for nu in mpmath.eigh(form, eigvals_only=True) if nu > 0)

    # r = 6 is physical (exact 0.500000557830127) and r = 7 not (0.499972793159289).
    @pytest.mark.parametrize("r, excess_noise, rtol", [
        (1.15, 0.0, 1e-12), (3.0, 0.0, 1e-12), (6.0, 0.0, 1e-12), (7.0, 0.0, 1e-12),
        (1.15, 1e6, 1e-12), (1.15, 1e12, 1e-9),
    ])
    def test_smallest_eigenvalue_and_verdict_match_50_digits(self, r, excess_noise, rtol):
        state = self.chain(r, excess_noise)
        exact = self.exact_min_nu(state.cov)
        diag = validate(state)
        assert abs(diag.min_symplectic_eigenvalue - exact) <= rtol * exact
        assert diag.physical == (exact >= 0.5 - 1e-9)

    def test_added_noise_keeps_the_state_physical(self):
        # The state of `cvqss validate --excess-noise 1e18`, exact min nu 5.01209326634.
        assert validate(self.chain(1.15, 1e18)).physical


class TestStateConstruction:
    def test_asymmetric_covariance_rejected(self):
        cov = 0.5 * np.eye(2)
        cov[0, 1] = 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(np.zeros(2), cov, ("m0",))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(np.zeros(3), 0.5 * np.eye(2), ("m0",))
        with pytest.raises(ValueError):
            GaussianState(np.zeros(2), 0.5 * np.eye(4), ("m0",))

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_covariance_rejected(self, value):
        # A NaN symmetry residual fails no comparison, so only this check stops it.
        cov = 0.5 * np.eye(4)
        cov[2, 2] = value
        with pytest.raises(ValueError, match=f"^cov must be finite, got an entry of {value}$"):
            GaussianState(np.zeros(4), cov, ("a", "b"))
        with pytest.raises(ValueError, match="^cov must be finite"):
            GaussianState(np.zeros(4), np.stack([0.5 * np.eye(4), cov]), ("a", "b"))

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_mean_rejected(self, value):
        with pytest.raises(ValueError, match=f"^mean must be finite, got an entry of {value}$"):
            GaussianState(np.array([0.0, value]), 0.5 * np.eye(2), ("a",))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(np.zeros(4), 0.5 * np.eye(4), ("a", "a"))

    def test_states_are_immutable(self):
        state = vacuum(1)
        with pytest.raises(ValueError):
            state.cov[0, 0] = 7.0


class TestSymplecticTransform:
    def test_non_symplectic_matrix_rejected(self):
        with pytest.raises(ValueError, match="symplectic"):
            SymplecticTransform(2.0 * np.eye(2))

    def test_applies_to_moments(self):
        state = GaussianState(np.array([1.0, 0.0]), 0.5 * np.eye(2), ("m0",))
        squeeze = SymplecticTransform(np.diag([2.0, 0.5]))
        out = squeeze.apply(state)
        assert np.allclose(out.mean, [2.0, 0.0])
        assert np.allclose(np.diag(out.cov), [2.0, 0.125])

    def test_dimension_mismatch_rejected(self):
        squeeze = SymplecticTransform(np.diag([2.0, 0.5]))
        with pytest.raises(ValueError):
            squeeze.apply(vacuum(2))


@pytest.mark.parametrize("build, message", [
    (lambda: squeezed_vacuum(math.nan), "squeezing parameter r"),
    (lambda: squeezed_vacuum(math.inf), "squeezing parameter r"),
    (lambda: squeezed_vacuum(400.0), "squeezing parameter r"),
    (lambda: ChannelSpec(0.9, math.nan), "excess noise"),
    (lambda: ChannelSpec(0.9, math.inf), "excess noise"),
    (lambda: build_kn_state(2, 0.5, dict.fromkeys(["B1", "B2"], ChannelSpec(0.9)),
                            chain_topology(2), cz_weight=math.nan), "coupling weight"),
    (lambda: build_kn_state(2, 0.5, dict.fromkeys(["B1", "B2"], ChannelSpec(0.9)),
                            chain_topology(2), cz_weight=-math.inf), "coupling weight"),
    (lambda: SymplecticTransform(np.full((2, 2), math.nan)), "not symplectic"),
], ids=["r-nan", "r-inf", "r-overflow", "noise-nan", "noise-inf", "weight-nan",
        "weight-inf", "matrix-nan"])
def test_non_finite_parameters_rejected(build, message):
    # NaN fails every comparison, so a plain range check lets it through.
    with pytest.raises(ValueError, match=message):
        build()
