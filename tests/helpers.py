"""Shared state builders and independent closed-form oracles for the tests.

The oracles are derived by hand from 2x2/4x4 moment propagation so the
tests never trust the code path they are checking. ``schur_loop`` is the
exception: it calls the inference kernel one row at a time, so it checks
batching, and ``dishonest_rate_loop`` and ``sweep_loop`` infer through it.
``revealed_designs`` is the row sampler: it draws every revealed design
row, the oracle for the library's sufficient-statistics sampler, with
``design_scatter`` the scatter about the mean ``run_protocol`` reads from
them and ``structure_fit`` the per-structure reference for its batched fit.
``revealed_design`` draws from it, and ``fit_design`` runs the library's own
fit on the result, which the closed-form oracles then check.
``dishonest_rate_loop`` reduces its loop inferences with the library's
``combine``, so it checks the inference, not the reduction.
``conditional_variance_fixed`` is the fixed-gain formula, an inference that
takes its gains as given instead of optimising them.
``bisect_root`` locates the zero crossings the tests pin.
``star_closed_forms`` gives a uniform star's conditional variances exactly,
at 50 digits, from Sherman-Morrison. ``chain_sweep_row`` gives the (2, 2)
chain's sweep columns exactly, from ``chain_expected_variances`` in mpmath.
``jsonable`` is the conversion ``cvqss.jsontext.json_text`` must reproduce,
as ``json.dumps(jsonable(value), indent=2)``. ``label_table`` is the
threshold table written one label text at a time, the reference for
``cvqss.cli._table``.

The gate-by-gate oracle for ``cvqss.build_kn_state`` lives here too: the
``vacuum`` and ``squeezed_vacuum`` states, one ``SymplecticTransform`` per
gate (``cz_transform``, ``apply_cz``), checked against ``symplectic_form``,
and ``pure_loss``'s dilation through ``tensor``, ``apply_beamsplitter`` and
``partial_trace``, each making a new ``GaussianState``. ``kn_state_loop`` chains them; the library builds the
same covariance in closed form, and both must lie within a few roundings of
the 50-digit ``kn_state_exact``. ``variance``
and ``covariance`` read one state's moments by (mode, quadrature), and
``pure`` reads a ``cvqss.validate`` report.
"""

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields, is_dataclass
from itertools import combinations

import mpmath
import numpy as np

from cvqss import (
    ChannelSpec,
    GaussianState,
    JointVariable,
    StateDiagnostics,
    build_kn_state,
    chain_topology,
    star_topology,
)
from cvqss import simulation
from cvqss.estimation import schur
from cvqss.gaussian import VACUUM_VARIANCE, _check_quadrature, _squeezed_covariance
from cvqss.keyrate import ThresholdScheme, combine

#: Absolute variance below which a fixed estimator is considered degenerate.
DEGENERATE_VARIANCE_TOL = 1e-12


class DegenerateEstimatorError(ValueError):
    """Raised when a fixed estimator has (numerically) zero variance."""


#: Tolerance for the symplectic-invariance check S Omega S^T = Omega.
SYMPLECTIC_TOL = 1e-12


def symplectic_form(num_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form with 2x2 blocks [[0, 1], [-1, 0]]."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(num_modes), block)


def vacuum(num_modes: int, labels: Sequence | None = None) -> GaussianState:
    """The ``num_modes``-mode vacuum: cov = (1/2) identity."""
    if num_modes < 1:
        raise ValueError("need at least one mode")
    if labels is None:
        labels = tuple(f"m{i}" for i in range(num_modes))
    dim = 2 * num_modes
    return GaussianState(VACUUM_VARIANCE * np.eye(dim), labels)


def squeezed_vacuum(r, squeezed_quadrature: str = "p", label="m0") -> GaussianState:
    """Single-mode squeezed vacuum with squeezing parameter ``r >= 0``: the squeezed
    quadrature has variance exp(-2r)/2, its conjugate exp(+2r)/2. An array of r values
    gives the stack of their states. r is checked by the library's squeezer.
    """
    cov = _squeezed_covariance(r)  # p-squeezed
    if _check_quadrature(squeezed_quadrature) == "x":
        cov = cov[..., ::-1, ::-1]  # the diagonal swapped
    return GaussianState(cov, (label,))


def variance(state: GaussianState, label, quadrature: str) -> float:
    """One state's variance of a (mode, quadrature) coordinate."""
    i = state.quad_index(label, quadrature)
    return float(state._single_cov()[i, i])


def covariance(state: GaussianState, coord_a: tuple, coord_b: tuple) -> float:
    """One state's covariance between two (mode, quadrature) coordinates."""
    return float(state._single_cov()[state.quad_index(*coord_a), state.quad_index(*coord_b)])


def pure(diagnostics: StateDiagnostics) -> bool:
    """Whether a ``cvqss.validate`` report describes a physical pure state."""
    return diagnostics.physical and diagnostics.purity >= 1.0 - 1e-9


@dataclass(frozen=True)
class SymplecticTransform:
    """A linear map on quadratures: cov -> S cov S^T.

    The constructor rejects matrices that fail the symplectic invariant
    ``S Omega S^T = Omega`` beyond :data:`SYMPLECTIC_TOL`.
    """

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] % 2:
            raise ValueError(f"symplectic matrix must be 2m x 2m, got {matrix.shape}")
        omega = symplectic_form(matrix.shape[0] // 2)
        residual = np.abs(matrix @ omega @ matrix.T - omega).max()
        if not residual <= SYMPLECTIC_TOL:  # a NaN residual fails too
            raise ValueError(f"matrix is not symplectic (residual {residual:.3e})")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    def apply(self, state: GaussianState) -> GaussianState:
        if self.matrix.shape[0] != 2 * len(state.labels):
            raise ValueError("transform dimension does not match the state")
        s = self.matrix
        return GaussianState(s @ state.cov @ s.T, state.labels)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state of two Gaussian states with disjoint mode labels."""
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise ValueError(f"mode labels collide: {sorted(overlap, key=str)}")
    dim_a, dim_b = 2 * len(a.labels), 2 * len(b.labels)
    stack = max(a.cov.shape[:-2], b.cov.shape[:-2], key=len)  # one may be a single state
    cov = np.zeros(stack + (dim_a + dim_b, dim_a + dim_b))
    cov[..., :dim_a, :dim_a] = a.cov
    cov[..., dim_a:, dim_a:] = b.cov
    return GaussianState(cov, a.labels + b.labels)


def _embed_pair(state: GaussianState, i, j, block: np.ndarray) -> SymplecticTransform:
    """Lift a 4x4 two-mode symplectic block acting on modes (i, j)."""
    idx = [state.quad_index(i, "x"), state.quad_index(i, "p"),
           state.quad_index(j, "x"), state.quad_index(j, "p")]
    full = np.eye(2 * len(state.labels))
    for a, ia in enumerate(idx):
        for b, ib in enumerate(idx):
            full[ia, ib] = block[a, b]
    return SymplecticTransform(full)


def cz_transform(state: GaussianState, i, j, weight: float) -> SymplecticTransform:
    """Symplectic matrix of the x-x coupling gate between modes i and j.

    Heisenberg action: p_i -> p_i + weight * x_j, p_j -> p_j + weight * x_i,
    positions unchanged.
    """
    if i == j:
        raise ValueError("coupling gate needs two distinct modes")
    if not math.isfinite(weight):
        raise ValueError(f"coupling weight must be finite, got {weight}")
    block = np.eye(4)
    block[1, 2] = weight
    block[3, 0] = weight
    return _embed_pair(state, i, j, block)


def apply_cz(state: GaussianState, i, j, weight: float) -> GaussianState:
    return cz_transform(state, i, j, weight).apply(state)


def beamsplitter_transform(state: GaussianState, i, j,
                           transmissivity: float) -> SymplecticTransform:
    """Symplectic matrix of a beam splitter with cos(theta) = sqrt(T).

    Sign convention: the reflected port carries the minus sign on mode j,
    i.e. x_i -> sqrt(T) x_i + sqrt(1-T) x_j and
    x_j -> -sqrt(1-T) x_i + sqrt(T) x_j (same for p), so T = 0 swaps the
    modes up to a sign on mode j.
    """
    if i == j:
        raise ValueError("beam splitter needs two distinct modes")
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {transmissivity}")
    c = math.sqrt(transmissivity)
    s = math.sqrt(1.0 - transmissivity)
    block = np.array([
        [c, 0.0, s, 0.0],
        [0.0, c, 0.0, s],
        [-s, 0.0, c, 0.0],
        [0.0, -s, 0.0, c],
    ])
    return _embed_pair(state, i, j, block)


def apply_beamsplitter(state: GaussianState, i, j, transmissivity: float) -> GaussianState:
    return beamsplitter_transform(state, i, j, transmissivity).apply(state)


def partial_trace(state: GaussianState, keep: Sequence) -> GaussianState:
    """Reduced state on ``keep``, preserving the original mode order."""
    keep_set = set(keep)
    if not keep_set:
        raise ValueError("keep-set must be nonempty")
    unknown = keep_set - set(state.labels)
    if unknown:
        raise ValueError(f"unknown modes in keep-set: {sorted(unknown, key=str)}")
    kept_labels = tuple(lab for lab in state.labels if lab in keep_set)
    idx = []
    for lab in kept_labels:
        idx.extend([state.quad_index(lab, "x"), state.quad_index(lab, "p")])
    idx = np.array(idx)
    return GaussianState(state.cov[..., idx[:, None], idx], kept_labels)


def pure_loss(state: GaussianState, mode, spec: ChannelSpec) -> GaussianState:
    """Send one mode through an attenuating channel.

    Implemented by dilation: couple the mode to a vacuum ancilla on a beam
    splitter of transmissivity T, discard the ancilla, then add the excess
    noise to the mode's covariance block. Its diagonal variances map to
    T*V + (1-T)/2 + excess_noise.
    """
    state.mode_index(mode)  # raises on unknown mode
    ancilla = "_loss_ancilla"
    while ancilla in state.labels:
        ancilla += "_"
    dilated = tensor(state, vacuum(1, labels=(ancilla,)))
    mixed = apply_beamsplitter(dilated, mode, ancilla, spec.transmissivity)
    out = partial_trace(mixed, state.labels)
    if spec.excess_noise > 0.0:
        i = out.quad_index(mode, "x")
        cov = np.array(out.cov)
        cov[..., i, i] += spec.excess_noise
        cov[..., i + 1, i + 1] += spec.excess_noise
        out = GaussianState(cov, out.labels)
    return out


def two_mode_squeezed(r: float, labels=("A", "B")) -> GaussianState:
    """Two-mode squeezed vacuum from two squeezers on a balanced splitter.

    Quadrature moments (vacuum variance 1/2): diagonal cosh(2r)/2, x-x
    correlation +sinh(2r)/2, p-p correlation -sinh(2r)/2.
    """
    mode_a = squeezed_vacuum(r, "x", label=labels[0])
    mode_b = squeezed_vacuum(r, "p", label=labels[1])
    return apply_beamsplitter(tensor(mode_a, mode_b), labels[0], labels[1], 0.5)


def tmsv_conditional_variance(r: float) -> float:
    """Closed form for V(X_A | X_B) on the two-mode squeezed state."""
    return 1.0 / (2.0 * math.cosh(2.0 * r))


def product_vacuum(labels) -> GaussianState:
    """Uncorrelated vacua on the given labels."""
    dim = 2 * len(labels)
    return GaussianState(0.5 * np.eye(dim), tuple(labels))


def chain_expected_cov(r: float, transmissivity: float) -> np.ndarray:
    """Hand-propagated covariance of the lossy three-mode chain resource.

    p-squeezed inputs (V_x = a = exp(2r)/2, V_p = b = exp(-2r)/2), unit
    x-x gates on A-B and B-C, then loss T on B and C. Ordering
    (x_A, p_A, x_B, p_B, x_C, p_C).
    """
    a = 0.5 * math.exp(2.0 * r)
    b = 0.5 * math.exp(-2.0 * r)
    big_t = transmissivity
    t = math.sqrt(big_t)
    vac = 0.5 * (1.0 - big_t)

    cov = np.zeros((6, 6))
    cov[0, 0] = a                                # x_A
    cov[1, 1] = a + b                            # p_A = p0_A + x_B
    cov[2, 2] = big_t * a + vac                  # x_B
    cov[3, 3] = big_t * (b + 2 * a) + vac        # p_B = p0_B + x_A + x_C
    cov[4, 4] = big_t * a + vac                  # x_C
    cov[5, 5] = big_t * (a + b) + vac            # p_C = p0_C + x_B
    cov[0, 3] = cov[3, 0] = t * a                # (x_A, p_B)
    cov[1, 2] = cov[2, 1] = t * a                # (p_A, x_B)
    cov[1, 5] = cov[5, 1] = t * a                # (p_A, p_C), common x_B
    cov[2, 5] = cov[5, 2] = big_t * a            # (x_B, p_C)
    cov[3, 4] = cov[4, 3] = big_t * a            # (p_B, x_C)
    return cov


def _solve22(g11, g12, g22, c1, c2) -> float:
    """c^T Gamma^{-1} c for a symmetric 2x2 block, written out explicitly."""
    det = g11 * g22 - g12 * g12
    return (c1 * (g22 * c1 - g12 * c2) + c2 * (g11 * c2 - g12 * c1)) / det


def chain_expected_variances(r, transmissivity) -> dict:
    """Closed forms for the four inference variances on the chain resource.

    The dealer's x is inferred from (p_B, x_C) announced in key rounds; the
    dealer's p from (x_B, p_C) announced in check rounds; the dishonest
    bounds restrict to the single honest coordinate. Floats give floats;
    mpmath numbers give mpmath numbers at the working precision.
    """
    exp, sqrt = (mpmath.exp, mpmath.sqrt) if isinstance(r, mpmath.mpf) else (math.exp, math.sqrt)
    a = 0.5 * exp(2.0 * r)
    b = 0.5 * exp(-2.0 * r)
    big_t = transmissivity
    t = sqrt(big_t)
    vac = 0.5 * (1.0 - big_t)

    v_x = a - _solve22(big_t * (b + 2 * a) + vac, big_t * a, big_t * a + vac,
                       t * a, 0.0)
    v_p = (a + b) - _solve22(big_t * a + vac, big_t * a,
                             big_t * (a + b) + vac, t * a, t * a)
    v_p_given_c = (a + b) - (t * a) ** 2 / (big_t * (a + b) + vac)
    v_p_given_b = (a + b) - (t * a) ** 2 / (big_t * a + vac)
    return {
        "v_x_given_all": v_x,
        "v_p_given_all": v_p,
        "v_p_given_c_only": v_p_given_c,
        "v_p_given_b_only": v_p_given_b,
    }


def chain_sweep_row(r: float, transmissivity: float, digits: int = 60) -> dict:
    """The (2, 2) chain's computed sweep columns at (r, T), exact to ``digits``.

    ``chain_expected_variances`` evaluated in mpmath from the exact binary
    inputs, and reduced as ``combine`` reduces them: I = log2(V / v) / 2 and
    chi = log2(e) + log2(V u) / 2 with V = e^{2r}/2, u the all-player p
    variance for K_eve and the larger single-honest-player one for K_qss.
    """
    with mpmath.workdps(digits):
        r, transmissivity = mpmath.mpf(r), mpmath.mpf(transmissivity)
        forms = chain_expected_variances(r, transmissivity)
        v_x, v_p = forms["v_x_given_all"], forms["v_p_given_all"]
        honest_max = max(forms["v_p_given_c_only"], forms["v_p_given_b_only"])
        dealer = mpmath.exp(2 * r) / 2
        info = mpmath.log(dealer / v_x, 2) / 2
        holevo = [mpmath.log(mpmath.e, 2) + mpmath.log(dealer * u, 2) / 2
                  for u in (v_p, honest_max)]
        return {"K_eve": info - holevo[0], "K_qss": info - holevo[1], "V_xa_given_xbar": v_x,
                "V_pa_given_pbar": v_p, "V_pa_given_honest_max": honest_max, "E_ABC": v_x * v_p}


@dataclass(frozen=True)
class StarForms:
    """A uniform star's dealer variances (mpmath numbers; m, h index 0..n).

    ``x[m]`` is V(x_A | m players' announced x), ``p[h]`` is V(p_A | h honest
    players' announced p), ``v_x`` and ``v_p`` are the unconditional
    variances, and ``kappa_x[m]`` is the condition number of the m-player
    x estimator block.
    """

    x: list
    p: list
    v_x: object
    v_p: object
    kappa_x: list


def star_closed_forms(n: int, r: float, transmissivity: float, excess_noise: float = 0.0,
                      cz_weight: float = 1.0, digits: int = 50) -> StarForms:
    """Exact conditional variances of the dealer on an n-player star with one channel.

    With X = e^{2r}/2, P = e^{-2r}/2, e = (1-T)/2 + xi, d = T P + e and
    b = T g^2 X, every player is conjugate, and m players' announced x
    (physical p) have the block d I + b J and covariance sqrt(T) g X with x_A.
    Sherman-Morrison gives V(x_A | m) = X d / (d + m b). Each honest player's
    announced p (physical x) sees its g x term through the channel alone, so
    V(p_A | h) = P + g^2 (n - h) X + g^2 h X e / (T X + e). Positive terms
    only, so nothing cancels; the inputs are read as exact binary values.
    """
    with mpmath.workdps(digits):
        r, t, xi, g = map(mpmath.mpf, (r, transmissivity, excess_noise, cz_weight))
        big_x, big_p = mpmath.exp(2 * r) / 2, mpmath.exp(-2 * r) / 2
        e = (1 - t) / 2 + xi
        d, b = t * big_p + e, t * g ** 2 * big_x
        return StarForms(
            x=[big_x * d / (d + m * b) for m in range(n + 1)],
            p=[big_p + g ** 2 * (n - h) * big_x + g ** 2 * h * big_x * e / (t * big_x + e)
               for h in range(n + 1)],
            v_x=big_x,
            v_p=big_p + n * g ** 2 * big_x,
            kappa_x=[(d + m * b) / d for m in range(n + 1)],
        )


def bisect_root(f, lo: float, hi: float, xtol: float = 1e-13) -> float:
    """A zero of ``f`` in [lo, hi], where f(lo) and f(hi) differ in sign, to within ``xtol``."""
    lo_positive = f(lo) > 0.0
    if lo_positive == (f(hi) > 0.0):
        raise ValueError(f"f({lo}) and f({hi}) have the same sign")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def schur_loop(cov: np.ndarray, target_idx: int, estimator_idx) -> tuple:
    """One one-row ``schur`` call per estimator set, in a Python loop.

    The unbatched reference for ``cvqss.estimation.schur`` on one matrix: its
    return values as (variances, gains, target variance), each row from a lone
    one-row call. It checks that batching moves no bit; the closed forms and
    the 50-digit solves check the arithmetic.
    """
    variances, gains = [], []
    for row in np.asarray(estimator_idx):
        (v,), v_target, (g,) = schur(cov, target_idx, [row])
        variances.append(v)
        gains.append(g)
    return np.array(variances), np.array(gains), v_target


def dishonest_rate_loop(state, layout, player) -> float:
    """The bound with ``player`` alone dishonest, from :func:`schur_loop` inferences.

    The dealer's x is inferred from every player's announced x outcome and
    the dealer's p from the other players' announced p outcomes; ``combine``
    reduces the two to the rate.
    """
    def infer(basis, players):
        announced = [state.quad_index(*coord)
                     for coord in layout.announced_coordinates(players, basis)]
        return schur_loop(state.cov, state.quad_index(layout.dealer_mode, basis), [announced])

    v_x, _, dealer_x = infer("x", layout.player_modes)
    v_p, _, _ = infer("p", [p for p in layout.player_modes if p != player])
    return combine(dealer_x, v_x, v_p).rate


def conditional_variance_fixed(state, target, estimator) -> float:
    """Inference variance of a target given a *fixed* joint variable.

    Returns Var(target) - Cov(target, est)^2 / Var(est) for the scalar
    estimator est = sum_j gains[j] * (quadrature of mode j), with the
    ``JointVariable`` ``estimator`` giving the gains and the quadrature.
    """
    cov = state.cov
    g = np.array(list(estimator.gains.values()), dtype=float)
    t_idx = state.quad_index(*target)
    e_idx = np.array([state.quad_index(mode, estimator.quadrature) for mode in estimator.gains])
    var_est = float(g @ cov[np.ix_(e_idx, e_idx)] @ g)
    if var_est <= DEGENERATE_VARIANCE_TOL:
        raise DegenerateEstimatorError(f"estimator variance {var_est:.3e} is degenerate")
    cov_te = float(cov[t_idx, e_idx] @ g)
    return float(cov[t_idx, t_idx] - cov_te**2 / var_est)


def regression_loop(design, parties, estimators):
    """One least-squares fit on the design's rows.

    The per-structure reference for the shared-scatter regression kernel in
    ``cvqss.simulation``. ``design`` has columns (intercept, target, then
    ``parties`` in order); the target is fitted on the intercept and the
    ``estimators`` columns, through the design's QR factor, not its Gram
    matrix: an offset on the rows, which the intercept takes out, costs no
    digits. The residual variance's standard error is its chi-squared law's,
    v sqrt(2 / (N - d)) for N rows and d parameters.
    Returns (variance, gains, standard_error, gain_standard_errors,
    rounds_used), gains and their errors as party -> value dicts.
    """
    n = len(design)
    order = list(estimators)
    y = design[:, 1]
    design = design[:, [0] + [2 + list(parties).index(p) for p in order]]
    d = design.shape[1]

    q, r = np.linalg.qr(design)
    coeffs = np.linalg.solve(r, q.T @ y)
    residual = y - design @ coeffs
    variance = float(residual @ residual) / (n - d)
    # diag((X^T X)^-1) = diag(R^-1 R^-T), the squared rows of R^-1 summed.
    gain_se = np.sqrt(variance * (np.linalg.inv(r) ** 2).sum(axis=1))[1:]
    se = variance * math.sqrt(2.0 / (n - d))
    return (variance, dict(zip(order, coeffs[1:])), se, dict(zip(order, gain_se)), n)


def revealed_designs(state, patterns, rounds, reveal_fraction, basis_probability, seed,
                     offset=0.0):
    """Pattern counts, then outcomes of the revealed rounds of each pattern.

    Draws every revealed row, after the same multinomial count draw as
    ``cvqss.simulation``: the oracle its sufficient-statistics sampler is
    checked against.
    ``patterns`` holds two party -> basis maps, the key and the check
    pattern. Returns ``(counts, designs)``: ``counts`` is the number of
    rounds on the first pattern, the second and any other; ``designs[i]``
    has a row (1, outcome of party 1, ...) per revealed round of pattern i,
    parties in the map's order, each outcome plus ``offset``: a mean that no
    fit with an intercept may read. Raises UndersampledError before any
    Gaussian draw when a pattern reveals fewer than MIN_SIFTED_ROUNDS.
    """
    probabilities = [simulation._pattern_probability(required, basis_probability)
                     for required in patterns]
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(
        rounds, probabilities + [max(0.0, 1.0 - sum(probabilities))]).tolist()
    revealed = [int(round(reveal_fraction * count)) for count in counts[:2]]
    if min(revealed) < simulation.MIN_SIFTED_ROUNDS:
        raise simulation.UndersampledError(min(revealed), math.ceil(
            simulation.MIN_SIFTED_ROUNDS / (reveal_fraction * min(probabilities))))

    designs = []
    for required, count in zip(patterns, revealed):
        idx = [state.quad_index(party, basis) for party, basis in required.items()]
        eigval, eigvec = np.linalg.eigh(state.cov[np.ix_(idx, idx)])
        # F @ F.T is the marginal covariance, rounding debris clipped to zero.
        factor = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
        design = np.ones((count, 1 + len(idx)))
        design[:, 1:] = rng.standard_normal((count, len(idx))) @ factor.T + offset
        designs.append(design)
    return counts, designs


def design_scatter(design):
    """``cvqss.simulation._fit``'s ``(scatter, rows)`` for a design of N rows: the
    scatter of its columns after the intercept about their mean, and N."""
    centered = design[:, 1:] - design[:, 1:].mean(axis=0)
    return centered.T @ centered, len(design)


def structure_fit(scatter, rows, target_basis, columns):
    """One structure's fit on a shared scatter, the per-structure reference for
    ``cvqss.simulation._fit``, which batches every structure of a side.

    ``columns`` maps each estimator party to its scatter column; column 0 is
    the target. Returns an ``EmpiricalConditioning``.
    """
    c = np.array(list(columns.values()))
    dof = rows - len(c) - 1  # the intercept too
    block = scatter[c[:, None], c]
    moment = scatter[c, 0]
    coeffs = np.linalg.solve(block, moment)
    variance = float((scatter[0, 0] - (coeffs * moment).sum()) / dof)
    gain_se = np.sqrt(variance * np.diag(np.linalg.inv(block)))
    return simulation.EmpiricalConditioning(
        variance=variance,
        gains=JointVariable(target_basis, dict(zip(columns, coeffs))),
        standard_error=variance * math.sqrt(2.0 / dof),
        gain_standard_errors=dict(zip(columns, gain_se)),
        rounds_used=int(rows),
    )


def revealed_design(state, pattern, rounds, seed):
    """The design of every round that matches ``pattern`` (party -> basis).

    Drawn by the row oracle ``revealed_designs``: ``pattern`` is paired
    with its conjugate as the check pattern, and every matched round is
    revealed. Columns are (intercept, then parties in ``pattern`` order).
    """
    conjugate = {party: "p" if basis == "x" else "x" for party, basis in pattern.items()}
    _, (design, _) = revealed_designs(state, (pattern, conjugate), rounds, 1.0, 0.5, seed)
    return design


def fit_design(design, target_basis, estimators):
    """``run_protocol``'s shared-scatter fit of design column 1 on ``estimators``,
    the parties of columns 2, 3, ... in order."""
    estimators = list(estimators)
    (fit,) = simulation._fit(*design_scatter(design), target_basis,
                             np.arange(len(estimators))[None], [estimators])
    return fit


def kn_state_loop(r: float, specs: dict, edges, cz_weight: float = 1.0) -> GaussianState:
    """The cluster resource built one gate-by-gate oracle operation at a time.

    p-squeezed vacua on "A" and on each player of ``specs`` (in its order),
    an x-x gate on each edge, then each player's channel.
    """
    state = squeezed_vacuum(r, "p", label="A")
    for label in specs:
        state = tensor(state, squeezed_vacuum(r, "p", label=label))
    for a, b in edges:
        state = apply_cz(state, a, b, cz_weight)
    for label, spec in specs.items():
        state = pure_loss(state, label, spec)
    return state


def sweep_loop(n, k, topology, grid, transmissivities, excess_noise=0.0, cz_weight=1.0):
    """The ``cvqss sweep`` rows, one grid point and one Schur complement at a time.

    The per-point reference for the stacked sweep: every point's resource is
    a one-point ``build_kn_state`` (the build's exact oracle checks its
    arithmetic), every estimator set is inferred by :func:`schur_loop`, and
    the bounds are the closed forms ``log2(V / v) / 2`` and
    ``log2(e) + log2(V u) / 2``. ``topology`` is "chain" or "star". Rows
    follow ``SWEEP_HEADER``: (r, T, K_eve, K_qss, V(X_A | all x),
    V(P_A | all p), largest honest-side V(P_A | .), their product).
    """
    players = [f"B{i}" for i in range(1, n + 1)]
    edges = {"chain": chain_topology, "star": star_topology}[topology](n)
    # Players at odd graph distance from the dealer announce swapped labels.
    conjugate = [topology == "star" or i % 2 == 1 for i in range(1, n + 1)]
    swap = {"x": "p", "p": "x"}
    log2_e = math.log2(math.e)
    rows = []
    for transmissivity in transmissivities:
        spec = ChannelSpec(transmissivity, excess_noise)
        for r in map(float, grid):
            state, _ = build_kn_state(n, r, dict.fromkeys(players, spec), edges, cz_weight)

            def infer(basis, groups):
                announced = [state.quad_index(p, swap[basis] if c else basis)
                             for p, c in zip(players, conjugate)]
                sets = [[announced[j] for j in group] for group in groups]
                return schur_loop(state.cov, state.quad_index("A", basis), sets)[0]

            dealer = variance(state, "A", "x")
            v_x = infer("x", [range(n)])[0]
            v_p = infer("p", [range(n)])[0]
            access = infer("x", combinations(range(n), k))
            honest = infer("p", [[j for j in range(n) if j not in colluders]
                                 for colluders in combinations(range(n), k - 1)])

            def bits(v):
                return 0.5 * np.log2(dealer / np.array(v))

            def holevo(u):
                return log2_e + 0.5 * math.log2(dealer * u)

            k_eve = float(bits([v_x])[0]) - holevo(v_p)
            k_qss = float(bits(access).min()) - max(map(holevo, honest.tolist()))
            rows.append((r, transmissivity, k_eve, k_qss, v_x, v_p,
                         float(honest.max()), v_x * v_p))
    return rows


def jsonable(value):
    """``value`` as plain JSON-ready Python: the reference for ``cvqss.jsontext.json_text``.

    A copy of the tree: a ``ThresholdScheme`` becomes a dict of its k, n and
    the structure tuples it derives, other dataclasses dicts of their fields,
    mappings become dicts with string keys (:func:`json_key`), tuples become
    lists, numpy arrays and scalars become Python lists and numbers; anything
    else is left for ``json.dumps`` to encode or refuse.
    """
    if isinstance(value, ThresholdScheme):
        return {name: jsonable(getattr(value, name)) for name in
                ("k", "n", "access_structures", "adversarial_structures")}
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Mapping):
        return {json_key(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


def json_key(key):
    """A report key as a JSON object key: a tuple's items joined by "+", "(none)" if empty."""
    if isinstance(key, tuple):
        return "+".join(str(k) for k in key) or "(none)"
    return str(key)


def label_table(kind, terms, binding):
    """The threshold table's lines, one per structure of the per-structure map ``terms``,
    each label's "{B1,B2,...}" text left-justified to 18 characters on its own: the
    reference for ``cvqss.cli._table``, which writes the labels as position columns."""
    texts = ["{" + ",".join(players) + "}" for players in
             np.array(terms.names, dtype=object)[terms.rows].tolist()]
    ends = ["  \n"] * len(texts)
    ends[texts.index("{" + ",".join(binding) + "}")] = "  *\n"
    lines = [f"{kind:<12} {text.ljust(18)} {value:>16.12g}{end}"
             for text, value, end in zip(texts, terms.array.tolist(), ends)]
    return "".join(lines)[:-1]


def kn_state_exact(r: float, specs: dict, edges, cz_weight: float = 1.0,
                   digits: int = 50) -> list:
    """The cluster resource's covariance at ``digits`` digits, as rows of mpf.

    Modes "A" then the players of ``specs``, in order. The gates' product S,
    which is I + g E, is formed one gate at a time (p_a gains g x_b's row and
    p_b g x_a's), then cov = S diag(V_x, V_p, ...) S^T, each player's rows
    and columns scale by sqrt(T) and its diagonal gains (1 - T)/2 + xi. The
    inputs are read as exact binary values.
    """
    labels = ["A", *specs]
    dim = 2 * len(labels)
    with mpmath.workdps(digits):
        r, g = mpmath.mpf(r), mpmath.mpf(cz_weight)
        squeezed = [mpmath.exp(2 * r) / 2, mpmath.exp(-2 * r) / 2] * len(labels)
        rows = [{k: mpmath.mpf(1)} for k in range(dim)]  # S's nonzero entries per row
        for a, b in edges:
            i, j = 2 * labels.index(a), 2 * labels.index(b)
            for p_row, x_row in ((rows[i + 1], rows[j]), (rows[j + 1], rows[i])):
                for k, value in x_row.items():
                    p_row[k] = p_row.get(k, 0) + g * value
        scale = [mpmath.mpf(1)] * 2 + [mpmath.sqrt(specs[label].transmissivity)
                                       for label in specs for _ in "xp"]
        cov = [[scale[i] * scale[j] * sum(value * squeezed[k] * rows[j].get(k, 0)
                                          for k, value in rows[i].items())
                for j in range(dim)] for i in range(dim)]
        for m, label in enumerate(specs, start=1):
            spec = specs[label]
            for i in (2 * m, 2 * m + 1):
                cov[i][i] += (1 - mpmath.mpf(spec.transmissivity)) / 2 + spec.excess_noise
        return cov
