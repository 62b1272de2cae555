"""Monte Carlo simulation of the measurement protocol.

Each round, every party homodynes one randomly chosen quadrature of its
mode. Rounds whose basis pattern matches the layout's key pattern (dealer
measures x, players measure their announced-x quadratures) or check
pattern (the conjugate choices) are kept; a seeded random subset of each
is publicly revealed and drives the parameter-estimation regressions whose
residual variances feed :func:`cvqss.keyrate.combine`, the one rate
reduction (an array reduction, which the analytic bounds also use). The
remaining sifted key rounds are counted as raw key material (reconciliation
and privacy amplification are out of scope; the report exposes everything
such a stage would need).

Simulation device, not physics: :func:`run_protocol` draws the key,
check and other round counts from one multinomial law, then outcomes only
for the revealed key and check rounds. Each such row is a joint sample of
the m quadratures its pattern measures, from their marginal of the state's
multivariate normal; rounds are independent, so the rows have the law of a
uniformly chosen revealed subset. Nothing reads the outcomes of other
rounds, so they stay counts (unrevealed key rounds are the raw key).

A pattern's regressions share the Gram matrix of its revealed design
(intercept, dealer, players) and its delete-one-group jackknife versions:
each structure is one batched solve on sub-blocks of them (:func:`_fit`).

Determinism contract: a protocol run is a pure function of (state,
layout, scheme, rounds, reveal fraction, basis probability, seed, beta).
One PCG64 stream seeded with ``seed`` draws, in this order, the pattern
counts, the revealed key rows and the revealed check rows.
"""

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .estimation import JointVariable
from .gaussian import (BONA_FIDE_TOL, EIGENVALUE_CLIP, VACUUM_VARIANCE, GaussianState,
                       Quadrature, UnphysicalStateError, validate)
from .keyrate import KeyRateReport, ThresholdScheme, _structure_labels, combine, keyrate_qss
from .states import PartyLayout

#: Minimum sifted rounds required for a regression.
MIN_SIFTED_ROUNDS = 100

#: Groups of the delete-one-group jackknife on a residual variance.
JACKKNIFE_GROUPS = 50

#: Most cells (revealed rows x columns) of one pattern's design, each 8 bytes.
MAX_DESIGN_CELLS = 5 * 10**7


class UndersampledError(RuntimeError):
    """Too few sifted rounds for a requested regression.

    ``rounds_needed`` is the number of protocol rounds at which the
    expected count of such rounds reaches ``required``.
    """

    def __init__(self, available: int, rounds_needed: int):
        self.available = available
        self.rounds_needed = rounds_needed
        self.required = MIN_SIFTED_ROUNDS
        super().__init__(
            f"only {available} sifted rounds match the required bases "
            f"(need >= {MIN_SIFTED_ROUNDS}, expected from about {rounds_needed} rounds)")


def _pattern_probability(required: Mapping, basis_probability: float) -> float:
    """Chance that every listed party measures its required basis in a round."""
    xs = sum(basis == "x" for basis in required.values())
    return basis_probability ** xs * (1.0 - basis_probability) ** (len(required) - xs)


def _check_sampling(state: GaussianState, rounds: int, basis_probability: float) -> None:
    """Reject a non-positive round count, a basis probability outside (0, 1)
    and a state that :func:`~cvqss.gaussian.validate` calls unphysical."""
    if rounds < 1:
        raise ValueError("need at least one round")
    if not 0.0 < basis_probability < 1.0:
        raise ValueError("basis probability must lie strictly inside (0, 1)")
    diagnostics = validate(state)
    if not diagnostics.physical:
        min_nu = diagnostics.min_symplectic_eigenvalue
        raise UnphysicalStateError(
            f"cannot sample a non-bona-fide state (min symplectic eigenvalue {min_nu:.6g})"
            if min_nu < VACUUM_VARIANCE - BONA_FIDE_TOL else
            f"covariance matrix has a negative eigenvalue below -{EIGENVALUE_CLIP:g}")


@dataclass(frozen=True)
class EmpiricalConditioning:
    """Regression estimate of a conditional variance."""

    variance: float
    gains: JointVariable
    standard_error: float
    gain_standard_errors: Mapping
    rounds_used: int


def _jackknife_grams(design: np.ndarray) -> tuple:
    """Gram matrices of a design over all rows and with each group left out.

    The groups are min(JACKKNIFE_GROUPS, N // 2) contiguous, near-equal
    blocks of the N rows. Returns ``(grams, rows)``: ``grams[0]`` is
    ``design.T @ design``, ``grams[1 + g]`` the same without group g, and
    ``rows`` the matching row counts.
    """
    blocks = np.array_split(design, min(JACKKNIFE_GROUPS, len(design) // 2))
    gram = design.T @ design
    grams = np.stack([gram] + [gram - block.T @ block for block in blocks])
    rows = np.array([len(design)] + [len(design) - len(block) for block in blocks])
    return grams, rows


def _fit(grams: np.ndarray, rows: np.ndarray, target_basis: Quadrature,
         columns: Mapping) -> EmpiricalConditioning:
    """Least-squares fit of design column 1 on the intercept and ``columns``.

    ``columns`` maps each estimator party to its design column; column 0 is
    the intercept. The full-sample fit and every delete-one-group refit are
    one batched solve on sub-blocks of ``grams`` (see
    :func:`_jackknife_grams`). The residual variance uses 1/(N - d) with d
    fitted parameters; its standard error is the grouped jackknife, and the
    gains' errors are the usual OLS coefficient errors.
    """
    c = np.array([0, *columns.values()])
    d = len(c)
    gram = grams[:, c[:, None], c]
    moment = grams[:, c, 1]
    coeffs = np.linalg.solve(gram, moment[..., None])[..., 0]
    estimates = (grams[:, 1, 1] - (coeffs * moment).sum(axis=1)) / (rows - d)
    variance, jackknife = float(estimates[0]), estimates[1:]
    groups = len(jackknife)
    se = math.sqrt((groups - 1) / groups * float(np.sum((jackknife - jackknife.mean()) ** 2)))
    gain_se = np.sqrt(variance * np.diag(np.linalg.inv(gram[0])))[1:]
    return EmpiricalConditioning(
        variance=variance,
        gains=JointVariable(target_basis, dict(zip(columns, coeffs[0, 1:]))),
        standard_error=se,
        gain_standard_errors=dict(zip(columns, gain_se)),
        rounds_used=int(rows[0]),
    )


@dataclass(frozen=True)
class ProtocolReport:
    """Side-by-side empirical and analytic view of one protocol run."""

    rounds: int
    seed: int
    basis_probability: float
    reveal_fraction: float
    sifted_counts: Mapping
    key_pattern: str
    check_pattern: str
    revealed_key_rounds: int
    revealed_check_rounds: int
    raw_key_length: int
    dealer_x_variance: float
    inference_x: EmpiricalConditioning
    inference_p: EmpiricalConditioning
    access_variance: Mapping
    adversarial_variance: Mapping
    access_mutual_information: Mapping
    adversarial_holevo: Mapping
    combined_rate: float
    combined_rate_standard_error: float
    eavesdropping_rate: float
    analytic: KeyRateReport
    secure: bool


def _required_bases(layout: PartyLayout, dealer_basis: Quadrature) -> dict:
    required = {layout.dealer_mode: dealer_basis}
    for player in layout.player_modes:
        required[player] = layout.announced_coordinate(player, dealer_basis)[1]
    return required


def _revealed_designs(state: GaussianState, patterns: Sequence, rounds: int,
                      reveal_fraction: float, basis_probability: float,
                      seed: int) -> tuple:
    """Pattern counts, then outcomes of the revealed rounds of each pattern.

    ``patterns`` holds two party -> basis maps, the key and the check
    pattern. Returns ``(counts, designs)``: ``counts`` is the number of
    rounds on the first pattern, the second and any other; ``designs[i]``
    has a row (1, outcome of party 1, ...) per revealed round of pattern i,
    parties in the map's order. Raises UndersampledError before any
    Gaussian draw when a pattern reveals fewer than MIN_SIFTED_ROUNDS, and
    ValueError when its design would exceed MAX_DESIGN_CELLS.
    """
    probabilities = [_pattern_probability(required, basis_probability)
                     for required in patterns]
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(
        rounds, probabilities + [max(0.0, 1.0 - sum(probabilities))]).tolist()
    revealed = [int(round(reveal_fraction * count)) for count in counts[:2]]
    if min(revealed) < MIN_SIFTED_ROUNDS:
        raise UndersampledError(min(revealed), math.ceil(
            MIN_SIFTED_ROUNDS / (reveal_fraction * min(probabilities))))
    for required, count in zip(patterns, revealed):
        if count * (1 + len(required)) > MAX_DESIGN_CELLS:
            raise ValueError(
                f"{rounds} rounds reveal {count} rows of {1 + len(required)} columns on "
                f"one pattern, over the budget of {MAX_DESIGN_CELLS} design cells")

    designs = []
    for required, count in zip(patterns, revealed):
        idx = [state.quad_index(party, basis) for party, basis in required.items()]
        eigval, eigvec = np.linalg.eigh(state.cov[np.ix_(idx, idx)])
        # F @ F.T is the marginal covariance, rounding debris clipped to zero.
        factor = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
        design = np.ones((count, 1 + len(idx)))
        design[:, 1:] = rng.standard_normal((count, len(idx))) @ factor.T + state.mean[idx]
        designs.append(design)
    return counts, designs


def run_protocol(
    state: GaussianState,
    layout: PartyLayout,
    scheme: ThresholdScheme,
    rounds: int,
    reveal_fraction: float = 0.5,
    seed: int = 0,
    basis_probability: float = 0.5,
    beta: float = 1.0,
) -> ProtocolReport:
    """Simulate sampling, sifting and parameter estimation end to end.

    The revealed fraction of each sifted pattern feeds the regressions;
    the fitted conditional variances take the analytic second moments'
    reduction, :func:`~cvqss.keyrate.combine`, and both are reported. The
    run is reproducible bit for bit from (state, configuration, seed).
    """
    if not 0.0 < reveal_fraction <= 1.0:
        raise ValueError("reveal fraction must lie in (0, 1]")
    layout.check_state(state)
    if scheme.n != layout.num_players:
        raise ValueError(f"scheme expects {scheme.n} players but the layout has "
                         f"{layout.num_players}")
    _check_sampling(state, rounds, basis_probability)

    key_required = _required_bases(layout, "x")
    check_required = _required_bases(layout, "p")
    key_pattern = "".join(key_required[label] for label in state.labels)
    check_pattern = "".join(check_required[label] for label in state.labels)
    (key_count, check_count, other), (key_design, check_design) = _revealed_designs(
        state, (key_required, check_required), rounds, reveal_fraction,
        basis_probability, seed)

    # Design column of each player: 0 is the intercept, 1 the dealer.
    column = {player: j for j, player in enumerate(layout.player_modes, start=2)}
    key_grams = _jackknife_grams(key_design)
    check_grams = _jackknife_grams(check_design)
    inference_x = _fit(*key_grams, "x", column)
    inference_p = _fit(*check_grams, "p", column)
    dealer_x_var = float(np.var(key_design[:, 1], ddof=1))

    access_labels, adversarial_labels, honest_labels = _structure_labels(layout, scheme)
    access_fits = [_fit(*key_grams, "x", {p: column[p] for p in group})
                   for group in access_labels]
    adversarial_fits = [_fit(*check_grams, "p", {p: column[p] for p in group})
                        for group in honest_labels]
    bound = combine(dealer_x_var, [fit.variance for fit in access_fits],
                    [fit.variance for fit in adversarial_fits], beta)

    # Delta-method error on the combined rate at the binding structures; the
    # x- and p-pattern rounds are disjoint, so the two terms are independent.
    vx = access_fits[bound.binding_access]
    vp = adversarial_fits[bound.binding_adversarial]
    dealer_var_se = dealer_x_var * math.sqrt(2.0 / (vx.rounds_used - 1))
    scale = 1.0 / (2.0 * math.log(2.0))
    combined_se = math.sqrt(
        (beta * scale * vx.standard_error / vx.variance) ** 2
        + (scale * vp.standard_error / vp.variance) ** 2
        + ((beta - 1.0) * scale * dealer_var_se / dealer_x_var) ** 2)

    eavesdropping = float(combine(dealer_x_var, [inference_x.variance],
                                  [inference_p.variance], beta).rate)
    analytic = keyrate_qss(state, layout, scheme, beta=beta)

    return ProtocolReport(
        rounds=rounds,
        seed=seed,
        basis_probability=basis_probability,
        reveal_fraction=reveal_fraction,
        sifted_counts={key_pattern: key_count, check_pattern: check_count,
                       "other": other},
        key_pattern=key_pattern,
        check_pattern=check_pattern,
        revealed_key_rounds=len(key_design),
        revealed_check_rounds=len(check_design),
        raw_key_length=key_count - len(key_design),
        dealer_x_variance=dealer_x_var,
        inference_x=inference_x,
        inference_p=inference_p,
        access_variance=dict(zip(access_labels, access_fits)),
        adversarial_variance=dict(zip(adversarial_labels, adversarial_fits)),
        access_mutual_information=dict(zip(access_labels, bound.access_bits.tolist())),
        adversarial_holevo=dict(zip(adversarial_labels, bound.adversarial_holevo.tolist())),
        combined_rate=float(bound.rate),
        combined_rate_standard_error=combined_se,
        eavesdropping_rate=eavesdropping,
        analytic=analytic,
        secure=bool(bound.rate - 3.0 * combined_se > 0.0),
    )
