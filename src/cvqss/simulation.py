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
check and other round counts from one multinomial law, then only what the
regressions read of the revealed key and check rounds: each pattern's
scatter of its m measured quadratures about their mean, all that a fit with
an intercept reads of its rows (Frisch-Waugh-Lovell), so no fit depends on
the rows' mean. N iid N(mu, F F^T) rows have scatter F B B^T F^T, B the
Bartlett factor of a Wishart(N - 1, I) matrix (Odell and Feiveson, JASA 61,
199 (1966)). Drawing it gives the fits their rows' law in O(m^2) draws
whatever the round count; the fits batch one side's structures on
sub-blocks, SCHUR_BLOCK_ROWS at a time. The rows are Gaussian, so each
residual variance's error is its exact chi-squared law's, not resampled.

Determinism contract: a protocol run is a pure function of (state,
layout, scheme, rounds, reveal fraction, basis probability, seed).
One PCG64 stream seeded with ``seed`` draws, in this order, the pattern
counts, then for the key and then the check pattern: the sum's m normals
(unread, drawn to keep each seed's scatter), the m Bartlett chi-squares on
the diagonal, then the m(m - 1)/2 normals below it in row-major order.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .estimation import SCHUR_BLOCK_ROWS, JointVariable
from .gaussian import GaussianState, Quadrature, UnphysicalStateError, validate
from .keyrate import KeyRateReport, ThresholdScheme, _complements, _labels, combine, keyrate_qss
from .states import PartyLayout

#: Minimum sifted rounds required for a regression.
MIN_SIFTED_ROUNDS = 100

#: Most protocol rounds a run accepts: counts are int64.
_MAX_ROUNDS = int(np.iinfo(np.int64).max)


class UndersampledError(RuntimeError):
    """Too few sifted rounds for a requested regression.

    ``rounds_needed`` is the number of protocol rounds at which the
    expected count of such rounds reaches ``required``, or None when that
    number is beyond double precision. The message names it only up to the
    int64 cap on rounds that a run accepts.
    """

    def __init__(self, available: int, rounds_needed: int | None):
        self.available = available
        self.rounds_needed = rounds_needed
        self.required = MIN_SIFTED_ROUNDS
        expected = ("from more rounds than a double can count" if rounds_needed is None
                    else f"from more than {_MAX_ROUNDS} rounds" if rounds_needed > _MAX_ROUNDS
                    else f"from about {rounds_needed} rounds")
        super().__init__(f"only {available} sifted rounds match the required bases "
                         f"(need >= {MIN_SIFTED_ROUNDS}, expected {expected})")


def _pattern_probability(required: Mapping, basis_probability: float) -> float:
    """Chance that every listed party measures its required basis in a round."""
    xs = sum(basis == "x" for basis in required.values())
    return basis_probability ** xs * (1.0 - basis_probability) ** (len(required) - xs)


def _check_sampling(state: GaussianState, rounds: int, basis_probability: float) -> None:
    """Reject rounds that are not an int in [1, int64 max], a basis probability
    outside (0, 1) and a state that :func:`~cvqss.gaussian.validate` calls unphysical."""
    if not isinstance(rounds, numbers.Integral):  # numpy would truncate it in silence
        raise ValueError(f"rounds must be an integer, got {rounds!r}")
    if rounds < 1:
        raise ValueError("need at least one round")
    if rounds > _MAX_ROUNDS:
        raise ValueError(f"at most {_MAX_ROUNDS} rounds, got {rounds}")
    if not 0.0 < basis_probability < 1.0:
        raise ValueError("basis probability must lie strictly inside (0, 1)")
    diagnostics = validate(state)
    if not diagnostics.physical:
        min_nu = diagnostics.min_symplectic_eigenvalue
        raise UnphysicalStateError(
            "covariance matrix is not positive definite" if min_nu is None else
            f"cannot sample a non-bona-fide state (min symplectic eigenvalue {min_nu:.12g})")


@dataclass(frozen=True)
class EmpiricalConditioning:
    """Regression estimate of a conditional variance."""

    variance: float
    gains: JointVariable
    standard_error: float
    gain_standard_errors: Mapping
    rounds_used: int


def _fit(scatter: np.ndarray, rows: int, target_basis: Quadrature, positions: np.ndarray,
         groups: Sequence) -> list:
    """Least-squares fits, intercept included, of the target on each group of ``groups``.

    ``scatter`` is the N = ``rows`` rows' scatter about their mean, the target's
    column first, then the parties; group s is the parties at the 0-based positions
    in row s of ``positions``. All groups have the same size g, so each chunk of
    SCHUR_BLOCK_ROWS of them is one batched solve on its g-square block. The residual
    variance v uses 1/(N - d) with d = g + 1 fitted parameters. The rows are Gaussian,
    so (N - d) v / V(target | group) is chi-squared with N - d degrees of freedom and
    v's standard error is v sqrt(2 / (N - d)) (Leverrier, Grosshans and Grangier,
    PRA 81, 062343 (2010)); the gains' errors, from the block's inverse diagonal,
    are the usual OLS ones.
    """
    columns = 1 + positions  # after the target
    dof = rows - columns.shape[1] - 1
    fits = []
    for start in range(0, len(groups), SCHUR_BLOCK_ROWS):
        chunk = groups[start:start + SCHUR_BLOCK_ROWS]
        c = columns[start:start + SCHUR_BLOCK_ROWS]
        block = scatter[c[:, :, None], c[:, None, :]]
        moment = scatter[c, 0]
        coeffs = np.linalg.solve(block, moment[..., None])[..., 0]
        variances = (scatter[0, 0] - (coeffs * moment).sum(axis=-1)) / dof
        se = variances * math.sqrt(2.0 / dof)
        gain_se = np.sqrt(variances[:, None] * np.linalg.inv(block).diagonal(0, 1, 2))
        fits += [EmpiricalConditioning(
            variance=float(variances[s]),
            gains=JointVariable(target_basis, dict(zip(group, coeffs[s]))),
            standard_error=float(se[s]),
            gain_standard_errors=dict(zip(group, gain_se[s])),
            rounds_used=int(rows),
        ) for s, group in enumerate(chunk)]
    return fits


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


# A string annotation: importing this module must not load numpy.random (~15 ms).
def _pattern_scatter(rng: "np.random.Generator", cov: np.ndarray, count: int) -> tuple:
    """:func:`_fit`'s ``(scatter, rows)`` for ``count`` iid rows of covariance ``cov``.

    F is ``cov``'s Cholesky factor. The scatter's Bartlett factor is lower
    triangular, with sqrt(chi-squared(count - 1 - j)) on column j's diagonal and
    standard normals below it; ``count`` >= MIN_SIFTED_ROUNDS exceeds the m columns.
    """
    factor = np.linalg.cholesky(cov)
    m = len(cov)
    rng.standard_normal(m)  # the rows' sum: no fit reads it, but each seed keeps its scatter
    bartlett = np.diag(np.sqrt(rng.chisquare(count - 1 - np.arange(m))))
    bartlett[np.tril_indices(m, -1)] = rng.standard_normal(m * (m - 1) // 2)
    root = factor @ bartlett
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        scatter = root @ root.T
    if not np.isfinite(scatter).all():
        raise ValueError(f"the scatter of {count} revealed rounds overflows double precision")
    return scatter, count


def _revealed_scatters(state: GaussianState, patterns: Sequence, rounds: int,
                       reveal_fraction: float, basis_probability: float, seed: int) -> tuple:
    """Rounds on each of the two ``patterns`` and on any other, then each
    pattern's revealed :func:`_pattern_scatter`.

    ``patterns`` are the key and the check pattern, party -> basis maps in
    scatter-column order. Raises UndersampledError before any outcome draw
    when a pattern reveals fewer than MIN_SIFTED_ROUNDS.
    """
    probabilities = [_pattern_probability(required, basis_probability) for required in patterns]
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(
        rounds, probabilities + [max(0.0, 1.0 - sum(probabilities))]).tolist()
    revealed = [int(round(reveal_fraction * count)) for count in counts[:2]]
    if min(revealed) < MIN_SIFTED_ROUNDS:
        # The revealed share of rounds can underflow to 0, and 100 / share overflow.
        share = reveal_fraction * min(probabilities)
        needed = MIN_SIFTED_ROUNDS / share if share else math.inf
        raise UndersampledError(min(revealed), math.ceil(needed) if needed < math.inf else None)
    indices = [[state.quad_index(party, basis) for party, basis in required.items()]
               for required in patterns]
    return counts, [_pattern_scatter(rng, state.cov[np.ix_(idx, idx)], count)
                    for idx, count in zip(indices, revealed)]


def run_protocol(
    state: GaussianState,
    layout: PartyLayout,
    scheme: ThresholdScheme,
    rounds: int,
    reveal_fraction: float = 0.5,
    seed: int = 0,
    basis_probability: float = 0.5,
) -> ProtocolReport:
    """Simulate sampling, sifting and parameter estimation end to end.

    The revealed fraction of each sifted pattern feeds the regressions;
    the fitted conditional variances take the analytic second moments'
    reduction, :func:`~cvqss.keyrate.combine`, and both are reported. The
    run is reproducible bit for bit from (state, configuration, seed).
    """
    if seed < 0:  # numpy's own refusal names no parameter
        raise ValueError(f"seed must be >= 0, got {seed}")
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
    (key_count, check_count, other), (key_scatter, check_scatter) = _revealed_scatters(
        state, (key_required, check_required), rounds, reveal_fraction,
        basis_probability, seed)

    players = layout.player_modes
    everyone = np.arange(len(players))[None]
    (inference_x,) = _fit(*key_scatter, "x", everyone, [players])
    (inference_p,) = _fit(*check_scatter, "p", everyone, [players])
    dealer_x_var = float(key_scatter[0][0, 0] / (key_scatter[1] - 1))

    access, colluding = scheme._player_rows
    honest = _complements(colluding, scheme.n)
    access_labels, adversarial_labels, honest_labels = (
        _labels(players, rows) for rows in (access, colluding, honest))
    access_fits = _fit(*key_scatter, "x", access, access_labels)
    adversarial_fits = _fit(*check_scatter, "p", honest, honest_labels)
    bound = combine(dealer_x_var, [fit.variance for fit in access_fits],
                    [fit.variance for fit in adversarial_fits])

    # Delta-method error on the combined rate at the binding structures; the
    # x- and p-pattern rounds are disjoint, so the two terms are independent.
    vx = access_fits[bound.binding_access]
    vp = adversarial_fits[bound.binding_adversarial]
    scale = 1.0 / (2.0 * math.log(2.0))
    combined_se = math.sqrt((scale * vx.standard_error / vx.variance) ** 2
                            + (scale * vp.standard_error / vp.variance) ** 2)

    eavesdropping = float(combine(dealer_x_var, [inference_x.variance],
                                  [inference_p.variance]).rate)
    analytic = keyrate_qss(state, layout, scheme)

    return ProtocolReport(
        rounds=rounds,
        seed=seed,
        basis_probability=basis_probability,
        reveal_fraction=reveal_fraction,
        sifted_counts={key_pattern: key_count, check_pattern: check_count,
                       "other": other},
        key_pattern=key_pattern,
        check_pattern=check_pattern,
        revealed_key_rounds=inference_x.rounds_used,
        revealed_check_rounds=inference_p.rounds_used,
        raw_key_length=key_count - inference_x.rounds_used,
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
