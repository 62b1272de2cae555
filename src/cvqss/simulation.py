"""Monte Carlo simulation of the measurement protocol.

Each round, every party homodynes one randomly chosen quadrature of its
mode. Rounds whose basis pattern matches the layout's key pattern (dealer
measures x, players measure their announced-x quadratures) or check
pattern (the conjugate choices) are kept; a seeded random subset of each
is publicly revealed and drives the parameter-estimation regressions whose
residual variances feed the key-rate formulas. The remaining sifted key
rounds are counted as raw key material (reconciliation and privacy
amplification are out of scope; the report exposes everything such a stage
would need).

Simulation device, not physics: every round draws one joint sample of ALL
quadratures from the state's multivariate normal and then discards all but
each party's chosen-basis value. Conjugate quadratures are never jointly
observable in the lab, but only the revealed per-round values are
protocol-visible, and their marginal and joint statistics over sifted
rounds match true homodyne statistics, which is all the estimators
consume.

Determinism contract: a batch is a pure function of (state, rounds,
basis probability, seed). Basis choices are drawn before outcomes from a
single PCG64 stream; the parameter-estimation subset uses a separately
derived stream so reveal choices never perturb the samples.
"""

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .estimation import JointVariable
from .gaussian import GaussianState, Quadrature, UnphysicalStateError, validate
from .keyrate import (
    KeyRateReport,
    ThresholdScheme,
    holevo_term,
    keyrate_eavesdropping,
    keyrate_qss,
)
from .states import PartyLayout

#: Eigenvalues of a covariance matrix in [-this, 0) are treated as rounding
#: debris and clipped to zero before factorisation.
EIGENVALUE_CLIP = 1e-10

#: Minimum sifted rounds required for a regression.
MIN_SIFTED_ROUNDS = 100

class UndersampledError(RuntimeError):
    """Too few sifted rounds for a requested regression."""

    def __init__(self, available: int, required: int = MIN_SIFTED_ROUNDS):
        self.available = available
        self.required = required
        super().__init__(
            f"only {available} sifted rounds match the required bases "
            f"(need >= {required})")


@dataclass(frozen=True)
class SampleBatch:
    """Per-round basis choices and revealed homodyne outcomes.

    ``x_chosen[r, j]`` is True where party j measured x in round r;
    ``outcomes[r, j]`` is the corresponding revealed value. Parties are
    ordered as ``labels``.
    """

    labels: tuple
    x_chosen: np.ndarray
    outcomes: np.ndarray
    seed: int
    basis_probability: float

    def __post_init__(self):
        x_chosen = np.asarray(self.x_chosen, dtype=bool)
        outcomes = np.asarray(self.outcomes, dtype=float)
        if x_chosen.shape != outcomes.shape or x_chosen.ndim != 2:
            raise ValueError("basis and outcome arrays must share shape (rounds, parties)")
        if x_chosen.shape[1] != len(self.labels):
            raise ValueError("party count does not match the labels")
        x_chosen.setflags(write=False)
        outcomes.setflags(write=False)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "x_chosen", x_chosen)
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def rounds(self) -> int:
        return self.outcomes.shape[0]

    def party_index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown party {label!r}") from None

    def basis_mask(self, required: Mapping) -> np.ndarray:
        """Rounds in which every listed party measured its required basis."""
        mask = np.ones(self.rounds, dtype=bool)
        for label, basis in required.items():
            col = self.x_chosen[:, self.party_index(label)]
            mask &= col if basis == "x" else ~col
        return mask

    def subset(self, rows: np.ndarray) -> "SampleBatch":
        return SampleBatch(self.labels, self.x_chosen[rows], self.outcomes[rows],
                           self.seed, self.basis_probability)


def sample_outcomes(state: GaussianState, rounds: int,
                    basis_probability: float = 0.5, seed: int = 0) -> SampleBatch:
    """Draw per-round homodyne outcomes for every mode of a state.

    Each party independently measures x with probability
    ``basis_probability`` (else p). Outcomes are exact multivariate-normal
    homodyne statistics; the batch is bit-identical for identical inputs.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    if not 0.0 < basis_probability < 1.0:
        raise ValueError("basis probability must lie strictly inside (0, 1)")
    diagnostics = validate(state)
    if not diagnostics.physical:
        raise UnphysicalStateError(
            f"cannot sample a non-bona-fide state (min symplectic eigenvalue "
            f"{diagnostics.min_symplectic_eigenvalue:.6g})")
    eigval, eigvec = np.linalg.eigh(state.cov)
    if eigval.min() < -EIGENVALUE_CLIP:
        raise UnphysicalStateError(
            f"covariance matrix has a negative eigenvalue {eigval.min():.3e}")
    factor = eigvec * np.sqrt(np.clip(eigval, 0.0, None))

    rng = np.random.default_rng(seed)
    num_modes = state.num_modes
    x_chosen = rng.random((rounds, num_modes)) < basis_probability
    joint = rng.standard_normal((rounds, 2 * num_modes)) @ factor.T + state.mean
    outcomes = np.where(x_chosen, joint[:, 0::2], joint[:, 1::2])
    return SampleBatch(state.labels, x_chosen, outcomes, seed, basis_probability)


@dataclass(frozen=True)
class EmpiricalConditioning:
    """Regression estimate of a conditional variance."""

    variance: float
    gains: JointVariable
    standard_error: float
    gain_standard_errors: Mapping
    rounds_used: int


def _normalize_estimators(estimator_parties, target_basis: Quadrature) -> dict:
    if isinstance(estimator_parties, Mapping):
        return dict(estimator_parties)
    return {party: target_basis for party in estimator_parties}


def empirical_conditional_variance(
    batch: SampleBatch,
    target_party,
    target_basis: Quadrature,
    estimator_parties,
    jackknife_groups: int = 50,
) -> EmpiricalConditioning:
    """Residual variance of the target under least-squares inference.

    Sifts the batch down to rounds where the target party measured
    ``target_basis`` and every estimator party its required basis
    (``estimator_parties`` is either a sequence, implying the target basis
    for everyone, or an explicit party -> basis mapping). The target
    outcomes are regressed on the estimator outcomes with an intercept;
    the residual variance uses 1/(N - d) with d fitted parameters. The
    variance's standard error is a delete-one-group jackknife; per-gain
    errors are the usual OLS coefficient errors.
    """
    estimators = _normalize_estimators(estimator_parties, target_basis)
    if not estimators:
        raise ValueError("need at least one estimator party")
    if target_party in estimators:
        raise ValueError("estimator parties must exclude the target party")
    required = {target_party: target_basis, **estimators}
    mask = batch.basis_mask(required)
    n = int(mask.sum())
    if n < MIN_SIFTED_ROUNDS:
        raise UndersampledError(n)

    order = list(estimators)
    cols = [batch.party_index(p) for p in order]
    y = batch.outcomes[mask][:, batch.party_index(target_party)]
    design = np.column_stack([np.ones(n)] + [batch.outcomes[mask][:, c] for c in cols])
    d = design.shape[1]

    gram = design.T @ design
    moment = design.T @ y
    coeffs = np.linalg.solve(gram, moment)
    rss = float(y @ y - coeffs @ moment)
    variance = rss / (n - d)

    gram_inv = np.linalg.inv(gram)
    gain_se = np.sqrt(variance * np.diag(gram_inv))[1:]

    # Grouped jackknife on the residual variance: leave one block of sifted
    # rounds out at a time, refitting from downdated Gram matrices.
    groups = min(jackknife_groups, n // 2)
    splits = np.array_split(np.arange(n), groups)
    estimates = np.empty(groups)
    yy = float(y @ y)
    for g, rows in enumerate(splits):
        block = design[rows]
        gram_g = gram - block.T @ block
        moment_g = moment - block.T @ y[rows]
        coeffs_g = np.linalg.solve(gram_g, moment_g)
        rss_g = (yy - float(y[rows] @ y[rows])) - float(coeffs_g @ moment_g)
        estimates[g] = rss_g / (n - len(rows) - d)
    se = math.sqrt((groups - 1) / groups * float(np.sum((estimates - estimates.mean()) ** 2)))

    gains = JointVariable(target_basis, dict(zip(order, coeffs[1:])))
    return EmpiricalConditioning(
        variance=variance,
        gains=gains,
        standard_error=se,
        gain_standard_errors=dict(zip(order, gain_se)),
        rounds_used=n,
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


def _pattern_string(labels: Sequence, required: Mapping) -> str:
    return "".join(required[label] for label in labels)


def _reveal(mask: np.ndarray, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Seeded uniform choice without replacement of sifted rounds to reveal."""
    idx = np.flatnonzero(mask)
    count = int(round(fraction * len(idx)))
    chosen = rng.choice(idx, size=count, replace=False, shuffle=False)
    revealed = np.zeros_like(mask)
    revealed[np.sort(chosen)] = True
    return revealed


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
    empirical conditional variances are plugged into the same key-rate
    formulas as the analytic second moments, and both are reported. The
    run is reproducible bit for bit from (state, configuration, seed).
    """
    if not 0.0 < reveal_fraction <= 1.0:
        raise ValueError("reveal fraction must lie in (0, 1]")
    layout.check_state(state)
    if scheme.n != layout.num_players:
        raise ValueError(f"scheme expects {scheme.n} players but the layout has "
                         f"{layout.num_players}")

    batch = sample_outcomes(state, rounds, basis_probability, seed)

    # Per-pattern sifting accounting over all 2^m basis patterns.
    weights = 1 << np.arange(len(batch.labels))
    pattern_ids = (~batch.x_chosen) @ weights
    counts = np.bincount(pattern_ids, minlength=1 << len(batch.labels))
    sifted_counts = {}
    for pid, count in enumerate(counts):
        name = "".join("p" if pid >> j & 1 else "x" for j in range(len(batch.labels)))
        sifted_counts[name] = int(count)

    key_required = _required_bases(layout, "x")
    check_required = _required_bases(layout, "p")
    key_mask = batch.basis_mask(key_required)
    check_mask = batch.basis_mask(check_required)

    rng_reveal = np.random.default_rng([seed, 1])
    key_revealed = _reveal(key_mask, reveal_fraction, rng_reveal)
    check_revealed = _reveal(check_mask, reveal_fraction, rng_reveal)
    key_batch = batch.subset(key_revealed)
    check_batch = batch.subset(check_revealed)
    raw_key_length = int(key_mask.sum() - key_revealed.sum())

    x_estimators = {p: key_required[p] for p in layout.player_modes}
    p_estimators = {p: check_required[p] for p in layout.player_modes}
    inference_x = empirical_conditional_variance(
        key_batch, layout.dealer_mode, "x", x_estimators)
    inference_p = empirical_conditional_variance(
        check_batch, layout.dealer_mode, "p", p_estimators)

    dealer_col = key_batch.party_index(layout.dealer_mode)
    dealer_x_var = float(np.var(key_batch.outcomes[:, dealer_col], ddof=1))

    access_var = {}
    access_mi = {}
    for structure in scheme.access_structures:
        players = tuple(layout.player_modes[i - 1] for i in structure)
        if players == layout.player_modes:
            fit = inference_x
        else:
            fit = empirical_conditional_variance(
                key_batch, layout.dealer_mode, "x",
                {p: key_required[p] for p in players})
        access_var[players] = fit
        access_mi[players] = 0.5 * math.log2(dealer_x_var / fit.variance)

    adversarial_var = {}
    adversarial_chi = {}
    for structure in scheme.adversarial_structures:
        colluders = tuple(layout.player_modes[i - 1] for i in structure)
        honest = tuple(p for p in layout.player_modes if p not in set(colluders))
        if honest == layout.player_modes:
            fit = inference_p
        else:
            fit = empirical_conditional_variance(
                check_batch, layout.dealer_mode, "p",
                {p: check_required[p] for p in honest})
        adversarial_var[colluders] = fit
        adversarial_chi[colluders] = holevo_term(dealer_x_var, fit.variance)

    binding_access = min(access_mi, key=access_mi.get)
    binding_adv = max(adversarial_chi, key=adversarial_chi.get)
    combined = beta * access_mi[binding_access] - adversarial_chi[binding_adv]

    # Delta-method error on the combined rate at the binding structures; the
    # x- and p-pattern rounds are disjoint, so the two terms are independent.
    vx = access_var[binding_access]
    vp = adversarial_var[binding_adv]
    dealer_var_se = dealer_x_var * math.sqrt(2.0 / (vx.rounds_used - 1))
    scale = 1.0 / (2.0 * math.log(2.0))
    combined_se = math.sqrt(
        (beta * scale * vx.standard_error / vx.variance) ** 2
        + (scale * vp.standard_error / vp.variance) ** 2
        + ((beta - 1.0) * scale * dealer_var_se / dealer_x_var) ** 2)

    eavesdropping = (beta * 0.5 * math.log2(dealer_x_var / inference_x.variance)
                     - holevo_term(dealer_x_var, inference_p.variance))

    analytic = keyrate_qss(state, layout, scheme, beta=beta)

    return ProtocolReport(
        rounds=rounds,
        seed=seed,
        basis_probability=basis_probability,
        reveal_fraction=reveal_fraction,
        sifted_counts=sifted_counts,
        key_pattern=_pattern_string(batch.labels, key_required),
        check_pattern=_pattern_string(batch.labels, check_required),
        revealed_key_rounds=int(key_revealed.sum()),
        revealed_check_rounds=int(check_revealed.sum()),
        raw_key_length=raw_key_length,
        dealer_x_variance=dealer_x_var,
        inference_x=inference_x,
        inference_p=inference_p,
        access_variance=access_var,
        adversarial_variance=adversarial_var,
        access_mutual_information=access_mi,
        adversarial_holevo=adversarial_chi,
        combined_rate=combined,
        combined_rate_standard_error=combined_se,
        eavesdropping_rate=eavesdropping,
        analytic=analytic,
        secure=bool(combined - 3.0 * combined_se > 0.0),
    )
