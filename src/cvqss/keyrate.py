"""Secret-key-rate bounds for threshold secret sharing on Gaussian states.

The dealer's key is carried by the dealer-side x outcomes; any qualified
group of players decodes it through a collective linear variable built
from their announced outcomes. Three asymptotic direct-reconciliation bounds are
computed, all in bits per round:

* Plain eavesdropping: ``K = I(X_A : Xbar) - chi_E`` where the adversary
  holds a purification of everything outside the parties. Combining the
  entropic uncertainty trade-off between conjugate dealer quadratures with
  Gaussian maximisation of the entropies turns the Holevo term into
  ``chi_E = log2(e * sqrt(V(X_A) * V(P_A|Pbar)))``, so the rate is
  positive exactly when the inference-variance product
  ``V(X_A|Xbar) * V(P_A|Pbar)`` drops below exp(-2).
* Dishonest subset D: the colluders join the eavesdropper, and their
  announced data cannot be trusted. The check-side inference must then use
  only the honest complement, giving
  ``K = I(X_A : Xbar) - log2(e * sqrt(V(X_A) * V(P_A|Pbar_honest)))``.
* (k, n)-threshold combination: every k-subset (access structure) must be
  able to decode, so the reconciliation term is the *minimum* mutual
  information over access structures; every (k-1)-subset (adversarial
  structure) may collude, so the Holevo term is the *maximum* over
  collusions, each bounded through its honest complement as above. The
  reported rate is ``min_i I_i - max_S chi_S``.

For (2, 2) the combination reduces exactly to the minimum of the two
single-dishonest-player bounds, which is asserted in the test suite.

All joint variables are resolved through the :class:`~cvqss.states.PartyLayout`
announcement map, and the dealer's quadratures are always literal.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

from .estimation import (
    ConditioningResult,
    JointVariable,
    check_conditional_variances,
    conditional_variance_coords,
    gaussian_mutual_information,
    schur,
)
from .gaussian import GaussianState
from .states import PartyLayout

#: The inference-variance product below which the eavesdropping bound turns
#: positive: V(X_A|Xbar) * V(P_A|Pbar) < exp(-2).
SECURITY_THRESHOLD = math.exp(-2.0)

#: Structure enumeration is capped here; C(n, k) growth makes larger
#: schemes useless at desk scale.
MAX_PLAYERS = 24

#: Most access plus adversarial structures a scheme may have. Each one is
#: evaluated and kept in the report, so larger schemes are refused before
#: any subset is built.
MAX_STRUCTURES = 10**6

_LOG2_E = math.log2(math.e)


@dataclass(frozen=True)
class ThresholdScheme:
    """A (k, n)-threshold scheme with its derived structures.

    ``access_structures`` holds every k-subset of the player indices 1..n
    (groups entitled to decode); ``adversarial_structures`` every
    (k-1)-subset (groups treated as colluding eavesdroppers).
    """

    k: int
    n: int
    access_structures: tuple
    adversarial_structures: tuple

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got (k, n) = ({self.k}, {self.n})")
        access = tuple(tuple(s) for s in self.access_structures)
        adversarial = tuple(tuple(s) for s in self.adversarial_structures)
        if len(access) != math.comb(self.n, self.k):
            raise ValueError(f"expected {math.comb(self.n, self.k)} access structures")
        if len(adversarial) != math.comb(self.n, self.k - 1):
            raise ValueError(
                f"expected {math.comb(self.n, self.k - 1)} adversarial structures")
        for subset in access + adversarial:
            if any(not 1 <= i <= self.n for i in subset):
                raise ValueError(f"structure {subset} is not over indices 1..{self.n}")
        object.__setattr__(self, "access_structures", access)
        object.__setattr__(self, "adversarial_structures", adversarial)

    @cached_property
    def _player_rows(self) -> tuple:
        """(access, colluding, honest) arrays of 0-based player positions.

        Row s of ``access`` and ``colluding`` lists the players of access and
        adversarial structure s; row s of ``honest`` the players outside
        adversarial structure s, in player order. Cached because a sweep
        evaluates one scheme at every grid point.
        """
        access = np.array(self.access_structures, dtype=int) - 1
        colluding = np.array(self.adversarial_structures, dtype=int).reshape(
            len(self.adversarial_structures), self.k - 1) - 1
        is_honest = np.ones((len(colluding), self.n), dtype=bool)
        is_honest[np.arange(len(colluding))[:, None], colluding] = False
        honest = np.nonzero(is_honest)[1].reshape(len(colluding), -1)
        for rows in (access, colluding, honest):
            rows.setflags(write=False)
        return access, colluding, honest


def enumerate_structures(n: int, k: int) -> ThresholdScheme:
    """All access and adversarial structures of a (k, n) scheme.

    Subsets are enumerated in lexicographic order over player indices 1..n.
    """
    if k > n:
        raise ValueError(f"threshold k = {k} exceeds the number of players n = {n}")
    if k < 1:
        raise ValueError(f"threshold k must be >= 1, got {k}")
    if n > MAX_PLAYERS:
        raise ValueError(
            f"n = {n} players exceeds the supported maximum of {MAX_PLAYERS}; "
            f"the structure count C(n, k) is beyond desk scale")
    count = math.comb(n, k) + math.comb(n, k - 1)
    if count > MAX_STRUCTURES:
        raise ValueError(
            f"(k, n) = ({k}, {n}) has {count} access and adversarial structures, "
            f"over the budget of {MAX_STRUCTURES}")
    players = range(1, n + 1)
    return ThresholdScheme(
        k=k,
        n=n,
        access_structures=tuple(combinations(players, k)),
        adversarial_structures=tuple(combinations(players, k - 1)),
    )


@dataclass(frozen=True)
class EavesdroppingReport:
    """Plain eavesdropping bound and its ingredients."""

    rate: float
    mutual_information: float
    holevo_bound: float
    v_x_conditional: float
    v_p_conditional: float
    v_x_unconditional: float
    v_p_unconditional: float
    inference_product: float
    threshold: float
    x_gains: JointVariable
    p_gains: JointVariable


@dataclass(frozen=True)
class DishonestReport:
    """Bound against a specific colluding player subset."""

    rate: float
    dishonest_players: tuple
    honest_players: tuple
    v_x_conditional: float
    v_p_honest_conditional: float
    inference_product: float
    x_gains: JointVariable
    p_gains: JointVariable


@dataclass(frozen=True)
class KeyRateReport:
    """Full (k, n) evaluation: all intermediates plus the combined bound."""

    scheme: ThresholdScheme
    combined_rate: float
    positive: bool
    eavesdropping_rate: float
    dishonest_rates: Mapping
    access_mutual_information: Mapping
    access_conditional_variance: Mapping
    access_gains: Mapping
    adversarial_holevo: Mapping
    adversarial_conditional_variance: Mapping
    adversarial_gains: Mapping
    binding_access: tuple
    binding_adversarial: tuple
    dealer_x_variance: float
    dealer_p_variance: float
    inference_product: float
    threshold: float


def _inference(state: GaussianState, layout: PartyLayout, dealer_basis: str,
               players: Iterable) -> ConditioningResult:
    """Optimal inference of the dealer's quadrature from announced outcomes."""
    players = list(players)
    coords = layout.announced_coordinates(players, dealer_basis)
    v_cond, gains, v_unc = conditional_variance_coords(
        state, (layout.dealer_mode, dealer_basis), coords)
    joint = JointVariable(dealer_basis, dict(zip(players, gains)))
    return ConditioningResult(v_cond, joint, v_unc)


def holevo_term(v_x_unconditional: float, v_p_conditional: float) -> float:
    # H_G(X_A) - log2(2 pi) + log2 sqrt(2 pi e V(P_A|.)) collapses to this.
    return _LOG2_E + 0.5 * math.log2(v_x_unconditional * v_p_conditional)


def keyrate_eavesdropping(state: GaussianState, layout: PartyLayout,
                          beta: float = 1.0) -> EavesdroppingReport:
    """Bound secure against external eavesdropping only.

    Both joint variables are optimal over *all* players. ``beta`` is a
    reconciliation-efficiency scalar multiplying the mutual-information
    term (1 = the ideal value assumed by the closed form).
    """
    layout.check_state(state)
    x_side = _inference(state, layout, "x", layout.player_modes)
    p_side = _inference(state, layout, "p", layout.player_modes)
    mutual = gaussian_mutual_information(x_side.unconditional_variance,
                                         x_side.conditional_variance)
    holevo = holevo_term(x_side.unconditional_variance, p_side.conditional_variance)
    product = x_side.conditional_variance * p_side.conditional_variance
    return EavesdroppingReport(
        rate=beta * mutual - holevo,
        mutual_information=mutual,
        holevo_bound=holevo,
        v_x_conditional=x_side.conditional_variance,
        v_p_conditional=p_side.conditional_variance,
        v_x_unconditional=x_side.unconditional_variance,
        v_p_unconditional=p_side.unconditional_variance,
        inference_product=product,
        threshold=SECURITY_THRESHOLD,
        x_gains=x_side.gains,
        p_gains=p_side.gains,
    )


def keyrate_dishonest(state: GaussianState, layout: PartyLayout,
                      dishonest_players: Iterable, beta: float = 1.0) -> DishonestReport:
    """Bound secure against a given colluding subset of players.

    The key-side variable stays optimal over all players (their announced
    data is used for reconciliation either way); the check-side variable is
    restricted to the honest complement, whose announcements alone bound
    the colluders' knowledge.
    """
    layout.check_state(state)
    dishonest = [p for p in layout.player_modes if p in set(dishonest_players)]
    unknown = set(dishonest_players) - set(layout.player_modes)
    if unknown:
        raise ValueError(f"unknown players: {sorted(unknown, key=str)}")
    if not dishonest:
        raise ValueError("dishonest player set must be nonempty")
    honest = tuple(p for p in layout.player_modes if p not in set(dishonest))
    if not honest:
        raise ValueError("cannot bound dishonesty of all players at once: "
                         "no honest outcomes remain to anchor the check side")
    x_side = _inference(state, layout, "x", layout.player_modes)
    p_side = _inference(state, layout, "p", honest)
    mutual = gaussian_mutual_information(x_side.unconditional_variance,
                                         x_side.conditional_variance)
    holevo = holevo_term(x_side.unconditional_variance, p_side.conditional_variance)
    return DishonestReport(
        rate=beta * mutual - holevo,
        dishonest_players=tuple(dishonest),
        honest_players=honest,
        v_x_conditional=x_side.conditional_variance,
        v_p_honest_conditional=p_side.conditional_variance,
        inference_product=x_side.conditional_variance * p_side.conditional_variance,
        x_gains=x_side.gains,
        p_gains=p_side.gains,
    )


def _announced_indices(state: GaussianState, layout: PartyLayout, basis: str):
    """Covariance indices of every player's announced ``basis`` outcome."""
    return np.array([state.quad_index(*coord) for coord in
                     layout.announced_coordinates(layout.player_modes, basis)])


def keyrate_qss(state: GaussianState, layout: PartyLayout, scheme: ThresholdScheme,
                beta: float = 1.0) -> KeyRateReport:
    """Combined (k, n) bound: min access mutual information minus max Holevo.

    Every access structure is one Schur complement of the dealer's x on its
    players' announced x outcomes, and every adversarial structure one of
    the dealer's p on its honest complement's announced p outcomes; each
    side is a single batched :func:`~cvqss.estimation.schur` call. The
    final reduction is order-independent (min/max).
    """
    layout.check_state(state)
    if scheme.n != layout.num_players:
        raise ValueError(f"scheme expects {scheme.n} players but the layout has "
                         f"{layout.num_players}")
    if scheme.k == 1 and scheme.n == 1:
        raise ValueError("(1, 1) is not a sharing scheme: one player holding "
                         "everything needs no threshold")

    access, colluding, honest = scheme._player_rows
    access_v, access_g, dealer_x = schur(
        state.cov, state.quad_index(layout.dealer_mode, "x"),
        _announced_indices(state, layout, "x")[access])
    adversarial_v, adversarial_g, dealer_p = schur(
        state.cov, state.quad_index(layout.dealer_mode, "p"),
        _announced_indices(state, layout, "p")[honest])
    access_bits = gaussian_mutual_information(dealer_x, access_v).tolist()
    check_conditional_variances(adversarial_v, dealer_p)

    def labels(rows):
        return [tuple(map(layout.player_modes.__getitem__, row)) for row in rows.tolist()]

    access_mi = {}
    access_var = {}
    access_gains = {}
    for players, v, gains, mi in zip(labels(access), access_v.tolist(), access_g,
                                     access_bits):
        access_var[players] = v
        access_gains[players] = JointVariable("x", dict(zip(players, gains)))
        access_mi[players] = mi

    adversarial_chi = {}
    adversarial_var = {}
    adversarial_gains = {}
    for colluders, honest_players, v, gains in zip(
            labels(colluding), labels(honest), adversarial_v.tolist(), adversarial_g):
        adversarial_var[colluders] = v
        adversarial_gains[colluders] = JointVariable("p", dict(zip(honest_players, gains)))
        adversarial_chi[colluders] = holevo_term(dealer_x, v)

    binding_access = min(access_mi, key=access_mi.get)
    binding_adversarial = max(adversarial_chi, key=adversarial_chi.get)
    combined = beta * access_mi[binding_access] - adversarial_chi[binding_adversarial]

    eavesdropping = keyrate_eavesdropping(state, layout, beta=beta)
    dishonest_rates = {
        player: keyrate_dishonest(state, layout, [player], beta=beta).rate
        for player in layout.player_modes
    } if layout.num_players >= 2 else {}

    return KeyRateReport(
        scheme=scheme,
        combined_rate=combined,
        positive=bool(combined > 0.0),
        eavesdropping_rate=eavesdropping.rate,
        dishonest_rates=dishonest_rates,
        access_mutual_information=access_mi,
        access_conditional_variance=access_var,
        access_gains=access_gains,
        adversarial_holevo=adversarial_chi,
        adversarial_conditional_variance=adversarial_var,
        adversarial_gains=adversarial_gains,
        binding_access=binding_access,
        binding_adversarial=binding_adversarial,
        dealer_x_variance=dealer_x,
        dealer_p_variance=dealer_p,
        inference_product=access_var[binding_access] * adversarial_var[binding_adversarial],
        threshold=SECURITY_THRESHOLD,
    )
