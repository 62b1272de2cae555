"""Secret-key-rate bounds for threshold secret sharing on Gaussian states.

The dealer's key is carried by the dealer-side x outcomes; any qualified
group of players decodes it through a collective linear variable built
from their announced outcomes. Three asymptotic direct-reconciliation bounds are
computed, all in bits per round with ideal reconciliation:

* Plain eavesdropping: ``K = I(X_A : Xbar) - chi_E`` where the adversary
  holds a purification of everything outside the parties. Combining the
  entropic uncertainty trade-off between conjugate dealer quadratures with
  Gaussian maximisation of the entropies turns the Holevo term into
  ``chi_E = log2(e * sqrt(V(X_A) * V(P_A|Pbar)))``, so the rate is
  positive exactly when the inference-variance product
  ``V(X_A|Xbar) * V(P_A|Pbar)`` drops below exp(-2).
* Dishonest players D: the colluders join the eavesdropper, and their
  announced data cannot be trusted. The check-side inference must then use
  only the honest complement, giving
  ``K = I(X_A : Xbar) - log2(e * sqrt(V(X_A) * V(P_A|Pbar_honest)))``.
  The report gives it for each single player j
  (``KeyRateReport.dishonest_rates``).
* (k, n)-threshold combination: every k-subset (access structure) must be
  able to decode, so the reconciliation term is the *minimum* mutual
  information over access structures; every (k-1)-subset (adversarial
  structure) may collude, so the Holevo term is the *maximum* over
  collusions, each bounded through its honest complement as above. The
  reported rate is ``min_i I_i - max_S chi_S``.

:func:`key_rates` evaluates every term as arrays over a state stack (a
sweep curve), one kernel call per side, and solves for no gains;
:func:`keyrate_qss` is its report, and the reports alone solve for gains.
A side whose one structure is every player stands in for the all-player
inference of the eavesdropping bound, which is then not repeated: the access
side at k = n, and the honest side of the one (empty) collusion at k = 1.
Where every player permutation leaves the announcement map and each
covariance unchanged bit for bit, as on a star, a side's structures are one
inference: each side evaluates its first structure only.
:func:`combine` is the one reduction from conditional variances to these
rates, over any leading axes, for the empirical ones of
:func:`~cvqss.simulation.run_protocol` too.
For (2, 2) the combination reduces exactly to the minimum of the two
single-dishonest-player bounds, which the test suite checks against hand
closed forms.

A :class:`ThresholdScheme` is its (k, n): it derives every structure, and
it is the one place an unsupported (k, n) is refused.

All joint variables are resolved through the :class:`~cvqss.states.PartyLayout`
announcement map, and the dealer's quadratures are always literal.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .estimation import JointVariable, check_conditional_variances, schur, schur_gains
from .gaussian import GaussianState
from .states import MAX_PLAYERS, PartyLayout

#: The inference-variance product below which the eavesdropping bound turns
#: positive: V(X_A|Xbar) * V(P_A|Pbar) < exp(-2).
SECURITY_THRESHOLD = math.exp(-2.0)

#: Most access plus adversarial structures a scheme may have. Each one is
#: evaluated and kept in the report, so larger schemes are refused before
#: any subset is built.
MAX_STRUCTURES = 10**6

_LOG2_E = math.log2(math.e)


def _subset_rows(n: int, k: int) -> tuple:
    """The (k-1)- and the k-subsets of 0..n-1 as rows of two arrays, each lexicographic.

    Each row is extended by every larger index, rows in order, which keeps
    lexicographic order; widths 0 to k come out of one loop. Below width k-1
    an index that leaves too few larger ones to reach width k-1 is skipped, so
    no width holds more rows than the (k-1)- or the k-subsets.
    """
    rows = np.zeros((1, 0), dtype=int)
    for width in range(k):
        shorter = rows
        top = min(n - k + 1 + width, n - 1)  # the largest index column ``width`` holds
        counts = top - shorter[:, -1] if width else np.array([top + 1])
        rows = np.empty((counts.sum(), width + 1), dtype=int)
        rows[:, :-1] = shorter.repeat(counts, axis=0)
        # Row i's children sit at positions cumsum_i - counts_i on, the last holding top.
        rows[:, -1] = (top + 1 - counts.cumsum()).repeat(counts) + np.arange(len(rows))
    return shorter, rows


def _complements(rows: np.ndarray, n: int) -> np.ndarray:
    """Row s holds the positions 0..n-1 not in row s of ``rows``, in order; a row's
    positions are distinct."""
    outside = np.ones((len(rows), n), dtype=bool)
    outside[np.arange(len(rows))[:, None], rows] = False
    return (np.flatnonzero(outside) % n).reshape(len(rows), n - rows.shape[1])


def _labels(names, rows: np.ndarray) -> list:
    """Row s of the 0-based positions ``rows`` as the tuple of the ``names`` at them."""
    return [tuple(map(names.__getitem__, row)) for row in rows.tolist()]


@dataclass(frozen=True)
class ThresholdScheme:
    """A (k, n)-threshold scheme; its structures are derived from (k, n).

    ``access_structures`` holds every k-subset of the player indices 1..n
    (groups entitled to decode), ``adversarial_structures`` every
    (k-1)-subset (groups treated as colluding eavesdroppers), both in
    lexicographic order, as tuples built on first read. A (k, n) the library
    cannot evaluate is refused before any subset is built.

    ``_player_rows`` (not a field: unseen by equality, repr and hash) holds
    (access, colluding, honest) arrays of 0-based positions: row s lists the
    players in access structure s, in adversarial structure s and outside it.
    The evaluator and every writer read these rows, never the tuples.
    """

    k: int
    n: int

    def __post_init__(self):
        k, n = self.k, self.n
        if k == n == 1:
            raise ValueError("(1, 1) is not a sharing scheme: one player holding "
                             "everything needs no threshold")
        if n < 2:
            raise ValueError(f"need at least two players, got n = {n}")
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
        colluding, access = _subset_rows(n, k)
        rows = (access, colluding, _complements(colluding, n))
        for array in rows:
            array.setflags(write=False)
        object.__setattr__(self, "_player_rows", rows)

    @cached_property
    def access_structures(self) -> tuple:
        return tuple(combinations(range(1, self.n + 1), self.k))

    @cached_property
    def adversarial_structures(self) -> tuple:
        return tuple(combinations(range(1, self.n + 1), self.k - 1))


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


class _StructureMap(Mapping):
    """Structure label -> value, read-only: a view over arrays, its dict built on first read.

    Row s of ``rows`` holds structure s's 0-based player positions (rows distinct, as
    a scheme's); its label, the tuple of the ``names`` there (:func:`_labels`), is built
    with the dict. ``array`` holds one value per row, as an (S,) array, or for a gain
    map one gains row per structure, as an (S, g) array, which with the map's quadrature
    and the players at row s of ``estimators`` (distinct within a row) reads as a
    :class:`JointVariable`. ``json_text`` and the text table write it from these arrays.
    """

    def __init__(self, names, rows: np.ndarray, array: np.ndarray, quadrature: str = None,
                 estimators: np.ndarray = None):
        array.setflags(write=False)  # the dict, once built, must keep reading as the array
        self.names, self.rows, self.array = names, rows, array
        self.quadrature, self.estimators = quadrature, estimators  # a gain map's; else None

    @cached_property
    def _dict(self) -> dict:
        labels = _labels(self.names, self.rows)
        if self.quadrature is None:
            return dict(zip(labels, self.array.tolist()))
        return {label: JointVariable(self.quadrature, dict(zip(estimators, row)))
                for label, estimators, row in zip(labels, _labels(self.names, self.estimators),
                                                  self.array)}

    def __getitem__(self, key):
        return self._dict[key]

    def __iter__(self):
        return iter(self._dict)

    def __len__(self):
        return len(self.rows)

    # Delegated, or Mapping's views would look every key up one at a time.
    def keys(self):
        return self._dict.keys()

    def values(self):
        return self._dict.values()

    def items(self):
        return self._dict.items()

    def __repr__(self):
        return repr(self._dict)


@dataclass(frozen=True)
class KeyRateReport:
    """Full (k, n) evaluation: all intermediates plus the combined bound.

    The six per-structure maps (mutual information, Holevo terms, conditional
    variances and gains, by access structure or collusion) are read-only
    ``Mapping`` views over the :func:`key_rates` arrays. Each builds its dict,
    the two ``*_gains`` maps their :class:`JointVariable` s, only when first
    read; the command line's text table and ``json_text`` write them from
    their arrays and build none.

    ``_everyone_variances`` (not a field: unseen by equality, repr and JSON)
    holds the dealer's all-player conditional x and p variances as floats.
    """

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


class RateBound(NamedTuple):
    """A combined bound and the per-structure terms it was reduced from, as arrays."""

    access_bits: np.ndarray
    adversarial_holevo: np.ndarray
    binding_access: np.ndarray
    binding_adversarial: np.ndarray
    rate: np.ndarray


def combine(dealer_x_variance, access_variances, adversarial_variances) -> RateBound:
    """The one rate reduction: ``min_i I_i - max_j chi_j``, ties to the first.

    ``I_i = log2(V / v_i) / 2`` with v_i access structure i's conditional x
    variance, ``chi_j = log2(e) + log2(V u_j) / 2`` with u_j adversarial
    structure j's honest-side conditional p variance, as (..., S) arrays and V
    as a (...) array; the fields are arrays over those leading axes. Nothing
    is range-checked, since a fitted v_i may exceed V, but a term that is not
    finite raises ValueError.
    """
    dealer = np.asarray(dealer_x_variance, dtype=float)[..., None]
    with np.errstate(over="ignore"):  # an infinite term is refused below
        bits = 0.5 * np.log2(dealer / np.asarray(access_variances, dtype=float))
        products = dealer * np.asarray(adversarial_variances, dtype=float)
    # chi = H_G(X_A) - log2(2 pi) + log2 sqrt(2 pi e V(P_A|.)) collapses to
    # log2(e) + log2(V u) / 2. math.log2, as np.log2 differs in the last bit
    # on about 1 in 10^4 doubles.
    holevo = _LOG2_E + 0.5 * np.reshape(list(map(math.log2, products.ravel().tolist())),
                                        products.shape)
    for name, terms in (("mutual information", bits), ("Holevo term", holevo)):
        if not np.isfinite(terms).all():  # V / v or V u overflows at extreme squeezing
            first = np.argmin(np.isfinite(terms))
            raise ValueError(f"{name} {terms.flat[first]} is not finite at dealer x variance "
                             f"{np.broadcast_to(dealer, terms.shape).flat[first]:.6g}: "
                             "the squeezing r is too large for double precision")
    return RateBound(bits, holevo, bits.argmin(axis=-1), holevo.argmax(axis=-1),
                     bits.min(axis=-1) - holevo.max(axis=-1))


def _interchangeable(state: GaussianState, layout: PartyLayout) -> bool:
    """Whether every player permutation leaves the announcement map and each covariance
    unchanged bit for bit: all players conjugate or none, and neither the transposition
    (B1 B2) nor the cycle (B1 ... Bn), which generate every permutation, changes the
    covariances' int64 view."""
    if 0 < len(layout.conjugate_players) < layout.num_players:
        return False
    players = np.array([state.quad_index(player, "x") for player in layout.player_modes])
    n, bits = len(players), state.cov.view(np.int64)
    for image in (players[[1, 0, *range(2, n)]], players[[*range(1, n), 0]]):
        order = np.arange(bits.shape[-1])
        order[players], order[players + 1] = image, image + 1  # a mode's p follows its x
        if not np.array_equal(bits[..., order[:, None], order], bits):
            return False
    return True


def _evaluated(state: GaussianState, layout: PartyLayout, basis: str,
               rows: np.ndarray) -> tuple:
    """The kernel's arguments for the dealer's ``basis`` quadrature and ``rows``.

    Estimator set s is the announced ``basis`` outcomes of the distinct players
    at the 0-based positions in row s of ``rows``.
    """
    announced = np.array([state.quad_index(*coord) for coord in
                          layout.announced_coordinates(layout.player_modes, basis)])
    return (state.cov, state.quad_index(layout.dealer_mode, basis), announced[rows],
            state.labels)


def _infer(state: GaussianState, layout: PartyLayout, basis: str, rows: np.ndarray) -> tuple:
    """(variances, dealer variance): :func:`~cvqss.estimation.schur` of the
    :func:`_evaluated` rows, checked."""
    variances, dealer = schur(*_evaluated(state, layout, basis, rows))
    check_conditional_variances(variances, dealer)
    return variances, dealer


def _gains(state: GaussianState, layout: PartyLayout, basis: str,
           rows: np.ndarray) -> np.ndarray:
    """:func:`~cvqss.estimation.schur_gains` of the :func:`_evaluated` rows: only the
    reports, which print gains, solve for them."""
    return schur_gains(*_evaluated(state, layout, basis, rows))


def _everyone(state: GaussianState, layout: PartyLayout) -> tuple:
    """The all-player x and p inferences and the eavesdropping bound they give."""
    everyone = np.arange(layout.num_players)[None]
    x = _infer(state, layout, "x", everyone)
    p = _infer(state, layout, "p", everyone)
    return x, p, combine(x[1], x[0], p[0])


class KeyRates(NamedTuple):
    """The :func:`_infer` results and bounds of a (k, n) scheme, over a stack's axes.

    Each side holds its ``evaluated`` rows only: the first on :func:`_interchangeable`
    players, which stands for every structure of the side, else all of them.
    """

    access: tuple
    adversarial: tuple
    everyone_x: tuple
    everyone_p: tuple
    combined: RateBound
    eavesdropping: RateBound
    evaluated: slice


def key_rates(state: GaussianState, layout: PartyLayout, scheme: ThresholdScheme) -> KeyRates:
    """Every key rate of a (k, n) scheme on one state or a stack of states."""
    layout.check_state(state, stacked=True)
    if scheme.n != layout.num_players:
        raise ValueError(f"scheme expects {scheme.n} players but the layout has "
                         f"{layout.num_players}")
    access, _, honest = scheme._player_rows
    evaluated = slice(1) if _interchangeable(state, layout) else slice(None)
    access_side = _infer(state, layout, "x", access[evaluated])
    adversarial_side = _infer(state, layout, "p", honest[evaluated])
    # A side whose one row is every player is the all-player inference, bit for bit.
    everyone = np.arange(layout.num_players)[None]
    everyone_x = access_side if scheme.k == scheme.n else _infer(state, layout, "x", everyone)
    everyone_p = adversarial_side if scheme.k == 1 else _infer(state, layout, "p", everyone)
    return KeyRates(access_side, adversarial_side, everyone_x, everyone_p,
                    combine(access_side[1], access_side[0], adversarial_side[0]),
                    combine(everyone_x[1], everyone_x[0], everyone_p[0]), evaluated)


def _spread(terms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A side's terms at its :class:`KeyRates` ``evaluated`` rows, one per row of ``rows``,
    as a read-only view: a lone evaluated row, the first structure, stands for every row."""
    return np.broadcast_to(terms, (len(rows), *terms.shape[1:]))


def keyrate_eavesdropping(state: GaussianState, layout: PartyLayout) -> EavesdroppingReport:
    """Bound secure against external eavesdropping only.

    Both joint variables are optimal over *all* players.
    """
    layout.check_state(state)
    (v_x, dealer_x), (v_p, dealer_p), bound = _everyone(state, layout)
    (v_x,), (v_p,) = v_x.tolist(), v_p.tolist()
    everyone = np.arange(layout.num_players)[None]
    (x_gains,), (p_gains,) = (_gains(state, layout, basis, everyone) for basis in "xp")
    return EavesdroppingReport(
        rate=float(bound.rate),
        mutual_information=float(bound.access_bits[0]),
        holevo_bound=float(bound.adversarial_holevo[0]),
        v_x_conditional=v_x,
        v_p_conditional=v_p,
        v_x_unconditional=dealer_x,
        v_p_unconditional=dealer_p,
        inference_product=v_x * v_p,
        threshold=SECURITY_THRESHOLD,
        x_gains=JointVariable("x", dict(zip(layout.player_modes, x_gains))),
        p_gains=JointVariable("p", dict(zip(layout.player_modes, p_gains))),
    )


def keyrate_qss(state: GaussianState, layout: PartyLayout,
                scheme: ThresholdScheme) -> KeyRateReport:
    """Combined (k, n) bound: min access mutual information minus max Holevo.

    The per-structure report of :func:`key_rates` on one state.
    """
    layout.check_state(state)
    rates = key_rates(state, layout, scheme)
    (access_v, dealer_x), (adversarial_v, dealer_p) = rates.access, rates.adversarial
    bound, evaluated = rates.combined, rates.evaluated

    names, (access, colluding, honest) = layout.player_modes, scheme._player_rows
    access_g = _gains(state, layout, "x", access[evaluated])
    adversarial_g = _gains(state, layout, "p", honest[evaluated])
    # Player j alone dishonest: the all-player x side against the p side of every player
    # but j, for k = 2 the adversarial structures' honest sides already.
    others = _complements(np.arange(scheme.n)[:, None], scheme.n)
    single = adversarial_v if scheme.k == 2 else _infer(
        state, layout, "p", others[evaluated])[0]
    v_x = np.broadcast_to(rates.everyone_x[0], (scheme.n, 1))
    dishonest = combine(np.full(scheme.n, dealer_x), v_x, _spread(single, others)[:, None])
    access_v, access_bits, access_g = (_spread(terms, access) for terms in (
        access_v, bound.access_bits, access_g))
    adversarial_v, holevo, adversarial_g = (_spread(terms, honest) for terms in (
        adversarial_v, bound.adversarial_holevo, adversarial_g))
    report = KeyRateReport(
        scheme=scheme,
        combined_rate=float(bound.rate),
        positive=bool(bound.rate > 0.0),
        eavesdropping_rate=float(rates.eavesdropping.rate),
        dishonest_rates=dict(zip(names, dishonest.rate.tolist())),
        access_mutual_information=_StructureMap(names, access, access_bits),
        access_conditional_variance=_StructureMap(names, access, access_v),
        access_gains=_StructureMap(names, access, access_g, "x", access),
        adversarial_holevo=_StructureMap(names, colluding, holevo),
        adversarial_conditional_variance=_StructureMap(names, colluding, adversarial_v),
        adversarial_gains=_StructureMap(names, colluding, adversarial_g, "p", honest),
        binding_access=_labels(names, access[[bound.binding_access]])[0],
        binding_adversarial=_labels(names, colluding[[bound.binding_adversarial]])[0],
        dealer_x_variance=dealer_x,
        dealer_p_variance=dealer_p,
        inference_product=float(access_v[bound.binding_access]
                                * adversarial_v[bound.binding_adversarial]),
        threshold=SECURITY_THRESHOLD,
    )
    object.__setattr__(report, "_everyone_variances",
                       (*rates.everyone_x[0].tolist(), *rates.everyone_p[0].tolist()))
    return report
