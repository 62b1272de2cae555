"""Resource states and lossy channels for the secret-sharing protocol.

The reference resource is a cluster-type state: squeezed vacua coupled by
x-x gates along a graph, with each player's mode sent through an
individual attenuating channel. The dealer keeps one mode ("A"); players
hold the rest. :func:`build_kn_state` writes its covariance in closed form,
elementwise on the whole stack: no matrix is made per gate or channel, and
the only product, of the integer edge counts, is exact, so the bits depend on
no BLAS kernel and equal players get equal bits.

A crucial bookkeeping detail lives in :class:`PartyLayout`. The players'
devices are treated as black boxes: each player announces two outcome
streams labelled "x" and "p", but nothing forces the announced "x" to be
a homodyne of the physical x quadrature. For an x-x-coupled cluster the
strong correlations are cross-quadrature (the dealer's x correlates with
the p quadrature of its graph neighbours), so players at odd graph
distance from the dealer announce their measurements under swapped
labels. The layout records that assignment, and every inference routine
in :mod:`cvqss.keyrate` and :mod:`cvqss.simulation` resolves announced
coordinates through it. Given an array of squeezings, :func:`build_kn_state`
builds the stack of their resources, one covariance per value.
"""

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .gaussian import GaussianState, Quadrature, VACUUM_VARIANCE, _squeezed_covariance

_CONJUGATE = {"x": "p", "p": "x"}

#: Most players a resource or a scheme may have; C(n, k) growth makes larger
#: schemes useless at desk scale.
MAX_PLAYERS = 24


@dataclass(frozen=True)
class ChannelSpec:
    """A one-mode attenuating channel.

    Attributes:
        transmissivity: Power transmissivity T in [0, 1]; 1 is the identity. An
            array of them, each checked, gives each point of a stacked build its own T.
        excess_noise: Symmetric added variance in vacuum units on top of the
            quantum-limited loss; 0 is the pure-loss channel.
    """

    transmissivity: float
    excess_noise: float = 0.0

    def __post_init__(self):
        bad = [t for t in np.ravel(self.transmissivity).tolist() if not 0.0 <= t <= 1.0]
        if bad:
            raise ValueError(f"transmissivity must lie in [0, 1], got {bad[0]}")
        if not 0.0 <= self.excess_noise < np.inf:
            raise ValueError(f"excess noise must be finite and >= 0, got {self.excess_noise}")


@dataclass(frozen=True)
class PartyLayout:
    """Assignment of modes to the dealer and the players.

    Attributes:
        dealer_mode: Label of the dealer's (trusted) mode.
        player_modes: Ordered labels of the players' modes; player 1 first.
        conjugate_players: Players whose announced "x"/"p" outcome labels
            correspond to homodynes of the physically conjugate quadrature
            (see the module docstring). The dealer always measures literal
            quadratures.
    """

    dealer_mode: object
    player_modes: tuple
    conjugate_players: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        players = tuple(self.player_modes)
        conj = frozenset(self.conjugate_players)
        if self.dealer_mode in players:
            raise ValueError("dealer mode cannot also be a player mode")
        if len(set(players)) != len(players):
            raise ValueError("player modes must be unique")
        stray = conj - set(players)
        if stray:
            raise ValueError(f"conjugate players not in layout: {sorted(stray, key=str)}")
        object.__setattr__(self, "player_modes", players)
        object.__setattr__(self, "conjugate_players", conj)

    @property
    def num_players(self) -> int:
        return len(self.player_modes)

    def check_state(self, state: GaussianState, stacked: bool = False) -> None:
        """Refuse a state missing a layout mode, or a stack unless ``stacked``."""
        if not stacked:
            state._single_cov()
        missing = ({self.dealer_mode} | set(self.player_modes)) - set(state.labels)
        if missing:
            raise ValueError(f"layout references modes absent from the state: "
                             f"{sorted(missing, key=str)}")

    def announced_coordinate(self, player, basis: Quadrature) -> tuple:
        """Physical (mode, quadrature) behind a player's announced basis."""
        if player not in self.player_modes:
            raise ValueError(f"unknown player {player!r}")
        if player in self.conjugate_players:
            return (player, _CONJUGATE[basis])
        return (player, basis)

    def announced_coordinates(self, players: Sequence, basis: Quadrature) -> list:
        return [self.announced_coordinate(p, basis) for p in players]


def chain_topology(n: int) -> tuple:
    """Edges of the linear graph A - B1 - B2 - ... - Bn."""
    nodes = ["A"] + [f"B{i}" for i in range(1, n + 1)]
    return tuple((nodes[i], nodes[i + 1]) for i in range(n))


def star_topology(n: int) -> tuple:
    """Edges of the star graph with the dealer at the centre."""
    return tuple(("A", f"B{i}") for i in range(1, n + 1))


def build_kn_state(
    n: int,
    r: float,
    specs: Mapping,
    topology: Sequence,
    cz_weight: float = 1.0,
    player_labels: Sequence | None = None,
) -> tuple:
    """Build an (n+1)-mode cluster resource with per-player channels.

    p-squeezed vacua sit on the nodes {A, B1..Bn} (or the given player
    labels), x-x gates of weight ``cz_weight`` act along each topology
    edge, and each player's mode passes through its :class:`ChannelSpec`.
    Players at odd graph distance from the dealer are marked conjugate in
    the returned layout (BFS level parity; exact for trees and bipartite
    graphs, a heuristic labelling on graphs with odd cycles).

    Each gate maps p_a -> p_a + g x_b and p_b -> p_b + g x_a. The gates form
    S = I + g E with E^2 = 0, so they commute and two on one pair are one of
    weight 2g: with A the edge counts, S diag(V_x, V_p) S^T has xx = V_x I,
    px = g V_x A and pp = V_p I + g^2 V_x A^2. Each channel, what a vacuum
    ancilla on a beam splitter of transmissivity T leaves once discarded,
    scales its player's rows and columns by sqrt(T) and adds (1-T)/2 +
    excess_noise to its variances. Each entry is within 12 roundings of its
    exact value, and a point of a stack has the bits of its one-point build.

    Args:
        n: Number of players, from 2 to MAX_PLAYERS.
        r: Input squeezing parameter, shared by all modes; an array of
            them builds the stack of their resources.
        specs: Mapping from player label to its ChannelSpec; an array of T
            gives each point its own T, broadcast against ``r`` (a float is 0-d).
        topology: Iterable of undirected edges over {"A"} | player labels;
            must form a connected graph.
        cz_weight: Gate weight on every edge; must be finite and leave the
            covariance finite.
        player_labels: Optional custom player labels (default B1..Bn).

    Returns:
        (state, layout) pair.
    """
    if n < 2:
        raise ValueError(f"need at least two players, got n = {n}")
    if n > MAX_PLAYERS:
        raise ValueError(f"n = {n} players exceeds the supported maximum of {MAX_PLAYERS}")
    if player_labels is None:
        player_labels = [f"B{i}" for i in range(1, n + 1)]
    player_labels = list(player_labels)
    if len(player_labels) != n:
        raise ValueError(f"expected {n} player labels, got {len(player_labels)}")
    nodes = ["A"] + player_labels
    index = {}
    for i, node in enumerate(nodes):
        index.setdefault(node, i)  # a repeated label keeps its first position

    counts = np.zeros((len(nodes), len(nodes)), dtype=np.int64)  # A: edges per pair
    for a, b in topology:
        if a not in index or b not in index:
            raise ValueError(f"edge ({a!r}, {b!r}) references an unknown node")
        if a == b:
            raise ValueError(f"self-loop on {a!r}")
        counts[index[a], index[b]] += 1
        counts[index[b], index[a]] += 1
    # Each node's distance from the dealer, breadth first over the rows of counts.
    rows, level, queue = counts.tolist(), [0] + [-1] * n, [0]
    for i in queue:
        for j, edges in enumerate(rows[i]):
            if edges and level[j] < 0:
                level[j] = level[i] + 1
                queue.append(j)
    disconnected = {node for node in nodes if level[index[node]] < 0}
    if disconnected:
        # A player with no path to the dealer shares no correlations, so the
        # key rate would be trivially nonpositive; reject loudly instead.
        raise ValueError(f"topology is disconnected from the dealer: "
                         f"{sorted(disconnected, key=str)}")

    block = _squeezed_covariance(r)
    if not math.isfinite(cz_weight):
        raise ValueError(f"coupling weight must be finite, got {cz_weight}")
    missing_specs = set(player_labels) - set(specs)
    if missing_specs:
        raise ValueError(f"missing channel specs for players: "
                         f"{sorted(missing_specs, key=str)}")

    dim = 2 * len(nodes)
    points = np.broadcast_shapes(block.shape[:-2], *(
        np.shape(specs[label].transmissivity) for label in player_labels))
    scale, noise = np.ones(points + (dim,)), np.zeros(points + (dim,))
    for k, label in enumerate(player_labels, start=1):
        spec = specs[label]
        transmissivity = np.asarray(spec.transmissivity)[..., None]
        scale[..., 2 * k:2 * k + 2] = np.sqrt(transmissivity)
        noise[..., 2 * k:2 * k + 2] = (1.0 - transmissivity) * VACUUM_VARIANCE + spec.excess_noise
    v_x, v_p, eye = block[..., :1, :1], block[..., 1:, 1:], np.eye(len(nodes))
    cov = np.empty(points + (dim, dim))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        cov[..., ::2, ::2] = v_x * eye
        cov[..., 1::2, ::2] = cov[..., ::2, 1::2] = (cz_weight * v_x) * counts
        cov[..., 1::2, 1::2] = v_p * eye + (cz_weight * cz_weight * v_x) * (counts @ counts)
        # (sqrt(T_i) C_ij) sqrt(T_j), then + noise: the golden file's rounding order.
        cov = (scale[..., :, None] * cov) * scale[..., None, :]
        cov[..., range(dim), range(dim)] += noise
    if not np.isfinite(cov).all():
        raise ValueError(f"coupling weight {cz_weight} overflows the resource covariance "
                         "(g^2 exp(2r)/2 times a node's gate count)")

    conjugate = frozenset(lab for lab in player_labels if level[index[lab]] % 2 == 1)
    layout = PartyLayout("A", tuple(player_labels), conjugate)
    return GaussianState(cov, nodes), layout


def build_three_mode_chain(r: float, transmissivity: float, cz_weight: float = 1.0) -> tuple:
    """The three-mode linear cluster with symmetric loss on both players.

    Three squeezed vacua A, B, C; gates on A-B and B-C; quantum-limited
    attenuation of transmissivity T on B and C. Dealer A, players (B, C).
    """
    spec = ChannelSpec(transmissivity, 0.0)
    return build_kn_state(
        2, r,
        specs={"B": spec, "C": spec},
        topology=(("A", "B"), ("B", "C")),
        cz_weight=cz_weight,
        player_labels=("B", "C"),
    )
