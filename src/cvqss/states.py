"""Resource states and lossy channels for the secret-sharing protocol.

The reference resource is a cluster-type state: squeezed vacua coupled by
x-x gates along a graph, with each player's mode sent through an
individual attenuating channel. The dealer keeps one mode ("A"); players
hold the rest. :func:`build_kn_state` builds its covariance as one array in
three passes (squeezers, one gate per edge, one loss dilation per player)
that repeat the matmuls of the gate-by-gate oracle in ``tests/helpers.py``,
so the two agree bit for bit; no state object is made per gate or channel.

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
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .gaussian import GaussianState, Quadrature, VACUUM_VARIANCE, squeezed_vacuum

_CONJUGATE = {"x": "p", "p": "x"}

#: Most players a resource or a scheme may have; C(n, k) growth makes larger
#: schemes useless at desk scale.
MAX_PLAYERS = 24


@dataclass(frozen=True)
class ChannelSpec:
    """A one-mode attenuating channel.

    Attributes:
        transmissivity: Power transmissivity T in [0, 1]; 1 is the identity.
        excess_noise: Symmetric added variance in vacuum units on top of the
            quantum-limited loss; 0 is the pure-loss channel.
    """

    transmissivity: float
    excess_noise: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.transmissivity <= 1.0:
            raise ValueError(f"transmissivity must lie in [0, 1], got {self.transmissivity}")
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


def _bfs_distances(nodes: Sequence, edges: Sequence, root) -> dict:
    adjacency = {node: set() for node in nodes}
    for a, b in edges:
        if a not in adjacency or b not in adjacency:
            raise ValueError(f"edge ({a!r}, {b!r}) references an unknown node")
        if a == b:
            raise ValueError(f"self-loop on {a!r}")
        adjacency[a].add(b)
        adjacency[b].add(a)
    dist = {root: 0}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neigh in adjacency[node]:
            if neigh not in dist:
                dist[neigh] = dist[node] + 1
                queue.append(neigh)
    return dist


def _congruence(s: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """``s cov s^T`` for one covariance or a stack, symmetrised as in :class:`GaussianState`."""
    cov = s @ cov @ s.T
    return 0.5 * (cov + cov.swapaxes(-1, -2))


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

    Each gate maps p_a -> p_a + g x_b and p_b -> p_b + g x_a. Each channel
    is a dilation: the mode meets a vacuum ancilla on a beam splitter of
    transmissivity T (x -> sqrt(T) x + sqrt(1-T) x_anc, the ancilla taking
    the minus sign; p alike), the ancilla is discarded and the excess noise
    added, so the mode's variances map to T*V + (1-T)/2 + excess_noise.
    Each ``S cov S^T`` is symmetrised as :class:`GaussianState` does.
    Folding the gates into one matrix, or the channels into one dilation,
    moves ulps (a 16-player star; mixed channels).

    Args:
        n: Number of players, from 2 to MAX_PLAYERS.
        r: Input squeezing parameter, shared by all modes; an array of
            them builds the stack of their resources.
        specs: Mapping from player label to its ChannelSpec.
        topology: Iterable of undirected edges over {"A"} | player labels;
            must form a connected graph.
        cz_weight: Gate weight on every edge; must be finite.
        player_labels: Optional custom player labels (default B1..Bn).

    Returns:
        (state, layout) pair.
    """
    if n < 2:
        raise ValueError("need at least two players")
    if n > MAX_PLAYERS:
        raise ValueError(f"n = {n} players exceeds the supported maximum of {MAX_PLAYERS}")
    if player_labels is None:
        player_labels = [f"B{i}" for i in range(1, n + 1)]
    player_labels = list(player_labels)
    if len(player_labels) != n:
        raise ValueError(f"expected {n} player labels, got {len(player_labels)}")
    nodes = ["A"] + player_labels

    edges = [tuple(edge) for edge in topology]
    dist = _bfs_distances(nodes, edges, "A")
    disconnected = set(nodes) - set(dist)
    if disconnected:
        # A player with no path to the dealer shares no correlations, so the
        # key rate would be trivially nonpositive; reject loudly instead.
        raise ValueError(f"topology is disconnected from the dealer: "
                         f"{sorted(disconnected, key=str)}")

    block = squeezed_vacuum(r, label="A").cov
    if not math.isfinite(cz_weight):
        raise ValueError(f"coupling weight must be finite, got {cz_weight}")
    missing_specs = set(player_labels) - set(specs)
    if missing_specs:
        raise ValueError(f"missing channel specs for players: "
                         f"{sorted(missing_specs, key=str)}")

    dim = 2 * len(nodes)
    x_row = {label: 2 * k for k, label in enumerate(nodes)}  # p is the next row
    cov = np.zeros(block.shape[:-2] + (dim, dim))
    for k in range(0, dim, 2):
        cov[..., k:k + 2, k:k + 2] = block
    for a, b in edges:
        gate = np.eye(dim)
        gate[x_row[a] + 1, x_row[b]] = gate[x_row[b] + 1, x_row[a]] = cz_weight
        cov = _congruence(gate, cov)
    dilated = np.zeros(cov.shape[:-2] + (dim + 2, dim + 2))
    dilated[..., dim:, dim:] = VACUUM_VARIANCE * np.eye(2)
    for label in player_labels:
        spec = specs[label]
        c, s = math.sqrt(spec.transmissivity), math.sqrt(1.0 - spec.transmissivity)
        splitter = np.eye(dim + 2)
        for row, ancilla in ((x_row[label], dim), (x_row[label] + 1, dim + 1)):
            splitter[row, row] = splitter[ancilla, ancilla] = c
            splitter[row, ancilla], splitter[ancilla, row] = s, -s
        dilated[..., :dim, :dim] = cov
        cov = _congruence(splitter, dilated)[..., :dim, :dim]
        for row in (x_row[label], x_row[label] + 1):
            cov[..., row, row] += spec.excess_noise

    conjugate = frozenset(lab for lab in player_labels if dist[lab] % 2 == 1)
    layout = PartyLayout("A", tuple(player_labels), conjugate)
    return GaussianState(np.zeros(dim), cov, nodes), layout


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
