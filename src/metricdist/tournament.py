"""Pairwise-majority structure of a profile.

``build_weighted`` counts, for every ordered pair, how many agents prefer the
first alternative; ``build_majority`` orients each pair by majority, with
ties broken by an explicit total order. Rules that consume only these graphs
cannot distinguish profiles that aggregate identically.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MajorityDigraph",
    "WeightedTournament",
    "build_majority",
    "build_weighted",
    "normalize_tie_break",
]


class WeightedTournament:
    """M x M table of pairwise support counts, zero diagonal."""

    __slots__ = ("weights", "num_agents")

    def __init__(self, weights, num_agents):
        arr = np.array(weights, dtype=int)
        arr.setflags(write=False)
        self.weights = arr
        self.num_agents = num_agents

    @property
    def num_alternatives(self) -> int:
        return self.weights.shape[0]

    def edge_list_text(self) -> str:
        """One '<i> <j> <weight>' line per ordered pair, 1-based indices."""
        m = self.num_alternatives
        lines = [
            f"{i + 1} {j + 1} {int(self.weights[i, j])}"
            for i in range(m)
            for j in range(m)
            if i != j
        ]
        return "\n".join(lines) + "\n"


class MajorityDigraph:
    """Complete asymmetric orientation: exactly one edge per unordered pair."""

    __slots__ = ("adjacency",)

    def __init__(self, adjacency):
        arr = np.array(adjacency, dtype=bool)
        arr.setflags(write=False)
        self.adjacency = arr

    @property
    def num_alternatives(self) -> int:
        return self.adjacency.shape[0]

    def out_degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    def edge_list_text(self) -> str:
        m = self.num_alternatives
        lines = [
            f"{i + 1} {j + 1}"
            for i in range(m)
            for j in range(m)
            if self.adjacency[i, j]
        ]
        return "\n".join(lines) + "\n"


def normalize_tie_break(tie_break, num_alternatives: int) -> tuple[int, ...]:
    """Validate a total order over alternatives; default is index order."""
    if tie_break is None:
        return tuple(range(num_alternatives))
    order = tuple(int(x) for x in tie_break)
    if sorted(order) != list(range(num_alternatives)):
        raise ValueError("tie_break must be a permutation of all alternatives")
    return order


def build_weighted(profile) -> WeightedTournament:
    """Count ``w(i, j) = #{agents preferring i over j}`` for all ordered pairs.

    Built once per profile and cached on it: profiles are immutable, and
    every tournament rule reads the same table. Rankings are strict, so every
    agent prefers exactly one side of each pair: only the pairs ``i < j`` are
    counted, and ``w(j, i) = N - w(i, j)``.
    """
    if profile._tournament is None:
        # One alternative at a time over positions.T, so the temporaries are
        # N x M rather than the N x M x M of a broadcast comparison. Positions
        # are below M and counts at most N, so the narrowest unsigned types
        # hold them, and narrow sums vectorize best.
        n, m = profile.num_agents, profile.num_alternatives
        pos = np.ascontiguousarray(profile.positions.T, dtype=np.min_scalar_type(m))
        count = np.min_scalar_type(n)
        weights = np.zeros((m, m), dtype=int)
        for i, row in enumerate(pos):
            weights[i, i + 1 :] = np.less(row, pos[i + 1 :]).sum(axis=1, dtype=count)
            weights[i + 1 :, i] = n - weights[i, i + 1 :]
        profile._tournament = WeightedTournament(weights, n)
    return profile._tournament


def build_majority(profile, tie_break=None) -> MajorityDigraph:
    """Orient every pair toward the majority side.

    An exact ``N/2`` split is resolved toward the alternative appearing
    earlier in ``tie_break``.
    """
    order = normalize_tie_break(tie_break, profile.num_alternatives)
    priority = np.empty(len(order), dtype=int)
    priority[list(order)] = np.arange(len(order))
    w = build_weighted(profile).weights
    n = profile.num_agents
    m = profile.num_alternatives
    adjacency = 2 * w > n
    ties = (2 * w == n) & (priority[:, None] < priority[None, :])
    adjacency = adjacency | ties
    adjacency[np.eye(m, dtype=bool)] = False
    return MajorityDigraph(adjacency)
