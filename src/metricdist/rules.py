"""The four voting rules whose worst-case behaviour this package measures.

Deterministic rules return a winner plus an audit trail; the randomized rule
returns a probability vector. Tie handling is always an explicit input and
is recorded in the outcome, never hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from metricdist.profiles import PreferenceProfile, top_choice_counts
from metricdist.tournament import build_majority, build_weighted, normalize_tie_break

__all__ = [
    "RuleOutcome",
    "copeland",
    "lexicographic_pairs",
    "randomized_dictatorship",
    "ranked_pairs",
    "schulze",
]

@dataclass(frozen=True)
class RuleOutcome:
    """Winner (deterministic) or distribution (randomized), plus audit data."""

    winner: int | None = None
    distribution: np.ndarray | None = None
    audit: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.distribution is not None:
            dist = np.asarray(self.distribution, dtype=float)
            if (dist < 0).any() or abs(dist.sum() - 1.0) > 1e-12:
                raise ValueError("distribution must be nonnegative and sum to 1")
            dist.setflags(write=False)
            object.__setattr__(self, "distribution", dist)


def copeland(profile: PreferenceProfile, tie_break=None) -> RuleOutcome:
    """Winner with the most pairwise majority victories.

    Scores are out-degrees of the majority digraph built with the same
    ``tie_break``, which also resolves score ties.
    """
    order = normalize_tie_break(tie_break, profile.num_alternatives)
    digraph = build_majority(profile, order)
    scores = digraph.out_degrees()
    best = max(scores)
    winner = next(c for c in order if scores[c] == best)
    return RuleOutcome(
        winner=int(winner),
        audit={"scores": scores.tolist(), "tie_break": list(order)},
    )


def lexicographic_pairs(num_alternatives: int) -> list[tuple[int, int]]:
    """Default edge priority: all ordered pairs in lexicographic order."""
    return [
        (i, j)
        for i in range(num_alternatives)
        for j in range(num_alternatives)
        if i != j
    ]


def ranked_pairs(profile: PreferenceProfile, edge_tie_break=None) -> RuleOutcome:
    """Lock pairwise results from heaviest to lightest, skipping cycle-makers.

    ``edge_tie_break`` is a total priority order over ordered pairs used
    among equal-weight edges. The winner is the unique source of the locked
    graph; the audit trail records the full processing sequence, and
    ``reachable[a, b]`` whether the locked edges lead from ``a`` to ``b``.
    """
    m = profile.num_alternatives
    every_pair = np.flatnonzero(~np.eye(m, dtype=bool))  # i * m + j, lexicographic
    if edge_tie_break is None:
        codes = every_pair
    else:
        invalid = ValueError("edge_tie_break must order every ordered pair once")
        try:
            pairs = np.array([(int(i), int(j)) for i, j in edge_tie_break], dtype=int)
        except OverflowError:
            raise invalid from None
        pairs = pairs.reshape(-1, 2)
        codes = pairs[:, 0] * m + pairs[:, 1]
        if not ((pairs >= 0) & (pairs < m)).all() or not np.array_equal(
            np.sort(codes), every_pair
        ):
            raise invalid
    tails, heads = np.divmod(codes, m)

    weights = build_weighted(profile).weights[tails, heads]
    order = np.argsort(-weights, kind="stable")  # heaviest first, ties by priority
    # Transitive closure of the locked edges as bitsets: bit b of below[a]
    # (and bit a of above[b]) is set when the locked edges lead from a to b.
    below = [0] * m
    above = [0] * m
    locked = []
    for i, j, weight in zip(
        tails[order].tolist(), heads[order].tolist(), weights[order].tolist()
    ):
        if below[j] >> i & 1:
            continue
        locked.append((i, j, weight))
        if below[i] >> j & 1:
            continue  # implied by the edges already locked
        sources, targets = above[i] | 1 << i, below[j] | 1 << j
        for a in _members(sources):
            below[a] |= targets
        for b in _members(targets):
            above[b] |= sources

    roots = [c for c in range(m) if not above[c]]
    if len(roots) != 1:
        raise AssertionError(f"locked graph must have a unique source, found {roots}")
    width = (m + 7) // 8
    packed = np.frombuffer(
        b"".join(mask.to_bytes(width, "little") for mask in below), dtype=np.uint8
    )
    reachable = np.unpackbits(
        packed.reshape(m, width), axis=1, count=m, bitorder="little"
    ).astype(bool)
    return RuleOutcome(
        winner=roots[0],
        audit={"locked": locked, "reachable": reachable},
    )


def _members(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def schulze(profile: PreferenceProfile, tie_break=None) -> RuleOutcome:
    """Winner by strongest-path comparison.

    Paths may only use edges whose weight is at least that of the reverse
    edge; a path's strength is its minimum edge weight, and absence of a path
    counts as strength 0. The winner weakly beats everyone on path strength,
    with ``tie_break`` choosing among co-winners.
    """
    order = normalize_tie_break(tie_break, profile.num_alternatives)
    w = build_weighted(profile).weights
    m = profile.num_alternatives

    p = np.where(w >= w.T, w, 0).astype(float)
    np.fill_diagonal(p, 0.0)
    for mid in range(m):
        p = np.maximum(p, np.minimum(p[:, mid : mid + 1], p[mid : mid + 1, :]))
        np.fill_diagonal(p, 0.0)

    beats_or_ties = p >= p.T
    np.fill_diagonal(beats_or_ties, True)
    winners = np.flatnonzero(beats_or_ties.all(axis=1))
    if winners.size == 0:
        raise AssertionError("strongest-path relation produced no winner")
    winner_set = set(winners.tolist())
    winner = next(c for c in order if c in winner_set)
    return RuleOutcome(
        winner=int(winner),
        audit={
            "path_strengths": p.tolist(),
            "co_winners": sorted(winner_set),
            "tie_break": list(order),
        },
    )


def randomized_dictatorship(profile: PreferenceProfile) -> RuleOutcome:
    """Pick each alternative with probability proportional to its top-choice count."""
    counts = top_choice_counts(profile)
    return RuleOutcome(
        distribution=counts / profile.num_agents,
        audit={"top_choice_counts": counts.tolist()},
    )
