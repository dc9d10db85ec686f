"""Preference profiles, their file formats, and the benchmark instance families.

Profiles hold one strict ranking per agent. Files use 1-based alternative
indices; everything in memory is 0-based. Each generator returns a
``LabeledInstance`` pairing a profile with the cost matrix the family was
designed around, validated for admissibility and ranking-consistency at
construction.
"""

from __future__ import annotations

import numpy as np

from metricdist.metricspace import (
    CostMatrix,
    is_consistent,
    is_q_metric,
    random_line_metric,
)

__all__ = [
    "LabeledInstance",
    "PreferenceProfile",
    "ProfileParseError",
    "coupling_instance",
    "line_split_instance",
    "parse_cost_matrix",
    "parse_profile",
    "percentile_gap_instance",
    "random_line_instance",
    "random_profile",
    "ranked_pairs_hard_instance",
    "serialize_cost_matrix",
    "serialize_profile",
    "symmetric_tournament_instance",
    "top_choice_counts",
    "warmup_instance",
]


class ProfileParseError(ValueError):
    """Bad profile or cost-matrix text; carries the offending 1-based line."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class PreferenceProfile:
    """Strict rankings, one per agent, most-preferred first (0-based indices)."""

    # ``_tournament`` caches the weighted tournament; ``tournament.build_weighted``
    # fills it on first use, which is sound because a profile never changes.
    __slots__ = ("rankings", "positions", "_tournament")

    def __init__(self, rankings):
        arr = np.array(rankings, dtype=int)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("rankings must be a nonempty 2-d table")
        n, m = arr.shape
        order = np.arange(m)
        bad = (np.sort(arr, axis=1) != order).any(axis=1)
        if bad.any():
            v = int(np.argmax(bad))
            raise ValueError(f"agent {v + 1}: ranking is not a permutation of 1..{m}")
        # positions[v, c] = rank of alternative c in agent v's ordering: the
        # inverse permutation of each row, written by one scatter.
        positions = np.empty_like(arr)
        np.put_along_axis(positions, arr, order[None, :], axis=1)
        arr.setflags(write=False)
        positions.setflags(write=False)
        self.rankings = arr
        self.positions = positions
        self._tournament = None

    @property
    def num_agents(self) -> int:
        return self.rankings.shape[0]

    @property
    def num_alternatives(self) -> int:
        return self.rankings.shape[1]

    def prefers(self, v: int, a: int, b: int) -> bool:
        return self.positions[v, a] < self.positions[v, b]

    def with_agents_permuted(self, order) -> "PreferenceProfile":
        return PreferenceProfile(self.rankings[np.asarray(order, dtype=int)])

    def __eq__(self, other):
        return isinstance(other, PreferenceProfile) and np.array_equal(
            self.rankings, other.rankings
        )

    def __repr__(self):
        return f"PreferenceProfile({self.rankings.tolist()!r})"


class LabeledInstance:
    """A profile plus the constructed witness metric of its family."""

    __slots__ = ("profile", "metric", "meta")

    def __init__(self, profile, metric=None, meta=None):
        if metric is not None:
            if metric.values.shape != (profile.num_agents, profile.num_alternatives):
                raise ValueError("metric shape does not match the profile")
            ok, witness = is_q_metric(metric)
            if not ok:
                raise ValueError(f"constructed metric violates quadruple {witness}")
            ok, witness = is_consistent(metric, profile)
            if not ok:
                raise ValueError(f"constructed metric inconsistent at {witness}")
        self.profile = profile
        self.metric = metric
        self.meta = dict(meta or {})


def parse_profile(text) -> PreferenceProfile:
    """Parse the profile file format.

    Lines starting with ``#`` are comments; the first data line is ``N M``;
    then ``N`` lines each hold a permutation of ``1..M``. Plain texts are read
    in one vectorized pass; every other text, and every text that pass
    would reject, goes through the line loop, whose errors name the line.
    """
    profile = _parse_profile_vectorized(text)
    return profile if profile is not None else _parse_profile_lines(text)


def _parse_profile_lines(text) -> PreferenceProfile:
    """The line-by-line parse: any text, and the error names its line."""
    data = _data_lines(text)
    if not data:
        raise ProfileParseError("empty input")
    lineno, header = data[0]
    try:
        n, m = (int(tok) for tok in header.split())
    except ValueError:
        raise ProfileParseError(f"expected 'N M', got {header!r}", lineno) from None
    if n < 1 or m < 1:
        raise ProfileParseError("N and M must be positive", lineno)
    if len(data) - 1 != n:
        raise ProfileParseError(f"expected {n} ranking rows, found {len(data) - 1}")
    rankings = []
    for agent, (lineno, line) in enumerate(data[1:], start=1):
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise ProfileParseError("non-integer token", lineno) from None
        if len(row) != m:
            raise ProfileParseError(f"expected {m} entries", lineno)
        if sorted(row) != list(range(1, m + 1)):
            raise ProfileParseError(
                f"row {agent} is not a permutation of 1..{m}", lineno
            )
        rankings.append([x - 1 for x in row])
    return PreferenceProfile(rankings)


# The bytes a text may hold to take the vectorized path.
_PLAIN_BYTES = b"0123456789 \t\n"


def _parse_profile_vectorized(text):
    """Profile from a plain text in one pass, or None for the line loop.

    A plain text holds only ``_PLAIN_BYTES``, so its non-blank lines are its
    data lines and every token is a decimal integer. The pass counts the
    tokens on each non-blank line (the header must have 2, each of the N
    rows M) and reads them all with ``np.fromstring``. It never raises: a
    text it cannot accept returns None, and the line loop then raises the
    error with its message and line.
    """
    if isinstance(text, str):
        try:
            text = text.encode("ascii")
        except UnicodeEncodeError:
            return None
    elif not isinstance(text, bytes):
        return None
    if text.translate(None, _PLAIN_BYTES):
        return None
    per_line = _tokens_per_line(text)
    if per_line.size < 2 or per_line[0] != 2:
        return None
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    if values.size != per_line.sum():
        return None
    # fromstring clamps an overflowing token to the int64 maximum, which no
    # header can match and no row can hold; such texts fall through below.
    n, m = (int(x) for x in values[:2])
    if n < 1 or m < 1 or per_line.size - 1 != n or (per_line[1:] != m).any():
        return None
    rankings = values[2:].reshape(n, m)
    rankings -= 1
    try:
        return PreferenceProfile(rankings)
    except ValueError:
        return None


def _tokens_per_line(text: bytes) -> np.ndarray:
    """Token count of each non-blank line of a plain text, in order."""
    # The leading newline adds one blank line, so every token, the first
    # included, starts at a digit that follows a non-digit.
    buf = np.frombuffer(b"\n" + text, dtype=np.uint8)
    digit = buf >= ord("0")
    starts = np.flatnonzero(digit[1:] > digit[:-1])
    newlines = np.flatnonzero(buf == ord("\n"))
    counts = np.diff(np.searchsorted(starts, newlines), append=starts.size)
    return counts[counts > 0]


def serialize_profile(profile: PreferenceProfile) -> str:
    """Canonical text form: single spaces, newline endings, 1-based indices."""
    lines = [f"{profile.num_agents} {profile.num_alternatives}"]
    for row in profile.rankings:
        lines.append(" ".join(str(int(x) + 1) for x in row))
    return "\n".join(lines) + "\n"


def parse_cost_matrix(text) -> CostMatrix:
    """Parse the cost-matrix format: one row of decimals per agent."""
    data = _data_lines(text)
    if not data:
        raise ProfileParseError("empty input")
    rows = []
    width = None
    for lineno, line in data:
        try:
            row = [float(tok) for tok in line.split()]
        except ValueError:
            raise ProfileParseError("non-numeric token", lineno) from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ProfileParseError(f"expected {width} entries", lineno)
        rows.append(row)
    try:
        return CostMatrix(rows)
    except ValueError as exc:
        raise ProfileParseError(str(exc)) from None


def serialize_cost_matrix(matrix: CostMatrix) -> str:
    lines = [" ".join(repr(float(x)) for x in row) for row in matrix.values]
    return "\n".join(lines) + "\n"


def _data_lines(text):
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            out.append((lineno, stripped))
    return out


def top_choice_counts(profile: PreferenceProfile) -> np.ndarray:
    """Number of agents ranking each alternative first; sums to N."""
    return np.bincount(profile.rankings[:, 0], minlength=profile.num_alternatives)


# ---------------------------------------------------------------------------
# Instance families


def warmup_instance() -> LabeledInstance:
    """Three agents cycling over three alternatives, with its shortest-path costs."""
    profile = PreferenceProfile([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    metric = CostMatrix([[1, 1, 1], [3, 1, 1], [2, 2, 0]])
    return LabeledInstance(profile, metric, {"generator": "warmup"})


def coupling_instance(n: int) -> LabeledInstance:
    """Two coupled cyclic agents plus a bloc of unanimous agents, 5 alternatives.

    ``n`` copies of each cyclic agent and ``n + 1`` copies of the unanimous
    one. The paired metric gives the first and last alternatives total costs
    ``11n + 2`` and ``3n + 2``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    v1 = [3, 4, 1, 2, 0]
    v2 = [4, 2, 3, 0, 1]
    v0 = [0, 1, 2, 3, 4]
    rankings = [v1] * n + [v2] * n + [v0] * (n + 1)
    costs = (
        [[5, 3, 3, 1, 1]] * n + [[4, 4, 2, 2, 0]] * n + [[2, 2, 2, 2, 2]] * (n + 1)
    )
    return LabeledInstance(
        PreferenceProfile(rankings),
        CostMatrix(costs),
        {"generator": "coupling", "n": n},
    )


def ranked_pairs_hard_instance(n: int) -> LabeledInstance:
    """Adversarial family on ``2n + 1`` alternatives and ``n + 2`` agents.

    Two agents rank everything in index order at cost 2; rotated agent ``i``
    costs 1 on the last block, 3 on the middle block and 5 on the first
    ``i`` alternatives. The heavy consecutive edges of its weighted tournament
    force every lock-heaviest-first rule to pick alternative 0, whose total
    cost ratio against the last alternative is ``(5n + 4) / (n + 4)``.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    m = 2 * n + 1
    straight = list(range(m))
    rankings = [straight, straight]
    costs = [[2.0] * m, [2.0] * m]
    for i in range(1, n + 1):
        ranking = (
            list(range(n + i, m)) + list(range(i, n + i)) + list(range(0, i))
        )
        row = [0.0] * m
        for j0 in range(m):
            if n + i <= j0 <= 2 * n:
                row[j0] = 1.0
            elif i <= j0 <= n + i - 1:
                row[j0] = 3.0
            else:
                row[j0] = 5.0
        rankings.append(ranking)
        costs.append(row)
    return LabeledInstance(
        PreferenceProfile(rankings),
        CostMatrix(costs),
        {"generator": "ranked_pairs_hard", "n": n},
    )


def symmetric_tournament_instance(m: int) -> LabeledInstance:
    """Fully symmetric weighted tournament on ``m + 1`` alternatives, ``2m`` agents.

    Alternative 0 is the hidden good choice: one agent bloc ranks it first at
    cost 0 (cost 2 elsewhere), the other bloc ranks it last at constant cost
    1. Every ordered pair of alternatives is preferred by exactly ``m``
    agents, so no tournament-based rule can tell the alternatives apart.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    rankings = []
    for i in range(1, m + 1):
        rankings.append([0] + list(range(i, m + 1)) + list(range(1, i)))
    for i in range(1, m + 1):
        rankings.append(list(range(i - 1, 0, -1)) + list(range(m, i - 1, -1)) + [0])
    costs = [[0.0] + [2.0] * m] * m + [[1.0] * (m + 1)] * m
    return LabeledInstance(
        PreferenceProfile(rankings),
        CostMatrix(costs),
        {"generator": "symmetric_tournament", "m": m},
    )


def percentile_gap_instance(half: int, eps: float) -> LabeledInstance:
    """Two equal blocs over two alternatives with an ``eps``-cheap minority option.

    The first bloc ranks alternative 0 first at costs (1, 1); the second
    ranks alternative 1 first at costs (1, eps). Low-percentile objectives
    then separate the alternatives by a factor ``1 / eps``.
    """
    if half < 1:
        raise ValueError("half must be >= 1")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1] for the costs to respect rankings")
    rankings = [[0, 1]] * half + [[1, 0]] * half
    costs = [[1.0, 1.0]] * half + [[1.0, eps]] * half
    return LabeledInstance(
        PreferenceProfile(rankings),
        CostMatrix(costs),
        {"generator": "percentile_gap", "half": half, "eps": eps},
    )


def line_split_instance(n1: int, n2: int) -> LabeledInstance:
    """``n1`` agents co-located with alternative 0 and ``n2`` with alternative 1."""
    if n2 < 1 or n1 < n2:
        raise ValueError("need n1 >= n2 >= 1")
    rankings = [[0, 1]] * n1 + [[1, 0]] * n2
    costs = [[0.0, 1.0]] * n1 + [[1.0, 0.0]] * n2
    return LabeledInstance(
        PreferenceProfile(rankings),
        CostMatrix(costs),
        {"generator": "line_split", "n1": n1, "n2": n2},
    )


def random_profile(num_agents: int, num_alternatives: int, rng) -> PreferenceProfile:
    """Uniform random strict rankings; pass a seeded ``numpy`` Generator."""
    rankings = [rng.permutation(num_alternatives) for _ in range(num_agents)]
    return PreferenceProfile(rankings)


def random_line_instance(
    num_agents: int, num_alternatives: int, rng, length: float = 10.0
) -> LabeledInstance:
    """Profile induced by random points on a segment, paired with those costs."""
    metric = random_line_metric(num_agents, num_alternatives, rng, length)
    rankings = np.argsort(metric.values, axis=1, kind="stable")
    return LabeledInstance(
        PreferenceProfile(rankings), metric, {"generator": "random_line"}
    )
