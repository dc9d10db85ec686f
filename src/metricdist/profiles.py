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
    """Strict rankings, one per agent, most-preferred first (0-based indices).

    ``rankings[v, k]`` is agent ``v``'s ``k``-th choice, an N x M int table.
    ``rank_of[c, v]`` is the rank of alternative ``c`` for agent ``v``: the
    inverse permutations, stored M x N in the narrowest unsigned type that
    holds M, so the tournament counts read one alternative's ranks as one
    contiguous row. ``positions[v, c]`` holds the same ranks N x M as ints;
    it is derived from ``rank_of`` on each read. All three are read-only.
    """

    # ``_tournament`` caches the weighted tournament; ``tournament.build_weighted``
    # fills it on first use, which is sound because a profile never changes.
    __slots__ = ("rankings", "rank_of", "_tournament")

    def __init__(self, rankings):
        self._adopt(np.array(rankings, dtype=int))

    @classmethod
    def _owning(cls, rankings):
        """Profile that takes ``rankings``, an int array no one else holds, uncopied.

        The parser hands its fresh token array over this way, so it never
        holds the array and a copy at once. The array is frozen.
        """
        profile = cls.__new__(cls)
        profile._adopt(np.asarray(rankings, dtype=int))
        return profile

    def _adopt(self, arr):
        """Validate ``arr``, freeze it and keep it as the rankings.

        ``rank_of``, the inverse permutation of each row laid out M x N, is
        written by one flat scatter into a table filled with ``M``, a value
        no rank takes and the narrow type still holds. The scatter is also
        the check: a row of entries in ``0..M-1`` is a permutation exactly
        when it fills every slot of its column. The range check is one
        ``min`` and one ``max``; only when it fails are the rows with an
        entry out of range found and kept out of the scatter, so the error
        still names the first bad agent.
        """
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("rankings must be a nonempty 2-d table")
        n, m = arr.shape
        order = np.arange(m, dtype=np.min_scalar_type(m))
        inside = arr
        outside = np.zeros(n, dtype=bool)
        if arr.min() < 0 or arr.max() >= m:
            outside = ((arr < 0) | (arr >= m)).any(axis=1)
            inside = np.where(outside[:, None], order, arr)
        # Slot (c, v) of the M x N table is flat index c * N + v. A 1-d index
        # and values of its length take numpy's fastest scatter.
        slots = inside * n
        slots += np.arange(n)[:, None]
        rank_of = np.full((m, n), m, dtype=order.dtype)
        rank_of.ravel()[slots.ravel()] = np.tile(order, n)
        del slots
        if outside.any() or rank_of.max() == m:
            bad = outside | (rank_of == m).any(axis=0)
            v = int(np.argmax(bad))
            raise ValueError(f"agent {v + 1}: ranking is not a permutation of 1..{m}")
        arr.setflags(write=False)
        rank_of.setflags(write=False)
        self.rankings = arr
        self.rank_of = rank_of
        self._tournament = None

    @property
    def positions(self) -> np.ndarray:
        """``positions[v, c]``, the rank of alternative ``c`` for agent ``v``.

        An N x M read-only int table, the transpose of ``rank_of``, built on
        each read and not kept: only the metric polytope reads it, while it
        builds its tables, and a profile that kept it would hold its ranks
        twice for as long as it lives.
        """
        positions = np.ascontiguousarray(self.rank_of.T, dtype=int)
        positions.setflags(write=False)
        return positions

    @property
    def num_agents(self) -> int:
        return self.rankings.shape[0]

    @property
    def num_alternatives(self) -> int:
        return self.rankings.shape[1]

    def with_agents_permuted(self, order) -> "PreferenceProfile":
        """The profile whose agent ``v`` is this profile's agent ``order[v]``.

        ``order`` must be a permutation of ``0..N-1``; anything else, such
        as a repeated, missing or negative index, raises ``ValueError``.
        """
        order = np.asarray(order)
        n = self.num_agents
        if order.dtype.kind not in "iu" or not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError(f"order must be a permutation of 0..{n - 1}")
        return PreferenceProfile(self.rankings[order])

    def __eq__(self, other):
        return isinstance(other, PreferenceProfile) and np.array_equal(
            self.rankings, other.rankings
        )

    def __repr__(self):
        return f"PreferenceProfile({self.rankings.tolist()!r})"


class LabeledInstance:
    """A profile plus the constructed witness metric of its family."""

    __slots__ = ("profile", "metric")

    def __init__(self, profile, metric=None):
        if metric is not None:
            if metric.values.shape != (profile.num_agents, profile.num_alternatives):
                raise ValueError("metric dimensions do not match the profile")
            ok, quad = is_q_metric(metric)
            if not ok:
                raise ValueError(f"metric violates the quadrilateral inequality at {quad}")
            ok, witness = is_consistent(metric, profile)
            if not ok:
                raise ValueError(f"metric is inconsistent with the profile at {witness}")
        self.profile = profile
        self.metric = metric


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
    """Profile from a plain text, decoded from its bytes, or None for the line loop.

    A plain text holds only ``_PLAIN_BYTES``, so its non-blank lines are its
    data lines and every token is a run of decimal digits. One digit mask
    gives the last digit of every token, and from those the token count of
    each non-blank line (the header must have 2, each of the N rows M). A
    row token is read from its last ``width = len(str(M))`` digits, the only
    ones a rank in ``1..M`` can have; a longer token is read the same way
    when its extra leading digits are all ``0``, and any other goes to the
    line loop, since it cannot be at most M. The pass never raises: a text
    it cannot accept returns None, and the line loop then raises the error
    with its message and line.
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
    # The newlines around the text end its first and last lines, so every
    # token ends at a digit followed by a non-digit.
    buf = np.frombuffer(b"\n" + text + b"\n", dtype=np.uint8)
    del text
    digit = buf >= ord("0")
    ends = np.flatnonzero(digit[:-1] > digit[1:])
    per_line = np.diff(np.searchsorted(ends, np.flatnonzero(buf == ord("\n"))))
    per_line = per_line[per_line > 0]
    if per_line.size < 2 or per_line[0] != 2:
        return None
    n, m = (int(tok) for tok in buf[: ends[1] + 1].tobytes().split())
    if n < 1 or m < 1 or per_line.size - 1 != n or (per_line[1:] != m).any():
        return None
    width = len(str(m))
    digits = buf - ord("0")  # wraps below "0"; masked next
    del buf
    digits *= digit
    # values[p]: the number spelled by the last ``width`` digits of the run
    # ending at p (the whole run if shorter), below 10**width. Horner steps,
    # each reset to 0 by a non-digit.
    values = digits.astype(np.min_scalar_type(10**width))
    for _ in range(width - 1):
        step = values[:-1] * 10
        step += digits[1:]
        step *= digit[1:]
        values[1:] = step
        del step
    if _has_nonzero_lead(digit, digits, ends, width):
        return None
    ranks = values[ends[2:]]
    del digit, digits, values, ends
    rankings = np.subtract(ranks, 1, dtype=int).reshape(n, m)
    del ranks
    try:
        return PreferenceProfile._owning(rankings)
    except ValueError:
        return None


def _has_nonzero_lead(digit, digits, ends, width):
    """Whether a row token has more than ``width`` digits, not all extra ones 0.

    ``digit`` masks the digits of the padded text and ``digits`` holds their
    values; ``ends`` are the tokens' last digits, the first two the header's.
    """
    # run[p]: p and the width bytes before it are digits.
    run = digit.copy()
    for k in range(1, width + 1):
        run[k:] &= digit[:-k]
    if not run[ends[1] + 1 :].any():
        return False
    del run
    starts = np.flatnonzero(digit[1:] > digit[:-1]) + 1
    nonzero = np.cumsum(digits > 0)
    # A token's extra leading digits run from its start to ``end - width``;
    # a short token has none, and counts over the empty stretch before it.
    lead = np.maximum(ends - width, starts - 1)
    return bool((nonzero[lead[2:]] != nonzero[starts[2:] - 1]).any())


def serialize_profile(profile: PreferenceProfile) -> str:
    """Canonical text form: single spaces, newline endings, 1-based indices."""
    tokens = [str(c + 1) for c in range(profile.num_alternatives)]
    rows = [" ".join([tokens[c] for c in row]) for row in profile.rankings.tolist()]
    return f"{profile.num_agents} {profile.num_alternatives}\n" + "\n".join(rows) + "\n"


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
    return LabeledInstance(profile, metric)


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
    return LabeledInstance(PreferenceProfile(rankings), CostMatrix(costs))


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
    return LabeledInstance(PreferenceProfile(rankings), CostMatrix(costs))


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
    return LabeledInstance(PreferenceProfile(rankings), CostMatrix(costs))


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
    return LabeledInstance(PreferenceProfile(rankings), CostMatrix(costs))


def line_split_instance(n1: int, n2: int) -> LabeledInstance:
    """``n1`` agents co-located with alternative 0 and ``n2`` with alternative 1."""
    if n2 < 1 or n1 < n2:
        raise ValueError("need n1 >= n2 >= 1")
    rankings = [[0, 1]] * n1 + [[1, 0]] * n2
    costs = [[0.0, 1.0]] * n1 + [[1.0, 0.0]] * n2
    return LabeledInstance(PreferenceProfile(rankings), CostMatrix(costs))


def random_profile(num_agents: int, num_alternatives: int, rng) -> PreferenceProfile:
    """Uniform random strict rankings; pass a seeded ``numpy`` Generator."""
    rankings = [rng.permutation(num_alternatives) for _ in range(num_agents)]
    return PreferenceProfile(rankings)


def random_line_instance(num_agents: int, num_alternatives: int, rng) -> LabeledInstance:
    """Profile induced by random points on ``[0, 10]``, paired with those costs."""
    metric = random_line_metric(num_agents, num_alternatives, rng)
    rankings = np.argsort(metric.values, axis=1, kind="stable")
    return LabeledInstance(PreferenceProfile(rankings), metric)
