"""Agent-alternative cost matrices and the geometry checks built on them.

A cost matrix is admissible when every quadrilateral inequality
``d(v,c) <= d(v,c') + d(v',c') + d(v',c)`` holds; such a matrix is exactly
the agent-alternative restriction of a genuine metric on agents plus
alternatives, and ``complete_metric`` constructs that extension. The module
also evaluates every cost objective used elsewhere: column sums, sums of the
k largest entries and percentiles.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CostMatrix",
    "FullMetric",
    "complete_metric",
    "is_consistent",
    "is_q_metric",
    "percentile_cost",
    "random_box_q_metric",
    "random_line_metric",
    "social_cost",
    "top_k_cost",
    "top_k_ratio",
]

DEFAULT_GEOMETRY_TOL = 1e-9
# Most entries of one block of is_q_metric's per-pair bounds or gaps.
_Q_BLOCK = 1 << 18
_EPS = float(np.finfo(float).eps)
# Draws random_box_q_metric makes before it gives up.
_BOX_TRIES = 10_000


class CostMatrix:
    """Nonnegative costs ``d(agent, alternative)`` as an immutable N x M array."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.array(values, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("cost matrix must be a nonempty 2-d array")
        if not np.isfinite(arr).all():
            raise ValueError("cost matrix entries must be finite")
        if (arr < 0).any():
            raise ValueError("cost matrix entries must be nonnegative")
        arr.setflags(write=False)
        self.values = arr

    @property
    def num_agents(self) -> int:
        return self.values.shape[0]

    @property
    def num_alternatives(self) -> int:
        return self.values.shape[1]

    def scaled(self, factor: float) -> "CostMatrix":
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        return CostMatrix(self.values * factor)

    def column(self, c: int) -> np.ndarray:
        return self.values[:, c]

    def __eq__(self, other):
        return isinstance(other, CostMatrix) and np.array_equal(
            self.values, other.values
        )

    def __repr__(self):
        return f"CostMatrix({self.values.tolist()!r})"


class FullMetric:
    """Symmetric distance table over agents followed by alternatives.

    Row/column order is agents ``0..N-1`` then alternatives ``N..N+M-1``.
    """

    __slots__ = ("table", "num_agents", "num_alternatives")

    def __init__(self, table, num_agents, num_alternatives):
        arr = np.array(table, dtype=float)
        arr.setflags(write=False)
        self.table = arr
        self.num_agents = num_agents
        self.num_alternatives = num_alternatives

    def max_triangle_violation(self) -> float:
        """Largest amount by which any triple violates ``d(x,z) <= d(x,y)+d(y,z)``."""
        t = self.table
        gap = t[:, None, :] - t[:, :, None] - t[None, :, :]
        return float(gap.max())

    def max_symmetry_violation(self) -> float:
        return float(np.abs(self.table - self.table.T).max())


def _as_values(d) -> np.ndarray:
    return d.values if isinstance(d, CostMatrix) else np.asarray(d, dtype=float)


def _quad_gaps(vals: np.ndarray) -> np.ndarray:
    # gaps[v, vp, c, cp] = d(v,c) - d(v,cp) - d(vp,cp) - d(vp,c)
    return _pair_gaps(vals[:, None], vals[None])


def _pair_gaps(a, b):
    """``gaps[..., c, cp]`` of agent rows ``a`` (v) against ``b`` (v')."""
    return a[..., :, None] - a[..., None, :] - b[..., None, :] - b[..., :, None]


def is_q_metric(d, tol: float = DEFAULT_GEOMETRY_TOL):
    """Check every quadrilateral inequality of ``d``.

    Only proper quadruples count: a degenerate one (equal agents or equal
    alternatives) has gap -2 d(v, c') or -2 d(v', c), never positive for a
    nonnegative matrix. Skipping them keeps the answer right for any array,
    negative entries too.

    Each pair v != v' bounds its gaps by ``max_c [d(v,c) - d(v',c)] -
    min_c' [d(v,c') + d(v',c')]``, O(N^2 M) in all; only pairs whose bound
    is not below ``tol`` by more than round-off get their gaps, in ``(v, v')``
    order, so the answer is that of every gap. Memory is bounded by blocks.

    Returns:
        ``(True, None)``, or ``(False, (v, v', c, c'))`` with the first
        violating quadruple in lexicographic order.
    """
    vals = _as_values(d)
    n, m = vals.shape
    if n < 2 or m < 2:
        return True, None
    # Either formula rounds at most three sums of at most four entries, so
    # a gap and its pair's bound each err by under 5 eps max|d|.
    floor = tol - 16 * _EPS * max(1.0, float(np.abs(vals).max()))
    step = max(1, _Q_BLOCK // (n * m))
    for start in range(0, n, step):
        block = vals[start : start + step]
        spread = (block[:, None, :] - vals).max(axis=2)
        spread -= (block[:, None, :] + vals).min(axis=2)
        # NaN bounds are flagged too, so every array gets the gaps' answer.
        flagged = ~(spread <= floor)
        flagged.ravel()[start :: n + 1] = False  # the pairs v == v'
        if not flagged.any():
            continue
        quad = _first_violation(vals, np.argwhere(flagged) + (start, 0), tol)
        if quad is not None:
            return False, quad
    return True, None


def _first_violation(vals, pairs, tol):
    """The first ``(v, v', c, c')``, ``c != c'``, over the agent ``pairs`` in
    their order, whose gap exceeds ``tol``; or None."""
    m = vals.shape[1]
    proper = ~np.eye(m, dtype=bool)
    step = max(1, _Q_BLOCK // (m * m))
    for start in range(0, len(pairs), step):
        v, vp = pairs[start : start + step].T
        hits = np.argwhere((_pair_gaps(vals[v], vals[vp]) > tol) & proper)
        if hits.size:
            p, c, cp = hits[0]
            return int(v[p]), int(vp[p]), int(c), int(cp)
    return None


def is_consistent(d, profile, tol: float = DEFAULT_GEOMETRY_TOL):
    """Check that costs weakly agree with every agent's ranking.

    Adjacent ranking positions suffice: transitivity of ``<=`` covers the
    rest. Returns ``(True, None)`` or ``(False, (agent, preferred, other))``.
    """
    ranked = np.take_along_axis(_as_values(d), profile.rankings, axis=1)
    bad = ranked[:, :-1] > ranked[:, 1:] + tol
    if not bad.any():
        return True, None
    # The first violation in agent-major, then position order.
    v, t = np.unravel_index(np.argmax(bad), bad.shape)
    ranking = profile.rankings[v]
    return False, (int(v), int(ranking[t]), int(ranking[t + 1]))


def complete_metric(d, tol: float = DEFAULT_GEOMETRY_TOL) -> FullMetric:
    """Extend an admissible cost matrix to a full metric on agents + alternatives.

    Alternative-alternative distances are ``max_v |d(v,c) - d(v,c')|`` and
    agent-agent distances ``max_c |d(v,c) - d(v',c)|``; both choices keep the
    given agent-alternative entries and satisfy all triangle inequalities.

    Raises:
        ValueError: if ``d`` violates a quadrilateral inequality.
    """
    ok, witness = is_q_metric(d, tol)
    if not ok:
        raise ValueError(f"not a q-metric; violating quadruple {witness}")
    vals = _as_values(d)
    n, m = vals.shape
    alt_alt = np.abs(vals[:, :, None] - vals[:, None, :]).max(axis=0)
    ag_ag = np.abs(vals[:, None, :] - vals[None, :, :]).max(axis=2)
    full = np.zeros((n + m, n + m))
    full[:n, :n] = ag_ag
    full[n:, n:] = alt_alt
    full[:n, n:] = vals
    full[n:, :n] = vals.T
    np.fill_diagonal(full, 0.0)
    return FullMetric(full, n, m)


def social_cost(d, c: int) -> float:
    """Total agent cost of alternative ``c`` (column sum)."""
    return float(_as_values(d)[:, c].sum())


def top_k_cost(d, c: int, k: int) -> float:
    """Sum of the ``k`` largest agent costs of alternative ``c``."""
    col = _as_values(d)[:, c]
    if not 1 <= k <= col.size:
        raise ValueError(f"k must be in 1..{col.size}, got {k}")
    return float(np.sort(col)[::-1][:k].sum())


def top_k_ratio(d, x, k: int) -> float:
    """Top-k cost ratio of lottery ``x`` at the fixed metric ``d``.

    The expected top-k cost over the least one, ``sum_c x[c] top_k_cost(d,
    c, k) / min_c top_k_cost(d, c, k)``; at k = N it is the distortion of
    ``x`` at ``d``, and a point mass gives a winner's ratio.
    """
    tops = [top_k_cost(d, c, k) for c in range(_as_values(d).shape[1])]
    return float(np.asarray(x, dtype=float) @ tops) / min(tops)


def percentile_cost(d, c: int, alpha: float) -> float:
    """Smallest column value whose cumulative agent fraction strictly exceeds ``alpha``."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    col = np.sort(_as_values(d)[:, c])
    n = col.size
    for x in col:
        if (col <= x).sum() / n > alpha:
            return float(x)
    raise AssertionError("unreachable: the maximum always exceeds alpha < 1")


def random_line_metric(num_agents, num_alternatives, rng) -> CostMatrix:
    """Costs from uniform points on ``[0, 10]``; admissible by construction."""
    agents = rng.uniform(0.0, 10.0, size=num_agents)
    alts = rng.uniform(0.0, 10.0, size=num_alternatives)
    return CostMatrix(np.abs(agents[:, None] - alts[None, :]))


def random_box_q_metric(num_agents, num_alternatives, rng) -> CostMatrix:
    """Rejection-sample uniform ``[0, 1]`` entries until the quadrilateral checks pass.

    Covers matrices that no line embedding produces. Keep dimensions small;
    the acceptance rate drops quickly with size: after ``_BOX_TRIES`` draws
    it gives up.
    """
    for _ in range(_BOX_TRIES):
        d = CostMatrix(rng.uniform(0.0, 1.0, size=(num_agents, num_alternatives)))
        if is_q_metric(d)[0]:
            return d
    raise RuntimeError(
        f"no q-metric found in {_BOX_TRIES} draws at size "
        f"{num_agents}x{num_alternatives}"
    )
