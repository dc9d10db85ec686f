"""Agent-alternative cost matrices and the geometry checks built on them.

A cost matrix is admissible when every quadrilateral inequality
``d(v,c) <= d(v,c') + d(v',c') + d(v',c)`` holds; such a matrix is exactly
the agent-alternative restriction of a genuine metric on agents plus
alternatives, and ``complete_metric`` constructs that extension. The module
also evaluates every cost objective used elsewhere: column sums, sums of the
k largest entries, percentiles, p-norms, and submajorization ratios.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "CostMatrix",
    "FullMetric",
    "complete_metric",
    "is_consistent",
    "is_q_metric",
    "lp_norm",
    "percentile_cost",
    "random_box_q_metric",
    "random_line_metric",
    "social_cost",
    "submajorization_ratio",
    "top_k_cost",
]

DEFAULT_GEOMETRY_TOL = 1e-9


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
    return (
        vals[:, None, :, None]
        - vals[:, None, None, :]
        - vals[None, :, None, :]
        - vals[None, :, :, None]
    )


def is_q_metric(d, tol: float = DEFAULT_GEOMETRY_TOL, paranoid: bool = False):
    """Check every quadrilateral inequality of ``d``.

    Returns:
        ``(True, None)``, or ``(False, (v, v', c, c'))`` with the first
        violating quadruple in lexicographic order. With ``paranoid`` the
        degenerate quadruples (equal agents or equal alternatives) are checked
        too; they hold identically for nonnegative matrices.
    """
    vals = _as_values(d)
    gaps = _quad_gaps(vals)
    if not paranoid:
        n, m = vals.shape
        same_agent = np.eye(n, dtype=bool)
        same_alt = np.eye(m, dtype=bool)
        gaps = np.where(same_agent[:, :, None, None], -np.inf, gaps)
        gaps = np.where(same_alt[None, None, :, :], -np.inf, gaps)
    bad = gaps > tol
    if not bad.any():
        return True, None
    v, vp, c, cp = np.argwhere(bad)[0]
    return False, (int(v), int(vp), int(c), int(cp))


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


def submajorization_ratio(x, y) -> float:
    """Smallest ``a`` with every descending prefix sum of ``x`` at most ``a`` times ``y``'s.

    A prefix pair ``0/0`` contributes 1; ``positive/0`` makes the ratio
    infinite, which is a legal return value.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("vectors must have equal length")
    sx = np.sort(x)[::-1].cumsum()
    sy = np.sort(y)[::-1].cumsum()
    best = 0.0
    for px, py in zip(sx, sy):
        if py <= 0.0:
            ratio = 1.0 if px <= 0.0 else math.inf
        else:
            ratio = px / py
        best = max(best, ratio)
    return float(best)


def lp_norm(x, p) -> float:
    x = np.asarray(x, dtype=float)
    if p == 1:
        return float(np.abs(x).sum())
    if p == 2:
        return float(np.sqrt((x * x).sum()))
    if p in (math.inf, np.inf, "inf"):
        return float(np.abs(x).max())
    raise ValueError("p must be 1, 2 or inf")


def random_line_metric(num_agents, num_alternatives, rng, length=10.0) -> CostMatrix:
    """Costs from uniform points on a segment; admissible by construction."""
    agents = rng.uniform(0.0, length, size=num_agents)
    alts = rng.uniform(0.0, length, size=num_alternatives)
    return CostMatrix(np.abs(agents[:, None] - alts[None, :]))


def random_box_q_metric(
    num_agents, num_alternatives, rng, scale=1.0, max_tries=10_000
) -> CostMatrix:
    """Rejection-sample uniform entries until the quadrilateral checks pass.

    Covers matrices that no line embedding produces. Keep dimensions small;
    the acceptance rate drops quickly with size.
    """
    for _ in range(max_tries):
        d = CostMatrix(rng.uniform(0.0, scale, size=(num_agents, num_alternatives)))
        if is_q_metric(d)[0]:
            return d
    raise RuntimeError(
        f"no q-metric found in {max_tries} draws at size "
        f"{num_agents}x{num_alternatives}"
    )
