import numpy as np
import pytest

from metricdist import linprog
from metricdist.linprog import (
    LinearProgram,
    LpInputError,
    LpStatus,
    SolverFailure,
    Tableau,
    solve,
)

from oracles import FullTableau, brute_force_lp_best, point_is_feasible


def test_single_variable_box():
    lp = LinearProgram("max", [1.0], [[1.0]], [1.0])
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-9)
    assert out.assignment[0] == pytest.approx(1.0, abs=1e-9)


def test_empty_region_is_infeasible():
    lp = LinearProgram("max", [1.0], [[1.0]], [-1.0])
    assert solve(lp).status is LpStatus.INFEASIBLE


def test_unbounded():
    lp = LinearProgram("max", [1.0], [[-1.0]], [1.0])
    assert solve(lp).status is LpStatus.UNBOUNDED


def test_min_sense_and_equality():
    # min x+y s.t. x+y=2, x-y<=0 -> value 2
    lp = LinearProgram(
        "min", [1.0, 1.0], [[1.0, -1.0]], [0.0], A_eq=[[1.0, 1.0]], b_eq=[2.0]
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == pytest.approx(2.0, abs=1e-9)


def test_length_mismatch_is_input_error_not_infeasible():
    for objective, blocks in [
        ([1.0, 2.0], {"A_ub": [[1.0]], "b_ub": [1.0]}),  # wrong column count
        ([1.0], {"A_ub": [[1.0], [2.0]], "b_ub": [1.0]}),  # A_ub and b_ub lengths
        ([1.0], {"A_ub": [1.0], "b_ub": [1.0]}),  # A_ub not 2-d
        ([1.0], {"A_eq": [[1.0]]}),  # A_eq without b_eq
        ([np.inf], {"A_ub": [[1.0]], "b_ub": [1.0]}),
        ([1.0], {"A_eq": [[np.nan]], "b_eq": [1.0]}),  # a non-finite entry
    ]:
        with pytest.raises(LpInputError):
            LinearProgram("max", objective, **blocks)


def test_beale_cycling_instance_terminates():
    # Classic degenerate instance on which naive Dantzig pivoting can cycle.
    lp = LinearProgram(
        "min",
        [-0.75, 150.0, -0.02, 6.0],
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        [0.0, 0.0, 1.0],
    )
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == pytest.approx(-0.05, abs=1e-9)


def test_pivot_cap_raises_distinct_error():
    lp = LinearProgram("max", [1.0], [[1.0]], [1.0])
    with pytest.raises(SolverFailure):
        solve(lp, max_pivots=0)


def test_objective_scaling():
    rng = np.random.default_rng(7)
    for _ in range(25):
        lp = _random_lp(rng)
        out = solve(lp)
        scaled = LinearProgram(
            lp.sense, 3.7 * lp.objective, lp.A_ub, lp.b_ub, lp.A_eq, lp.b_eq
        )
        out_s = solve(scaled)
        assert out_s.status is out.status
        if out.status is LpStatus.OPTIMAL:
            assert out_s.value == pytest.approx(3.7 * out.value, abs=1e-6, rel=1e-9)


def test_determinism_same_bits():
    rng = np.random.default_rng(11)
    lp = _random_lp(rng)
    a = solve(lp)
    b = solve(lp)
    assert a.status is b.status
    if a.status is LpStatus.OPTIMAL:
        assert a.value == b.value
        assert np.array_equal(a.assignment, b.assignment)


def _random_lp(rng, max_vars=4, max_cons=6):
    """A random program with ``=`` rows and ``<=`` rows of either rhs sign.

    A ``>=`` row is drawn as often as an ``=`` row and enters negated, so
    phase 1's surplus and artificial variables are exercised.
    """
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(1, max_cons + 1))
    objective = rng.integers(-3, 4, size=n).astype(float)
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for _ in range(m):
        coeffs = rng.integers(-3, 4, size=n).astype(float)
        rel = rng.choice(["<=", "<=", "<=", ">=", "="])
        rhs = float(rng.integers(-3, 6))
        if rel == "=":
            A_eq.append(coeffs)
            b_eq.append(rhs)
        else:
            sign = 1.0 if rel == "<=" else -1.0
            A_ub.append(sign * coeffs)
            b_ub.append(sign * rhs)
    sense = "max" if rng.random() < 0.5 else "min"
    return LinearProgram(
        sense,
        objective,
        np.reshape(A_ub, (-1, n)),
        b_ub,
        np.reshape(A_eq, (-1, n)),
        b_eq,
    )


@pytest.mark.parametrize("seed", range(8))
def test_agrees_with_basic_feasible_point_oracle(seed):
    # The full 500-instance sweep runs in the acceptance suite; this is the
    # fast per-seed version.
    rng = np.random.default_rng(1000 + seed)
    for _ in range(25):
        lp = _random_lp(rng)
        _check_against_oracle(lp)


def _check_against_oracle(lp):
    out = solve(lp)
    oracle_val, _ = brute_force_lp_best(lp)
    if out.status is LpStatus.INFEASIBLE:
        assert oracle_val is None
    elif out.status is LpStatus.OPTIMAL:
        assert oracle_val is not None
        assert out.value == pytest.approx(oracle_val, abs=1e-6)
        assert point_is_feasible(lp, out.assignment, tol=1e-7)
        assert lp.objective @ out.assignment == pytest.approx(out.value, abs=1e-8)
    else:
        # Unbounded: region is nonempty and boxing it ever larger keeps
        # improving the optimum.
        assert oracle_val is not None
        v1 = _boxed_value(lp, 1e3)
        v2 = _boxed_value(lp, 1e5)
        better = v2 > v1 + 1.0 if lp.sense == "max" else v2 < v1 - 1.0
        assert better


def _boxed_value(lp, bound):
    n = lp.num_vars
    out = solve(_with_rows(lp, np.eye(n), np.full(n, bound)))
    assert out.status is LpStatus.OPTIMAL
    return out.value


def test_dump_text_roundtrip_shape():
    lp = LinearProgram(
        "max", [1.0, -2.0], [[1.0, 1.0]], [3.0], A_eq=[[1.0, 0.0]], b_eq=[0.5]
    )
    text = lp.dump_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("max ")
    assert lines[1] == "1.0 0.0 = 0.5"  # equations first
    assert lines[2] == "1.0 1.0 <= 3.0"  # plain numbers, not numpy reprs


# ---------------------------------------------------------------------------
# Live tableau: warm re-optimization must match a cold solve of the same LP


def _with_rows(lp, rows, rhs):
    """``lp`` with the rows ``rows @ x <= rhs`` appended."""
    return LinearProgram(
        lp.sense,
        lp.objective,
        np.vstack([lp.A_ub, rows]),
        np.concatenate([lp.b_ub, rhs]),
        lp.A_eq,
        lp.b_eq,
    )


def _assert_matches_cold(tableau, lp):
    status = tableau.optimize()
    cold = solve(lp)
    assert status is cold.status
    if status is LpStatus.OPTIMAL:
        out = tableau.outcome()
        assert out.value == pytest.approx(cold.value, rel=1e-9, abs=1e-9)
        assert point_is_feasible(lp, out.assignment, tol=1e-7)


def _optimal_random_lps(rng, count):
    found = []
    while len(found) < count:
        lp = _random_lp(rng)
        if solve(lp).status is LpStatus.OPTIMAL:
            found.append(lp)
    return found


def test_added_rows_reoptimize_by_dual_simplex():
    rng = np.random.default_rng(41)
    dual_pivots = 0
    for lp in _optimal_random_lps(rng, 60):
        tableau = Tableau(lp)
        assert tableau.optimize() is LpStatus.OPTIMAL
        full = lp
        for _ in range(3):
            k = int(rng.integers(1, 4))
            rows = rng.integers(-3, 4, size=(k, lp.num_vars)).astype(float)
            rhs = rng.integers(-1, 6, size=k).astype(float)
            tableau.add_rows(rows, rhs)
            full = _with_rows(full, rows, rhs)
            before = tableau.dual_pivots
            _assert_matches_cold(tableau, full)
            dual_pivots += tableau.dual_pivots - before
            if solve(full).status is not LpStatus.OPTIMAL:
                break
    assert dual_pivots > 0


def test_added_row_can_make_the_program_infeasible():
    lp = LinearProgram("max", [1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [2.0, 3.0])
    tableau = Tableau(lp)
    assert tableau.optimize() is LpStatus.OPTIMAL
    tableau.add_rows([[-1.0, -1.0]], [-6.0])  # x + y >= 6, beyond the box
    assert tableau.optimize() is LpStatus.INFEASIBLE
    assert solve(_with_rows(lp, [[-1.0, -1.0]], [-6.0])).status is LpStatus.INFEASIBLE


def test_objective_switch_resumes_from_warm_basis():
    rng = np.random.default_rng(43)
    for lp in _optimal_random_lps(rng, 60):
        tableau = Tableau(lp)
        assert tableau.optimize() is LpStatus.OPTIMAL
        objective = rng.integers(-3, 4, size=lp.num_vars).astype(float)
        tableau.set_objective(objective)
        switched = LinearProgram(
            lp.sense, objective, lp.A_ub, lp.b_ub, lp.A_eq, lp.b_eq
        )
        _assert_matches_cold(tableau, switched)


def test_removed_slack_basic_rows_keep_the_optimum():
    lp = LinearProgram(
        "max", [1.0, 2.0], [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [4.0, 10.0, 3.0]
    )
    tableau = Tableau(lp)
    assert tableau.optimize() is LpStatus.OPTIMAL
    # Row 1 is slack at the optimum (1, 3); row 2 binds and stays.
    assert tableau.remove_rows([1, 2]).tolist() == [True, False]
    assert tableau.rhs.size == 2
    assert tableau.optimize() is LpStatus.OPTIMAL
    assert tableau.outcome().value == pytest.approx(7.0, abs=1e-12)


def test_warm_sequence_repeats_bit_for_bit():
    def run():
        rng = np.random.default_rng(47)
        values = []
        for lp in _optimal_random_lps(rng, 20):
            tableau = Tableau(lp)
            tableau.optimize()
            tableau.add_rows(
                rng.integers(-3, 4, size=(2, lp.num_vars)).astype(float),
                rng.integers(0, 6, size=2).astype(float),
            )
            tableau.set_objective(rng.integers(-3, 4, size=lp.num_vars).astype(float))
            if tableau.optimize() is LpStatus.OPTIMAL:
                out = tableau.outcome()
                values.append((out.value, out.assignment.tobytes()))
        return values

    assert run() == run()


def test_refactor_keeps_the_optimum():
    rng = np.random.default_rng(53)
    # Phase 1 drops one of the two copies of x + y = 2 as redundant.
    redundant = LinearProgram(
        "max",
        [1.0, 2.0],
        [[0.0, 1.0]],
        [1.5],
        A_eq=[[1.0, 1.0], [2.0, 2.0]],
        b_eq=[2.0, 4.0],
    )
    for lp in [redundant] + _optimal_random_lps(rng, 40):
        tableau = Tableau(lp)
        if tableau.optimize() is not LpStatus.OPTIMAL:
            continue
        before = tableau.outcome()
        tableau.refactor()
        assert tableau.optimize() is LpStatus.OPTIMAL
        after = tableau.outcome()
        assert after.value == pytest.approx(before.value, rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(after.assignment, before.assignment, atol=1e-9)


# ---------------------------------------------------------------------------
# Condensed tableau against the full-width reference in tests/oracles.py


def _optimize_both(tableau, reference):
    status = tableau.optimize()
    assert status.value == reference.optimize()
    if status is LpStatus.OPTIMAL:
        expected = float(reference.objective @ reference.solution())
        assert tableau.outcome().value == pytest.approx(expected, rel=1e-9, abs=1e-9)
    return status


@pytest.mark.parametrize("seed", range(4))
def test_condensed_tableau_matches_full_width_reference(seed):
    rng = np.random.default_rng(2000 + seed)
    statuses = set()
    for _ in range(60):
        lp = _random_lp(rng)
        tableau, reference = Tableau(lp), FullTableau(lp)
        status = _optimize_both(tableau, reference)
        statuses.add(status)
        for _ in range(5):
            if status is not LpStatus.OPTIMAL:
                break
            step = int(rng.integers(4))
            if step == 0:
                k = int(rng.integers(1, 4))
                rows = rng.integers(-3, 4, size=(k, lp.num_vars)).astype(float)
                rhs = rng.integers(-1, 6, size=k).astype(float)
                tableau.add_rows(rows, rhs)
                reference.add_rows(rows, rhs)
            elif step == 1:
                count = tableau.rhs.size
                indices = np.flatnonzero(rng.random(count) < 0.5)
                removed = tableau.remove_rows(indices)
                if not reference.remove_rows(indices[removed]).all():
                    # Degenerate bases may differ in which slacks are basic.
                    reference = FullTableau(tableau.program())
            elif step == 2:
                objective = rng.integers(-3, 4, size=lp.num_vars).astype(float)
                tableau.set_objective(objective)
                reference.set_objective(objective)
            else:
                tableau.refactor()
                reference.refactor()
            status = _optimize_both(tableau, reference)
            statuses.add(status)
    assert statuses == set(LpStatus)


def test_added_rows_keep_one_column_per_nonbasic_variable():
    lp = LinearProgram(
        "max",
        [1.0, 1.0, 0.0],
        [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]],
        [4.0, 3.0],
        A_eq=[[1.0, -1.0, 0.0]],
        b_eq=[0.0],
    )
    tableau = Tableau(lp)
    assert tableau.optimize() is LpStatus.OPTIMAL
    tableau.add_rows([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 1.0])
    assert tableau.optimize() is LpStatus.OPTIMAL
    assert tableau.outcome().value == pytest.approx(2.0, abs=1e-12)
    # 3 structural variables and 4 slacks, 5 of them basic (one per row).
    assert tableau._T.shape == (5 + 1, 7 - 5 + 1)


def test_stalled_loop_switches_to_bland_and_counts_it(monkeypatch):
    monkeypatch.setattr(linprog, "_STALL_LIMIT", 1)
    lp = LinearProgram(
        "min",
        [-0.75, 150.0, -0.02, 6.0],
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        [0.0, 0.0, 1.0],
    )
    tableau = Tableau(lp)
    assert tableau.optimize() is LpStatus.OPTIMAL
    assert tableau.outcome().value == pytest.approx(-0.05, abs=1e-9)
    assert tableau.bland_switches == 1


def test_optimum_residual_is_computed_once(monkeypatch):
    calls = []
    excess = linprog._excess
    monkeypatch.setattr(
        linprog, "_excess", lambda *args: calls.append(1) or excess(*args)
    )
    lp = LinearProgram("max", [1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [2.0, 3.0])
    tableau = Tableau(lp)
    assert tableau.optimize() is LpStatus.OPTIMAL
    assert tableau.outcome().value == pytest.approx(5.0)
    assert len(calls) == 1
    tableau.add_rows([[1.0, 1.0]], [4.0])  # a mutation drops the cached residual
    assert tableau.optimize() is LpStatus.OPTIMAL
    assert tableau.outcome().value == pytest.approx(4.0)
    assert len(calls) == 2


def test_equation_violated_from_below_is_refactored():
    # The stored row moves to x = 2 under a basis built for x = 1: the basic
    # solution violates the equation from below, and only |lhs - rhs| sees it.
    lp = LinearProgram("max", [1.0], A_eq=[[1.0]], b_eq=[1.0])
    tableau = Tableau(lp)
    tableau.rhs[0] = 2.0
    assert tableau.optimize() is LpStatus.OPTIMAL
    assert tableau.refactors == 1
    assert tableau.outcome().value == pytest.approx(2.0, abs=1e-12)
