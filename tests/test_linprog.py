import copy

import numpy as np
import pytest

from metricdist import linprog
from metricdist.linprog import (
    TABLEAU_STATS,
    LinearProgram,
    LpInputError,
    LpStatus,
    SolverFailure,
    Tableau,
    solve,
)

import oracles
from oracles import FullTableau, brute_force_lp_best, point_is_feasible


def test_single_variable_box():
    lp = LinearProgram([1.0], [[1.0]], [1.0])
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-9)
    assert out.assignment[0] == pytest.approx(1.0, abs=1e-9)


def test_unbounded():
    lp = LinearProgram([1.0], [[-1.0]], [1.0])
    assert solve(lp).status is LpStatus.UNBOUNDED


def test_length_mismatch_is_input_error_not_infeasible():
    for objective, blocks in [
        ([1.0, 2.0], {"A_ub": [[1.0]], "b_ub": [1.0]}),  # wrong column count
        ([1.0], {"A_ub": [[1.0], [2.0]], "b_ub": [1.0]}),  # A_ub and b_ub lengths
        ([1.0], {"A_ub": [1.0], "b_ub": [1.0]}),  # A_ub not 2-d
        ([1.0], {"A_ub": [[1.0]]}),  # A_ub without b_ub
        ([np.inf], {"A_ub": [[1.0]], "b_ub": [1.0]}),
        ([1.0], {"A_ub": [[np.nan]], "b_ub": [1.0]}),  # a non-finite entry
        ([1.0], {"A_ub": [[1.0]], "b_ub": [-1.0]}),  # x = 0 infeasible
    ]:
        with pytest.raises(LpInputError):
            LinearProgram(objective, **blocks)


# Beale's classic degenerate instance, on which naive Dantzig pivoting can
# cycle; its minimization is written as the max of the negated objective.
BEALE = LinearProgram(
    [0.75, -150.0, 0.02, -6.0],
    [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ],
    [0.0, 0.0, 1.0],
)


def test_beale_cycling_instance_terminates():
    out = solve(BEALE)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == pytest.approx(0.05, abs=1e-9)


def test_pivot_cap_raises_distinct_error(monkeypatch):
    monkeypatch.setattr(linprog, "DEFAULT_MAX_PIVOTS", 0)
    lp = LinearProgram([1.0], [[1.0]], [1.0])
    with pytest.raises(SolverFailure):
        Tableau(lp).optimize()


def test_a_call_that_raises_still_counts_its_pivots(monkeypatch):
    # The optimum of max x + y over the unit box takes two pivots; the
    # second exceeds the cap after it is made.
    monkeypatch.setattr(linprog, "DEFAULT_MAX_PIVOTS", 1)
    tableau = Tableau(LinearProgram([1.0, 1.0], np.eye(2), [1.0, 1.0]))
    with pytest.raises(SolverFailure, match="pivot cap"):
        tableau.optimize()
    assert (tableau.stats["primal_pivots"], tableau.stats["dual_pivots"]) == (2, 0)


def test_the_pivot_cap_counts_from_the_start_of_each_loop(monkeypatch):
    # Pivots counted into the dict before, by another tableau, do not count
    # against this loop's cap: the unit box takes two pivots, the cap.
    monkeypatch.setattr(linprog, "DEFAULT_MAX_PIVOTS", 2)
    stats = dict.fromkeys(TABLEAU_STATS, 0)
    stats["primal_pivots"] = 5
    tableau = Tableau(LinearProgram([1.0, 1.0], np.eye(2), [1.0, 1.0]), stats=stats)
    assert tableau.optimize() is LpStatus.OPTIMAL
    assert tableau.stats is stats and stats["primal_pivots"] == 7


def test_tableaux_built_on_one_dict_count_into_it():
    lps = _optimal_random_lps(np.random.default_rng(67), 8)

    def run(tableau):
        tableau.optimize()
        # Halving every variable cuts the optimum off: the dual simplex runs.
        x = tableau.outcome().assignment
        tableau.add_rows(np.eye(x.size), x / 2)
        tableau.optimize()
        return tableau.stats

    apart = [run(Tableau(lp)) for lp in lps]
    assert apart[1] is not apart[0]
    assert Tableau(lps[0]).stats == dict.fromkeys(TABLEAU_STATS, 0)
    shared = dict.fromkeys(TABLEAU_STATS, 0)
    for lp in lps:
        assert run(Tableau(lp, stats=shared)) is shared
    assert shared == {name: sum(s[name] for s in apart) for name in TABLEAU_STATS}
    assert shared["primal_pivots"] > 0 and shared["dual_pivots"] > 0


def test_objective_scaling():
    rng = np.random.default_rng(7)
    for _ in range(25):
        lp = _random_lp(rng)
        out = solve(lp)
        out_s = solve(LinearProgram(3.7 * lp.objective, lp.A_ub, lp.b_ub))
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
    """A random ``max`` program over ``<=`` rows with a nonnegative rhs.

    Coefficients of both signs leave some of them unbounded.
    """
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(1, max_cons + 1))
    objective = rng.integers(-3, 4, size=n).astype(float)
    A_ub = rng.integers(-3, 4, size=(m, n)).astype(float)
    b_ub = rng.integers(0, 6, size=m).astype(float)
    return LinearProgram(objective, A_ub, b_ub)


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
    oracle_val, _ = brute_force_lp_best(lp.objective, lp.A_ub, lp.b_ub)
    assert oracle_val is not None  # x = 0 is a basic feasible point
    if out.status is LpStatus.OPTIMAL:
        assert out.value == pytest.approx(oracle_val, abs=1e-6)
        assert point_is_feasible(lp, out.assignment, tol=1e-7)
        assert lp.objective @ out.assignment == pytest.approx(out.value, abs=1e-8)
    else:
        # Unbounded: boxing the region ever larger keeps improving the optimum.
        assert _boxed_value(lp, 1e5) > _boxed_value(lp, 1e3) + 1.0


def _boxed_value(lp, bound):
    n = lp.num_vars
    out = solve(_with_rows(lp, np.eye(n), np.full(n, bound)))
    assert out.status is LpStatus.OPTIMAL
    return out.value


def test_dump_text_roundtrip_shape():
    lp = LinearProgram([1.0, -2.0], [[1.0, 1.0], [1.0, 0.0]], [3.0, 0.5])
    text = lp.dump_text()
    lines = text.strip().split("\n")
    assert lines[0] == "max 1.0 -2.0"
    assert lines[1] == "1.0 1.0 <= 3.0"  # plain numbers, not numpy reprs
    assert lines[2] == "1.0 0.0 <= 0.5"


# ---------------------------------------------------------------------------
# Live tableau: warm re-optimization must match a cold solve of the same LP


def _with_rows(lp, rows, rhs):
    """``lp`` with the rows ``rows @ x <= rhs`` appended."""
    return LinearProgram(
        lp.objective, np.vstack([lp.A_ub, rows]), np.concatenate([lp.b_ub, rhs])
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
            rhs = rng.integers(0, 6, size=k).astype(float)
            tableau.add_rows(rows, rhs)
            full = _with_rows(full, rows, rhs)
            before = tableau.stats["dual_pivots"]
            _assert_matches_cold(tableau, full)
            dual_pivots += tableau.stats["dual_pivots"] - before
            if solve(full).status is not LpStatus.OPTIMAL:
                break
    assert dual_pivots > 0


def test_added_row_with_a_negative_rhs_is_an_input_error():
    lp = LinearProgram([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [2.0, 3.0])
    tableau = Tableau(lp)
    assert tableau.optimize() is LpStatus.OPTIMAL
    with pytest.raises(LpInputError, match="nonnegative"):
        tableau.add_rows([[-1.0, -1.0]], [-6.0])  # x + y >= 6: x = 0 infeasible
    assert tableau.rhs.size == 2
    assert tableau.optimize() is LpStatus.OPTIMAL
    assert tableau.outcome().value == pytest.approx(5.0, abs=1e-12)


def test_objective_switch_resumes_from_warm_basis():
    rng = np.random.default_rng(43)
    for lp in _optimal_random_lps(rng, 60):
        tableau = Tableau(lp)
        assert tableau.optimize() is LpStatus.OPTIMAL
        objective = rng.integers(-3, 4, size=lp.num_vars).astype(float)
        tableau.set_objective(objective)
        _assert_matches_cold(tableau, LinearProgram(objective, lp.A_ub, lp.b_ub))


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
            # Rows first, by the dual simplex: a basis that is neither primal
            # nor dual feasible is refused.
            tableau.optimize()
            tableau.set_objective(rng.integers(-3, 4, size=lp.num_vars).astype(float))
            if tableau.optimize() is LpStatus.OPTIMAL:
                out = tableau.outcome()
                values.append((out.value, out.assignment.tobytes()))
        return values

    assert run() == run()


def test_refactor_keeps_the_optimum():
    rng = np.random.default_rng(53)
    for lp in _optimal_random_lps(rng, 40):
        tableau = Tableau(lp)
        assert tableau.optimize() is LpStatus.OPTIMAL
        before = tableau.outcome()
        tableau.refactor()
        assert tableau.optimize() is LpStatus.OPTIMAL
        after = tableau.outcome()
        assert after.value == pytest.approx(before.value, rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(after.assignment, before.assignment, atol=1e-9)


def _normalized_random_lp(rng):
    """A random program whose first row, with positive entries, holds the
    only nonzero rhs, 1, and bounds every variable: a distortion LP's shape."""
    n, m = int(rng.integers(2, 6)), int(rng.integers(2, 7))
    A_ub = rng.integers(-3, 4, size=(m, n)).astype(float)
    A_ub[0] = rng.integers(1, 4, size=n)
    b_ub = np.zeros(m)
    b_ub[0] = 1.0
    return LinearProgram(rng.integers(0, 4, size=n).astype(float), A_ub, b_ub)


def test_update_coefficient_equals_a_refactor_in_the_same_basis():
    # Lower one coefficient of the rhs-1 row at an optimum, as a k switch
    # lowers tau's: the rank-one update agrees with a refactor from the
    # changed rows, and the basic solution x* becomes x* / a, with
    # a = 1 + delta x*_j (1 for a nonbasic variable, whose x*_j is 0).
    rng = np.random.default_rng(59)
    basic_seen = set()
    for _ in range(60):
        lp = _normalized_random_lp(rng)
        tableau = Tableau(lp)
        assert tableau.optimize() is LpStatus.OPTIMAL
        x = tableau.outcome().assignment
        for j in range(lp.num_vars):
            updated, reference = Tableau(lp), Tableau(lp)
            for t in (updated, reference):
                t.optimize()
            value = lp.A_ub[0, j] * rng.uniform(0.1, 0.9)
            a = 1.0 + (value - lp.A_ub[0, j]) * x[j]
            updated.update_coefficient(0, j, value)
            reference.rows[0, j] = value
            reference.refactor()
            basic_seen.add(bool(np.isin(j, tableau._basis)))
            assert updated.rows[0, j] == value and updated.stats["refactors"] == 0
            np.testing.assert_array_equal(updated._basis, tableau._basis)
            np.testing.assert_allclose(updated._T, reference._T, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                updated.outcome().assignment, x / a, rtol=0, atol=1e-12
            )
    assert basic_seen == {True, False}


def test_update_coefficient_keeps_the_basis_or_refuses():
    # max x over 2x <= 1 and x - y <= 0: x = y = 1/2, both basic.
    lp = LinearProgram([1.0, 0.0], [[2.0, 0.0], [1.0, -1.0]], [1.0, 0.0])
    tableau = Tableau(lp)
    assert tableau.optimize() is LpStatus.OPTIMAL
    pivots = tableau.stats["primal_pivots"]
    tableau.update_coefficient(0, 0, 1.0)  # a = 1/2: x = y = 1
    np.testing.assert_allclose(tableau.outcome().assignment, [1.0, 1.0], atol=1e-15)
    assert tableau.at_optimum()
    assert tableau.optimize() is LpStatus.OPTIMAL  # still optimal: no pivot
    assert (tableau.stats["primal_pivots"], tableau.stats["dual_pivots"]) == (pivots, 0)
    with pytest.raises(SolverFailure, match="singular"):
        tableau.update_coefficient(0, 0, 0.0)  # a = 0: x would be unbounded
    assert tableau.rows[0, 0] == 1.0
    np.testing.assert_allclose(tableau.outcome().assignment, [1.0, 1.0], atol=1e-15)
    two = Tableau(LinearProgram([1.0], [[1.0], [2.0]], [1.0, 1.0]))
    with pytest.raises(LpInputError, match="rhs must be 1"):
        two.update_coefficient(0, 0, 0.5)


def _work(tableau):
    """The pivots and refactors a tableau has counted."""
    stats = tableau.stats
    return stats["primal_pivots"] + stats["dual_pivots"] + stats["refactors"]


def test_at_optimum_is_an_optimize_that_makes_no_pivot_and_no_refactor():
    rng = np.random.default_rng(61)
    seen = set()
    for _ in range(80):
        lp = _random_lp(rng)
        tableau = Tableau(lp)
        for step in range(6):
            if step % 2:
                tableau.set_objective(
                    rng.integers(-3, 4, size=lp.num_vars).astype(float)
                )
            elif step:
                tableau.add_rows(
                    rng.integers(-3, 4, size=(1, lp.num_vars)).astype(float),
                    rng.integers(0, 3, size=1).astype(float),
                )
            at_optimum = tableau.at_optimum()
            work = _work(tableau)
            try:
                status = tableau.optimize()
            except SolverFailure:
                assert not at_optimum
                break
            idle = status is LpStatus.OPTIMAL and _work(tableau) == work
            assert at_optimum == idle
            seen.add(idle)
            if status is not LpStatus.OPTIMAL:
                break
    assert seen == {True, False}


def test_at_optimum_refuses_a_negative_basic_variable():
    # The basis {x, y} of x + y <= 1, y <= 2 solves y = 2, x = -1: every row
    # holds, and zero reduced costs allow no primal pivot, but x < 0.
    tableau = Tableau(LinearProgram([0.0, 0.0], [[1.0, 1.0], [0.0, 1.0]], [1.0, 2.0]))
    T, basis, nonbasic = tableau._T, tableau._basis, tableau._nonbasic
    linprog._do_pivot(T, basis, nonbasic, 1, 1)  # y enters in the row y <= 2
    linprog._do_pivot(T, basis, nonbasic, 0, 0)  # then x, in x + y <= 1
    assert sorted(basis.tolist()) == [0, 1]
    assert tableau._residual() == 0.0
    assert not tableau.at_optimum()
    with pytest.raises(SolverFailure, match="nonnegativity"):
        tableau.outcome()


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
            step = int(rng.integers(3))
            if step == 0:
                k = int(rng.integers(1, 4))
                rows = rng.integers(-3, 4, size=(k, lp.num_vars)).astype(float)
                rhs = rng.integers(0, 6, size=k).astype(float)
                tableau.add_rows(rows, rhs)
                reference.add_rows(rows, rhs)
            elif step == 1:
                objective = rng.integers(-3, 4, size=lp.num_vars).astype(float)
                tableau.set_objective(objective)
                reference.set_objective(objective)
            else:
                tableau.refactor()
                reference.refactor()
            status = _optimize_both(tableau, reference)
            statuses.add(status)
    assert statuses == set(LpStatus)


# Label-indexed products sum in another order than the reference's.
_CLOSE = dict(rtol=1e-12, atol=1e-12)


def _pivot_both(tableau, reference, rng):
    """One pivot at the same row and entering label of both tableaux, on an
    entry of magnitude 1 or more, if the tableau has one."""
    rows, columns = (np.abs(tableau._T[:-1, :-1]) >= 1.0).nonzero()
    if not rows.size:
        return
    i = int(rng.integers(rows.size))
    r, c = int(rows[i]), int(columns[i])
    label = int(tableau._nonbasic[c])
    linprog._do_pivot(tableau._T, tableau._basis, tableau._nonbasic, r, c)
    oracles._do_pivot(reference.T, r, label)
    reference.basis[r] = label


def test_label_indexed_arithmetic_matches_the_full_width_reference():
    # Random pivots and added rows leave structural variables and slacks
    # basic together; the cost row after an objective switch, the rows
    # add_rows enters and the basic solution then match the full tableau.
    rng = np.random.default_rng(3300)
    mixed = 0
    for _ in range(60):
        lp = _random_lp(rng)
        tableau, reference = Tableau(lp), FullTableau(lp)
        cost_row = tableau._T[-1]
        assert cost_row[:-1].tobytes() == (0.0 - lp.objective).tobytes()
        assert not np.signbit(cost_row[cost_row == 0.0]).any()  # no -0.0
        for _ in range(int(rng.integers(1, 4))):
            _pivot_both(tableau, reference, rng)
        m, k = lp.b_ub.size, int(rng.integers(1, 4))
        rows = rng.integers(-3, 4, size=(k, lp.num_vars)).astype(float)
        rhs = rng.integers(0, 6, size=k).astype(float)
        tableau.add_rows(rows, rhs)
        reference.add_rows(rows, rhs)
        columns = np.append(tableau._nonbasic, -1)
        np.testing.assert_allclose(
            tableau._T[m : m + k], reference.T[m : m + k][:, columns], **_CLOSE
        )
        for _ in range(int(rng.integers(0, 3))):
            _pivot_both(tableau, reference, rng)
        objective = rng.integers(-3, 4, size=lp.num_vars).astype(float)
        tableau.set_objective(objective)
        reference.set_objective(objective)
        columns = np.append(tableau._nonbasic, -1)
        np.testing.assert_allclose(tableau._T[-1], reference.T[-1, columns], **_CLOSE)
        np.testing.assert_allclose(tableau._solution(), reference.solution(), **_CLOSE)
        basic_slacks = np.count_nonzero(tableau.basic_slacks())
        mixed += basic_slacks >= 2 and basic_slacks < tableau._basis.size
    assert mixed >= 30


def test_added_rows_keep_one_column_per_nonbasic_variable():
    lp = LinearProgram(
        [1.0, 1.0, 0.0],
        [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, -1.0, 0.0]],
        [4.0, 3.0, 0.0],
    )
    tableau = Tableau(lp)
    assert tableau.optimize() is LpStatus.OPTIMAL
    tableau.add_rows([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 1.0])
    assert tableau.optimize() is LpStatus.OPTIMAL
    assert tableau.outcome().value == pytest.approx(2.0, abs=1e-12)
    # 3 structural variables and 5 slacks, 5 of them basic (one per row).
    assert tableau._T.shape == (5 + 1, 8 - 5 + 1)


def test_stalled_loop_switches_to_bland_and_counts_it(monkeypatch):
    monkeypatch.setattr(linprog, "_STALL_LIMIT", 1)
    tableau = Tableau(BEALE)
    assert tableau.optimize() is LpStatus.OPTIMAL
    assert tableau.outcome().value == pytest.approx(0.05, abs=1e-9)
    assert tableau.stats["bland_switches"] == 1


def test_optimum_residual_is_computed_once(monkeypatch):
    calls = []
    excess = linprog._excess
    monkeypatch.setattr(
        linprog, "_excess", lambda *args: calls.append(1) or excess(*args)
    )
    lp = LinearProgram([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [2.0, 3.0])
    tableau = Tableau(lp)
    assert tableau.optimize() is LpStatus.OPTIMAL
    assert tableau.outcome().value == pytest.approx(5.0)
    assert len(calls) == 1
    tableau.add_rows([[1.0, 1.0]], [4.0])  # a mutation drops the cached residual
    assert tableau.optimize() is LpStatus.OPTIMAL
    assert tableau.outcome().value == pytest.approx(4.0)
    assert len(calls) == 2


def test_row_violated_at_the_optimum_is_refactored():
    # The stored rhs moves to 0.5 under a tableau built for x <= 1: the
    # tableau's optimum x = 1 violates the stored row.
    lp = LinearProgram([1.0], [[1.0]], [1.0])
    tableau = Tableau(lp)
    tableau.rhs[0] = 0.5
    assert tableau.optimize() is LpStatus.OPTIMAL
    assert tableau.stats["refactors"] == 1
    assert tableau.outcome().value == pytest.approx(0.5, abs=1e-12)


def test_at_optimum_refuses_an_optimum_that_drifted_from_its_rows():
    # At x = 1, optimal for x <= 1, the stored rhs moves to 0.5, and an
    # added row 0 <= 0 drops the cached check: the basis still looks
    # optimal, but its solution violates the stored row, so optimize would
    # refactor.
    tableau = Tableau(LinearProgram([1.0], [[1.0]], [1.0]))
    assert tableau.optimize() is LpStatus.OPTIMAL and tableau.at_optimum()
    tableau.rhs[0] = 0.5
    tableau.add_rows([[0.0]], [0.0])
    assert not tableau.at_optimum()
    assert tableau.optimize() is LpStatus.OPTIMAL and tableau.stats["refactors"] == 1
    assert tableau.at_optimum()


def test_many_added_rows_keep_arrival_order_and_slack_labels():
    tableau = Tableau(LinearProgram([1.0, 1.0], [[1.0, 2.0]], [4.0]))
    for k in range(1, 40):
        tableau.add_rows([[1.0, 0.0]], [float(k)])
    assert tableau.optimize() is LpStatus.OPTIMAL
    assert tableau.outcome().value == pytest.approx(2.5)  # x = 1, y = 1.5
    assert tableau.rhs.tolist() == [4.0] + [float(k) for k in range(1, 40)]
    # Constraint i's slack is label n + i: the binding rows are the first
    # two, and refactoring from the rows in that basis changes nothing.
    binding = ~tableau.basic_slacks()
    assert binding.nonzero()[0].tolist() == [0, 1]
    before = tableau._T.copy()
    tableau.refactor()
    np.testing.assert_allclose(tableau._T, before, atol=1e-12)
    assert (~tableau.basic_slacks()).tolist() == binding.tolist()
    assert tableau.at_optimum()


def test_a_deep_copy_is_independent():
    rng = np.random.default_rng(29)
    for _ in range(50):
        A, b = rng.uniform(0.0, 1.0, (4, 3)), rng.uniform(0.5, 1.0, 4)
        original = Tableau(LinearProgram(rng.uniform(0.1, 1.0, 3), A, b))
        copied = copy.deepcopy(original)
        built_T, built_rows = original._T.copy(), original.rows.copy()
        row = rng.uniform(0.0, 1.0, (1, 3))

        def run(tableau):
            first = tableau.optimize(), tableau.outcome()
            tableau.add_rows(row, [0.25])
            return first, (tableau.optimize(), tableau.outcome())

        from_copy = run(copied)
        np.testing.assert_array_equal(original._T, built_T)
        np.testing.assert_array_equal(original.rows, built_rows)
        for (status_c, out_c), (status_o, out_o) in zip(from_copy, run(original)):
            assert status_c is status_o is LpStatus.OPTIMAL
            assert out_c.value == out_o.value
            np.testing.assert_array_equal(out_c.assignment, out_o.assignment)


@pytest.mark.parametrize("seed", range(2))
def test_rows_whose_slack_is_not_basic_bind(seed):
    # A constraint whose slack is nonbasic holds with equality at the basic
    # solution: these are the tight rows a new tableau can be seeded with.
    rng = np.random.default_rng(3100 + seed)
    tight = 0
    for lp in _optimal_random_lps(rng, 40):
        tableau = Tableau(lp)
        assert tableau.optimize() is LpStatus.OPTIMAL
        binds = ~tableau.basic_slacks()
        slack = lp.b_ub - lp.A_ub @ tableau.outcome().assignment
        assert np.abs(slack[binds]).max(initial=0.0) <= 1e-9
        tight += int(binds.sum())
    assert tight > 0


# ---------------------------------------------------------------------------
# A changed program served by a new tableau, seeded with the rows that bind
# at the old optimum


def _tight_rows(tableau):
    """Constraints whose slack is nonbasic: they bind at the basic solution."""
    return np.flatnonzero(~tableau.basic_slacks())


def _seeded_solve(lp, seed):
    """A tableau built on the rows ``seed`` of ``lp``, grown by violated rows.

    Each optimum takes the rows of ``lp`` it violates, until it violates
    none. An unbounded relaxation has no optimum to separate: the tableau
    is then built again on every row.
    """
    inside = np.zeros(lp.b_ub.size, dtype=bool)
    inside[seed] = True
    tableau = Tableau(LinearProgram(lp.objective, lp.A_ub[inside], lp.b_ub[inside]))
    while True:
        if tableau.optimize() is not LpStatus.OPTIMAL:
            return tableau if inside.all() else Tableau(lp)
        x = tableau.outcome().assignment
        new = ~inside & (lp.A_ub @ x > lp.b_ub + 1e-9)
        if not new.any():
            return tableau
        tableau.add_rows(lp.A_ub[new], lp.b_ub[new])
        inside |= new


def test_removed_slack_basic_rows_keep_the_optimum():
    lp = LinearProgram(
        [1.0, 2.0], [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [4.0, 10.0, 3.0]
    )
    tableau = Tableau(lp)
    assert tableau.optimize() is LpStatus.OPTIMAL
    # Row 1 is slack at the optimum (1, 3): its slack is basic. The two
    # rows that bind carry the optimum on their own.
    tight = _tight_rows(tableau)
    assert tight.tolist() == [0, 2]
    kept = Tableau(LinearProgram(lp.objective, lp.A_ub[tight], lp.b_ub[tight]))
    assert kept.optimize() is LpStatus.OPTIMAL
    out = kept.outcome()
    assert out.value == pytest.approx(7.0, abs=1e-12)
    assert out.assignment == pytest.approx([1.0, 3.0], abs=1e-12)

    # The optimal duals live on the binding rows, so dropping every row
    # whose slack is basic leaves the optimum value as it was.
    rng = np.random.default_rng(3200)
    dropped = 0
    for lp in _optimal_random_lps(rng, 60):
        tableau = Tableau(lp)
        assert tableau.optimize() is LpStatus.OPTIMAL
        tight = _tight_rows(tableau)
        kept = Tableau(LinearProgram(lp.objective, lp.A_ub[tight], lp.b_ub[tight]))
        assert kept.optimize() is LpStatus.OPTIMAL
        value = tableau.outcome().value
        assert kept.outcome().value == pytest.approx(value, rel=1e-9, abs=1e-9)
        dropped += lp.b_ub.size - tight.size
    assert dropped > 0


def _homogeneous_lp(rng):
    """Random program: rows with rhs 0, then one row ``<= 1``.

    That row's entries are positive, so the region is bounded.
    """
    n = int(rng.integers(2, 7))
    k = int(rng.integers(1, 8))
    objective = rng.integers(-3, 4, size=n).astype(float)
    A_ub = rng.integers(-3, 4, size=(k, n)).astype(float)
    bound = rng.integers(1, 4, size=(1, n)).astype(float)
    b_ub = np.append(np.zeros(k), 1.0)
    return LinearProgram(objective, np.vstack([A_ub, bound]), b_ub)


def _swapped(lp, row):
    """``lp`` with the row of its one constraint with a nonzero rhs replaced."""
    A_ub = lp.A_ub.copy()
    A_ub[np.flatnonzero(lp.b_ub)] = row
    return LinearProgram(lp.objective, A_ub, lp.b_ub)


@pytest.mark.parametrize("seed", range(3))
def test_removing_nonbasic_slack_rows_matches_the_cold_reference(seed):
    # Rows that bind at the optimum leave the program, as the k-subset rows
    # do on a change of k; a tableau seeded with the "<= 1" row and the rows
    # still tight there reaches the optimum of the smaller program.
    rng = np.random.default_rng(3000 + seed)
    removals = left_out = 0
    for _ in range(200):
        lp = _homogeneous_lp(rng)
        tableau = Tableau(lp)
        if tableau.optimize() is not LpStatus.OPTIMAL:
            continue
        bound = np.flatnonzero(lp.b_ub)
        candidates = np.setdiff1d(_tight_rows(tableau), bound)
        if candidates.size == 0:
            continue
        chosen = candidates[rng.random(candidates.size) < 0.7]
        indices = chosen if chosen.size else candidates[:1]
        keep = np.setdiff1d(np.arange(lp.b_ub.size), indices)
        smaller = LinearProgram(lp.objective, lp.A_ub[keep], lp.b_ub[keep])
        tight = np.union1d(bound, np.setdiff1d(candidates, indices))
        seeded = _seeded_solve(smaller, np.searchsorted(keep, tight))
        reference = FullTableau(smaller)
        # The "<= 1" row keeps every relaxation bounded.
        assert seeded.optimize() is LpStatus.OPTIMAL
        assert reference.optimize() == LpStatus.OPTIMAL.value
        expected = float(reference.objective @ reference.solution())
        out = seeded.outcome()
        assert out.value == pytest.approx(expected, rel=1e-9, abs=1e-9)
        assert point_is_feasible(smaller, out.assignment, tol=1e-7)
        removals += indices.size
        left_out += smaller.b_ub.size - seeded.rhs.size
    assert removals >= 30 and left_out > 0


@pytest.mark.parametrize("seed", range(3))
def test_replaced_equation_matches_a_cold_solve_of_the_swapped_program(seed):
    # A new "<= 1" row is served as a change of normalization is: a new
    # tableau on that row and the rows tight at the old optimum.
    rng = np.random.default_rng(4000 + seed)
    swaps = seeded = left_out = 0
    for _ in range(160):
        lp = _homogeneous_lp(rng)
        tableau = Tableau(lp)
        if tableau.optimize() is not LpStatus.OPTIMAL:
            continue
        # Nonnegative entries, some zero: the swapped program may be
        # unbounded.
        row = rng.integers(0, 4, size=lp.num_vars).astype(float)
        swapped = _swapped(lp, row)
        bound = np.flatnonzero(lp.b_ub)
        tight = np.setdiff1d(_tight_rows(tableau), bound)
        new = _seeded_solve(swapped, np.union1d(bound, tight))
        _assert_matches_cold(new, swapped)
        swaps += 1
        seeded += tight.size
        left_out += lp.b_ub.size - new.rhs.size
    assert swaps >= 40 and seeded > 0 and left_out > 0
