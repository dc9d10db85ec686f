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


def test_pivot_cap_raises_distinct_error():
    lp = LinearProgram([1.0], [[1.0]], [1.0])
    with pytest.raises(SolverFailure):
        Tableau(lp, max_pivots=0).optimize()


def test_a_call_that_raises_still_counts_its_pivots():
    # The optimum of max x + y over the unit box takes two pivots; the
    # second exceeds the cap after it is made.
    tableau = Tableau(LinearProgram([1.0, 1.0], np.eye(2), [1.0, 1.0]), max_pivots=1)
    with pytest.raises(SolverFailure, match="pivot cap"):
        tableau.optimize()
    assert (tableau.primal_pivots, tableau.dual_pivots) == (2, 0)


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
            before = tableau.dual_pivots
            _assert_matches_cold(tableau, full)
            dual_pivots += tableau.dual_pivots - before
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


def test_set_coefficient_refactors_in_the_same_basis():
    # max x + y over 2x + y <= 2, x + 2y <= 2: x = y = 2/3, both basic.
    lp = LinearProgram([1.0, 1.0], [[2.0, 1.0], [1.0, 2.0]], [2.0, 2.0])
    tableau = Tableau(lp)
    assert tableau.optimize() is LpStatus.OPTIMAL
    pivots = tableau.primal_pivots
    tableau.set_coefficient(0, 0, 1.5)  # the basis now solves x = 1, y = 1/2
    assert tableau.rows[0, 0] == 1.5 and tableau.refactors == 0
    np.testing.assert_allclose(tableau.outcome().assignment, [1.0, 0.5], atol=1e-15)
    assert tableau.optimize() is LpStatus.OPTIMAL  # still optimal: no pivot
    assert tableau.primal_pivots == pivots and tableau.dual_pivots == 0
    with pytest.raises(SolverFailure, match="singular"):
        tableau.set_coefficient(0, 0, 0.5)  # rows (0.5, 1) and (1, 2)


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
    assert tableau.bland_switches == 1


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
    assert tableau.refactors == 1
    assert tableau.outcome().value == pytest.approx(0.5, abs=1e-12)


def test_added_rows_fill_spare_rows_grown_by_doubling():
    lp = LinearProgram([1.0, 1.0], [[1.0, 2.0]], [4.0])
    tableau = Tableau(lp)
    # A build leaves as many spare rows as it has rows, so the first
    # addition writes in place.
    built = dict(tableau._buffers)
    assert built["rhs"].size == 2 and built["_T"].shape[0] == 3
    largest = 1
    for k in range(1, 40):
        tableau.add_rows([[1.0, 0.0]], [float(k)])
        if k == 1:
            assert all(tableau._buffers[name] is built[name] for name in built)
        largest = max(largest, tableau.rhs.size)
        capacity = tableau._buffers["rhs"].size
        assert tableau.rhs.size <= capacity <= 2 * largest
        assert tableau._buffers["_T"].shape[0] == capacity + 1
        for name in ("rows", "rhs", "_basis", "_slack", "_T"):
            assert getattr(tableau, name).base is tableau._buffers[name], name
    assert tableau.optimize() is LpStatus.OPTIMAL
    assert tableau.outcome().value == pytest.approx(2.5)  # x = 1, y = 1.5
    assert tableau.rhs.tolist() == [4.0] + [float(k) for k in range(1, 40)]


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
