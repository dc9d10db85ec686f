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


def test_removed_slack_basic_rows_keep_the_optimum():
    lp = LinearProgram(
        [1.0, 2.0], [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [4.0, 10.0, 3.0]
    )
    tableau = Tableau(lp)
    assert tableau.optimize() is LpStatus.OPTIMAL
    # Row 1 is slack at the optimum (1, 3): its slack is basic, no pivot.
    pivots = tableau.primal_pivots
    tableau.remove_rows([1])
    assert tableau.rhs.size == 2 and tableau.primal_pivots == pivots
    assert tableau.optimize() is LpStatus.OPTIMAL
    assert tableau.primal_pivots == pivots
    assert tableau.outcome().value == pytest.approx(7.0, abs=1e-12)


def test_removed_binding_row_pivots_its_slack_in_first():
    lp = LinearProgram(
        [1.0, 2.0], [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [4.0, 10.0, 3.0]
    )
    tableau = Tableau(lp)
    assert tableau.optimize() is LpStatus.OPTIMAL
    # Row 2 binds at the optimum (1, 3): its slack enters by one pivot.
    pivots = tableau.primal_pivots
    tableau.remove_rows([1, 2])
    assert tableau.rhs.size == 1 and tableau.primal_pivots == pivots + 1
    assert tableau.optimize() is LpStatus.OPTIMAL
    assert tableau.outcome().value == pytest.approx(8.0, abs=1e-12)


def test_slack_without_a_pivot_raises_and_keeps_every_row():
    lp = LinearProgram([1.0, 2.0], [[1.0, 1.0], [0.0, 1.0]], [4.0, 3.0])
    tableau = Tableau(lp)
    assert tableau.optimize() is LpStatus.OPTIMAL
    # Both slacks are nonbasic at (1, 3); a pivot tolerance above every
    # entry leaves no pivot for them.
    tableau.pivot_tol = 1e3
    with pytest.raises(SolverFailure, match="no pivot in a row that stays"):
        tableau.remove_rows([0, 1])
    tableau.pivot_tol = linprog.DEFAULT_PIVOT_TOL
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
                rhs = rng.integers(0, 6, size=k).astype(float)
                tableau.add_rows(rows, rhs)
                reference.add_rows(rows, rhs)
            elif step == 1:
                indices = np.flatnonzero(rng.random(tableau.rhs.size) < 0.5)
                tableau.remove_rows(indices)
                if not reference.remove_rows(indices).all():
                    # The reference refuses rows whose slack is nonbasic, and
                    # degenerate bases may differ in which slacks are basic.
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


def _nonbasic_slack_rows(tableau):
    """Constraints of a live tableau whose slack is nonbasic."""
    return np.flatnonzero(np.isin(tableau._slack, tableau._nonbasic))


@pytest.mark.parametrize("seed", range(3))
def test_removing_nonbasic_slack_rows_matches_the_cold_reference(seed):
    rng = np.random.default_rng(3000 + seed)
    removals = 0
    for lp in _optimal_random_lps(rng, 80):
        tableau = Tableau(lp)
        assert tableau.optimize() is LpStatus.OPTIMAL
        rows = rng.integers(-3, 4, size=(3, lp.num_vars)).astype(float)
        tableau.add_rows(rows, rng.integers(0, 6, size=3).astype(float))
        if tableau.optimize() is not LpStatus.OPTIMAL:
            continue
        candidates = _nonbasic_slack_rows(tableau)
        if candidates.size == 0:
            continue
        chosen = candidates[rng.random(candidates.size) < 0.7]
        indices = chosen if chosen.size else candidates[:1]
        pivots = tableau.primal_pivots
        tableau.remove_rows(indices)
        assert tableau.primal_pivots == pivots + indices.size
        # Every basic value stays nonnegative: the basis is primal feasible.
        assert tableau._T[:-1, -1].min(initial=0.0) >= -1e-9
        smaller = tableau.program()
        reference = FullTableau(smaller)
        status = tableau.optimize()
        assert status.value == reference.optimize()
        if status is LpStatus.OPTIMAL:
            expected = float(reference.objective @ reference.solution())
            out = tableau.outcome()
            assert out.value == pytest.approx(expected, rel=1e-9, abs=1e-9)
            assert point_is_feasible(smaller, out.assignment, tol=1e-7)
        removals += indices.size
    assert removals >= 30


# ---------------------------------------------------------------------------
# Swapping the row of the one constraint with a nonzero rhs on a live tableau


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
def test_replaced_equation_matches_a_cold_solve_of_the_swapped_program(seed):
    rng = np.random.default_rng(4000 + seed)
    swaps = origins = 0
    for _ in range(160):
        lp = _homogeneous_lp(rng)
        tableau = Tableau(lp)
        if tableau.optimize() is not LpStatus.OPTIMAL:
            continue
        x = tableau.outcome().assignment
        # Nonnegative entries, some zero: the swapped program may be
        # unbounded.
        row = rng.integers(0, 4, size=lp.num_vars).astype(float)
        s = float(row @ x)
        if s <= 1e-6 and x.any():
            continue
        tableau.replace_equation(row)
        # The basis stays: its solution only rescales, by 1 / s. At the
        # origin the "<= 1" row's slack is basic, and nothing moves.
        expected = x / s if x.any() else x
        assert tableau.outcome().assignment == pytest.approx(expected, abs=1e-9)
        _assert_matches_cold(tableau, _swapped(lp, row))
        swaps += 1
        origins += not x.any()
    assert swaps >= 40 and origins > 0


def test_replace_equation_that_vanishes_at_the_solution_raises_unchanged():
    # max x0 subject to x1 - x0 <= 0 and x0 + x1 <= 1: optimum (1, 0).
    lp = LinearProgram([1.0, 0.0], [[-1.0, 1.0], [1.0, 1.0]], [0.0, 1.0])
    tableau = Tableau(lp)
    assert tableau.optimize() is LpStatus.OPTIMAL
    before = {
        name: value.copy()
        for name, value in vars(tableau).items()
        if isinstance(value, np.ndarray)
    }
    with pytest.raises(SolverFailure, match="would not stay feasible"):
        tableau.replace_equation([0.0, 1.0])  # 0 at (1, 0)
    for name, value in before.items():
        assert np.array_equal(getattr(tableau, name), value), name
    assert tableau.optimize() is LpStatus.OPTIMAL
    assert tableau.outcome().value == pytest.approx(1.0, abs=1e-12)


def test_replace_equation_needs_exactly_one_nonzero_rhs():
    message = "exactly one constraint with a nonzero right-hand side"
    for lp in (
        LinearProgram([1.0, 0.0], np.eye(2), [1.0, 1.0]),
        LinearProgram([1.0, 0.0], [[1.0, 1.0], [1.0, 0.0]], [1.0, 0.5]),
        LinearProgram([-1.0, 0.0], [[1.0, -1.0]], [0.0]),
    ):
        tableau = Tableau(lp)
        assert tableau.optimize() is LpStatus.OPTIMAL
        with pytest.raises(LpInputError, match=message):
            tableau.replace_equation([1.0, 2.0])


def _arrays(tableau):
    """Every array a tableau holds, the buffers behind its rows included."""
    arrays = {k: v for k, v in vars(tableau).items() if isinstance(v, np.ndarray)}
    arrays.update({f"buffer {k}": v for k, v in tableau._buffers.items()})
    return arrays


def _snapshot(tableau):
    """The bytes of every array, spare rows included (NaN garbage compares)."""
    return {name: value.tobytes() for name, value in _arrays(tableau).items()}


def _mutate(tableau, rng):
    """Add rows, re-optimize, swap the bound, switch objective, remove rows."""
    n = tableau.objective.size
    tableau.add_rows(rng.integers(-3, 4, size=(2, n)).astype(float), np.zeros(2))
    if tableau.optimize() is LpStatus.OPTIMAL:
        tableau.replace_equation(np.ones(n))
        tableau.set_objective(rng.integers(-3, 4, size=n).astype(float))
        tableau.optimize()
    basic = np.flatnonzero(tableau.basic_slacks())
    tableau.remove_rows(basic[-1:])  # no pivot: its slack is basic
    tableau.add_rows(rng.integers(-3, 4, size=(1, n)).astype(float), np.zeros(1))


def test_copied_tableau_shares_no_array_with_its_donor():
    rng = np.random.default_rng(4100)
    copies = 0
    for _ in range(30):
        lp = _homogeneous_lp(rng)
        donor = Tableau(lp)
        if donor.optimize() is not LpStatus.OPTIMAL:
            continue
        # A row added before the copy puts the donor's spare rows in use.
        row = rng.integers(-3, 4, size=(1, lp.num_vars)).astype(float)
        donor.add_rows(row, np.zeros(1))
        if donor.optimize() is not LpStatus.OPTIMAL:
            continue
        assert donor._buffers["rhs"].size > donor.rhs.size
        twin = donor.copy()
        for name, value in _arrays(twin).items():
            for other, held in _arrays(donor).items():
                assert not np.shares_memory(value, held), (name, other)
        value = twin.outcome().value
        assert donor.outcome().value == value

        # The donor changes; the twin does not.
        twin_state = _snapshot(twin)
        _mutate(donor, rng)
        assert _snapshot(twin) == twin_state
        assert twin.outcome().value == value
        # The twin changes; the donor does not.
        donor_state = _snapshot(donor)
        _mutate(twin, rng)
        assert _snapshot(donor) == donor_state
        copies += 1
    assert copies >= 10


def test_added_rows_fill_spare_rows_grown_by_doubling():
    lp = LinearProgram([1.0, 1.0], [[1.0, 2.0]], [4.0])
    tableau = Tableau(lp)
    assert tableau._buffers["rhs"].size == 1  # a cold build has no spare rows
    largest = 1
    for k in range(1, 40):
        tableau.add_rows([[1.0, 0.0]], [float(k)])
        largest = max(largest, tableau.rhs.size)
        capacity = tableau._buffers["rhs"].size
        assert tableau.rhs.size <= capacity <= 2 * largest
        assert tableau._buffers["_T"].shape[0] == capacity + 1
        for name in ("rows", "rhs", "_basis", "_slack", "_T"):
            assert getattr(tableau, name).base is tableau._buffers[name], name
    assert tableau.optimize() is LpStatus.OPTIMAL
    assert tableau.outcome().value == pytest.approx(2.5)  # x = 1, y = 1.5
    # Removal compacts in place: x <= 1 .. x <= 29 go, x <= 30 binds no more.
    tableau.remove_rows(np.arange(1, 30))
    assert tableau.rhs.size == 11 and tableau._buffers["rhs"].size == capacity
    assert tableau.rhs.tolist() == [4.0] + [float(k) for k in range(30, 40)]
    assert tableau.optimize() is LpStatus.OPTIMAL
    assert tableau.outcome().value == pytest.approx(4.0)  # x = 4, y = 0