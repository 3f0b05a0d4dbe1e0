"""presolve: integer singleton rows become bounds, rows implied by the bounds go.

The oracle is enumeration of the original model: every solve of a presolved
model must reach the enumerated optimum, and its incumbent must be a point of
the original model.
"""

import itertools

import numpy as np
import pytest

from banditmip import bnb as bnb_mod
from banditmip.bnb import SolverSettings, SolveStatus, solve
from banditmip.model import (DEFAULT_FEAS_TOL, evaluate_solution, generate_instance,
                             presolve)
from banditmip.simplex import BoundState

from oracles import brute_force_integer, dense_matrix, model_from_dense

SETTINGS = SolverSettings(time_limit_s=None, node_limit=2000)


def _model(c, rows, senses, rhs, lower, upper, integers=None):
    return model_from_dense(
        rows, name="p", c=np.array(c, dtype=float), senses=list(senses),
        rhs=np.array(rhs, dtype=float), lower=np.array(lower, dtype=float),
        upper=np.array(upper, dtype=float),
        integers=np.arange(len(c)) if integers is None else np.array(integers, dtype=int))


def _check_against_enumeration(model):
    """Solve (presolved) and enumerate the original; both must agree."""
    best, _ = brute_force_integer(model, tol=DEFAULT_FEAS_TOL)
    res = solve(model, SETTINGS)
    if best is None:
        assert res.status is SolveStatus.INFEASIBLE and res.incumbent is None
        return res
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(best, abs=1e-9)
    ev = evaluate_solution(model, res.incumbent)
    assert ev.feasible and ev.integral
    return res


# each: (c, rows, senses, rhs, lower, upper), the rows presolve keeps, and the bounds it sets
CASES = {
    # 2x0 >= 3 gives x0 >= 2; -3x1 <= -4 gives x1 >= 2 (a < 0 swaps the ends)
    "g_and_negative_l": (([1, 1], [[2, 0], [0, -3]], "GL", [3, -4], [0, 0], [10, 10]),
                         [], [2, 2], [10, 10]),
    # 3x0 = 6 fixes x0 to 2; x0 + x1 <= 9 then holds over the box and goes
    "e_row_fixes": (([-1, -1], [[3, 0], [1, 1]], "EL", [6, 9], [0, 0], [5, 5]),
                    [], [2, 0], [2, 5]),
    # x0 + x1 <= 4 and x0 - x1 >= -3 hold over [0, 2]^2; the E row always stays
    "implied_rows": (([-1, -2], [[1, 1], [1, -1], [1, 1]], "LGE", [4, -3, 3], [0, 0], [2, 2]),
                     [2], [0, 0], [2, 2]),
    # -2x0 >= -7 gives x0 <= 3; then 2x0 + x1 <= 9 holds, x0 + x1 >= 4 does not
    "implied_after_tightening": (
        ([1, 3], [[-2, 0], [2, 1], [1, 1]], "GLG", [-7, 9, 4], [0, 0], [6, 3]),
        [2], [0, 0], [3, 3]),
    # two singleton rows on x0: x0 >= 1.5 and 4x0 <= 13 meet on [2, 3]
    "two_rows_one_column": (([-1, 1], [[1, 0], [4, 0], [1, 1]], "GLG", [1.5, 13, 3],
                             [0, 0], [9, 9]),
                            [2], [2, 0], [3, 9]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_presolve_turns_rows_into_bounds_and_keeps_the_optimum(name):
    args, kept, lower, upper = CASES[name]
    model = _model(*args)
    reduced = presolve(model)
    assert reduced is not model
    assert reduced.m == len(kept)
    assert [list(reduced.row_cols[i]) for i in range(reduced.m)] == \
        [list(model.row_cols[i]) for i in kept]
    assert reduced.lower.tolist() == lower and reduced.upper.tolist() == upper
    assert reduced.n == model.n and reduced.c is model.c
    assert reduced.integers.tolist() == model.integers.tolist()
    assert presolve(reduced) is reduced
    _check_against_enumeration(model)


def test_one_column_row_that_rejects_the_rounded_lp_point_becomes_a_bound():
    # without presolve the root LP puts x0 at 1 - 5e-7, whose rounding breaks the
    # row (test_bnb branches on that); presolve makes 2e6 x0 <= 2e6 - 1 the bound
    # x0 <= 0, since x0 = 1 misses the row by 1
    model = _model([-1], [[2e6]], "L", [2e6 - 1], [0], [1])
    reduced = presolve(model)
    assert reduced.m == 0 and reduced.upper.tolist() == [0.0]
    res = solve(model, SolverSettings())
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == 0.0 and res.dual_bound == 0.0
    assert res.nodes_processed == 1
    _check_against_enumeration(model)


@pytest.mark.parametrize("rows, senses, rhs", [
    ([[1, 0], [2, 0]], "GL", [3, 5]),  # x0 >= 3 and x0 <= 2 cross
    ([[2, 0]], "E", [3]),  # 2x0 = 3 has no integer solution
    ([[1, 0]], "G", [11]),  # past the column's own upper bound
])
def test_crossing_singleton_rows_leave_the_model_infeasible(rows, senses, rhs):
    model = _model([1, 1], rows + [[1, 1]], senses + "G", rhs + [1], [0, 0], [10, 10])
    assert presolve(model) is model
    res = _check_against_enumeration(model)
    assert res.status is SolveStatus.INFEASIBLE


def test_continuous_singleton_rows_stay_rows():
    # 2 x1 >= 3 on continuous x1 is not a bound here; x0 + x1 <= 9 is implied and goes
    model = _model([1, 1], [[0, 2], [1, 1]], "GL", [3, 9], [0, 0], [4, 4], integers=[0])
    reduced = presolve(model)
    assert reduced.m == 1 and reduced.row_cols[0].tolist() == [1]
    assert reduced.lower.tolist() == [0, 0] and reduced.upper.tolist() == [4, 4]
    res = solve(model, SETTINGS)
    assert res.status is SolveStatus.OPTIMAL and res.objective == pytest.approx(1.5)
    assert evaluate_solution(model, res.incumbent).feasible
    # alone, the continuous row is neither a bound nor implied: nothing changes
    alone = _model([1, 1], [[0, 2]], "G", [3], [0, 0], [4, 4], integers=[0])
    assert presolve(alone) is alone


def test_rows_over_infinite_bounds_stay():
    # x1 is free: x0 - x1 <= 5 and x0 + x1 >= -3 are implied by no box; 2x0 >= 1 gives x0 >= 1
    inf = float("inf")
    model = _model([1, 0], [[2, 0], [1, -1], [1, 1]], "GLG", [1, 5, -3], [0, -inf], [inf, inf],
                   integers=[0])
    reduced = presolve(model)
    assert reduced.m == 2 and reduced.rhs.tolist() == [5, -3]
    assert reduced.lower.tolist() == [1, -inf] and reduced.upper.tolist() == [inf, inf]
    res = solve(model, SETTINGS)
    assert res.status is SolveStatus.OPTIMAL and res.objective == 1.0
    assert evaluate_solution(model, res.incumbent).feasible


@pytest.mark.parametrize("a", [2.0, -3.0, 0.7, -2e6, 1e-3, 7.0])
@pytest.mark.parametrize("sense", ["L", "G", "E"])
def test_singleton_bounds_are_exactly_the_integers_the_row_accepts(a, sense):
    rng = np.random.default_rng(int(abs(a) * 10) + ord(sense))
    for b in np.concatenate([a * rng.integers(-8, 9, size=6) + rng.choice(
            [0.0, 1e-6, -1e-6, 1.0000001e-6, -1.0000001e-6, 0.5, 1e-7], size=6),
            rng.uniform(-10, 10, size=6) * abs(a)]):
        model = _model([0], [[a]], sense, [b], [-30], [30])
        box = np.arange(-30, 31, dtype=float)
        accepted = [v for v in box if evaluate_solution(model, [v]).feasible]
        reduced = presolve(model)
        if not accepted:
            assert reduced is model
            continue
        assert reduced.m == 0
        assert (reduced.lower[0], reduced.upper[0]) == (min(accepted), max(accepted))


def _rows_that_must_stay(model, lower, upper):
    """The rows of an all-integer model that no bound replaces: each E row, and each
    other row of two or more entries that some integer point of the box breaks."""
    axes = [np.arange(lo, hi + 1) for lo, hi in zip(lower, upper)]
    act = np.array(list(itertools.product(*axes)), dtype=float) @ dense_matrix(model).T
    gaps = act - model.rhs
    return [i for i, (cols, sense) in enumerate(zip(model.row_cols, model.senses))
            if len(cols) > 1 and (sense == "E" or np.any(gaps[:, i] > 0 if sense == "L"
                                                         else gaps[:, i] < 0))]


def test_random_models_solve_to_the_enumerated_optimum():
    rng = np.random.default_rng(27)
    changed, infeasible = 0, 0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        rows, senses, rhs = [], [], []
        for _ in range(int(rng.integers(1, 6))):
            row = np.zeros(n)
            cols = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            row[cols] = rng.choice([-3, -2, -1, 1, 2, 3, 0.5], size=len(cols))
            rows.append(row)
            senses.append(str(rng.choice(list("LGE"), p=[0.45, 0.45, 0.1])))
            rhs.append(float(rng.integers(-4, 7)) + float(rng.choice([0.0, 0.5, 0.25])))
        lower = rng.integers(-2, 1, size=n)
        model = _model(rng.integers(-5, 6, size=n), rows, senses, rhs,
                       lower, lower + rng.integers(1, 4, size=n))
        reduced = presolve(model)
        assert presolve(reduced) is reduced
        changed += reduced is not model
        res = _check_against_enumeration(model)
        infeasible += res.incumbent is None
        singletons = any(len(cols) == 1 for cols in model.row_cols)
        if reduced is not model or not singletons:
            stay = _rows_that_must_stay(model, reduced.lower, reduced.upper)
            assert [model.row_cols[i].tolist() for i in stay] == \
                [cols.tolist() for cols in reduced.row_cols]
            assert model.rhs[stay].tolist() == reduced.rhs.tolist()
        else:  # the singleton rows' bounds crossed
            assert res.incumbent is None
    assert changed >= 30 and 10 <= infeasible <= 90


@pytest.mark.parametrize("family, size, seed", [
    ("gap", (24, 4), 5), ("gap", (300, 10), 1), ("gap", (300, 10), 2),
    ("knapsack", (22, 4), 0), ("knapsack", (40, 6), 3),
])
def test_gap_and_knapsack_instances_are_left_alone(family, size, seed):
    model = generate_instance(family, size, seed)
    assert presolve(model) is model


@pytest.mark.parametrize("seed, rows", [(1, 225), (2, 258)])
def test_cover_root_loses_its_singleton_and_implied_rows(seed, rows):
    model = generate_instance("set_cover", (800, 400), seed)
    reduced = presolve(model)
    assert (model.m, reduced.m) == (400, rows)
    assert presolve(reduced) is reduced
    # the singleton rows force their columns to 1; a row goes exactly when it holds one
    forced = reduced.lower == 1
    assert np.all(model.lower[~forced] == reduced.lower[~forced])
    assert np.all(reduced.upper == model.upper)
    uncovered = [cols.tolist() for cols in model.row_cols if not forced[cols].any()]
    assert [cols.tolist() for cols in reduced.row_cols] == uncovered


def test_only_a_solve_without_root_bounds_presolves(monkeypatch):
    calls = []
    real = bnb_mod.presolve
    monkeypatch.setattr(bnb_mod, "presolve", lambda *a: calls.append(a) or real(*a))
    model = generate_instance("set_cover", (30, 15), 4)
    settings = SolverSettings(seed=1, time_limit_s=None, node_limit=200)
    res = solve(model, settings)
    assert len(calls) == 1 and calls[0][1] == settings.feas_tol
    assert evaluate_solution(model, res.incumbent).feasible
    calls.clear()
    solve(model, settings, root_bounds=BoundState.from_model(model))
    assert not calls
    # LNS sub-MIPs pass root bounds: a search with sub-MIPs presolves once, at the top
    subs = []
    real_sub = bnb_mod.TreeSearch.sub_solve
    monkeypatch.setattr(bnb_mod.TreeSearch, "sub_solve",
                        lambda *a, **k: subs.append(1) or real_sub(*a, **k))
    solve(generate_instance("gap", (24, 4), 5), SolverSettings(seed=1, time_limit_s=None))
    assert subs and len(calls) == 1
