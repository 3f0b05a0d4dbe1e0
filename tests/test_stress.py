"""Randomized cross-checks of the LP engine and the full solver.

These go beyond the module tests: larger LPs against scipy's HiGHS when
scipy is available, and mixed binary/continuous MIPs against a two-stage
oracle (binary enumeration times exact rational LP over the remainder).
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from banditmip.bnb import SolveStatus, SolverSettings, solve
from banditmip.simplex import BoundState, LpStatus, solve_lp

from oracles import lp_vertex_oracle, model_from_rows


def _sparse_rows(A):
    rows_c, rows_v = [], []
    for i in range(A.shape[0]):
        idx = np.nonzero(A[i])[0]
        if len(idx) == 0:
            return None, None
        rows_c.append(idx)
        rows_v.append(A[i][idx].astype(float))
    return rows_c, rows_v


def test_lp_agrees_with_scipy_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(777)
    compared = 0
    while compared < 150:
        n = int(rng.integers(2, 15))
        m = int(rng.integers(1, 15))
        c = rng.integers(-9, 10, size=n).astype(float)
        dens = rng.uniform(0.3, 1.0)
        A = rng.integers(-9, 10, size=(m, n)).astype(float)
        A *= rng.random((m, n)) < dens
        senses = rng.choice(list("LGE"), size=m, p=[0.45, 0.45, 0.10])
        b = rng.integers(-9, 10, size=m).astype(float)
        lower = rng.integers(-9, 1, size=n).astype(float)
        upper = lower + rng.integers(0, 12, size=n)
        rows_c, rows_v = _sparse_rows(A)
        if rows_c is None:
            continue
        A_ub, b_ub, A_eq, b_eq = [], [], [], []
        for i, s in enumerate(senses):
            if s == "L":
                A_ub.append(A[i])
                b_ub.append(b[i])
            elif s == "G":
                A_ub.append(-A[i])
                b_ub.append(-b[i])
            else:
                A_eq.append(A[i])
                b_eq.append(b[i])
        ref = linprog(
            c,
            A_ub=np.array(A_ub) if A_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(A_eq) if A_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=list(zip(lower, upper)),
            method="highs",
        )
        if ref.status not in (0, 2):
            continue
        model = model_from_rows(
            rows_c, rows_v, name="f", c=c,
            senses=list(senses), rhs=b, lower=lower, upper=upper,
            integers=np.array([], dtype=np.int64),
        )
        mine = solve_lp(model, BoundState.from_model(model))
        if ref.status == 2:
            assert mine.status is LpStatus.INFEASIBLE
        else:
            assert mine.status is LpStatus.OPTIMAL
            assert abs(mine.objective - ref.fun) <= 1e-6 * max(1.0, abs(ref.fun))
        compared += 1


def test_mixed_integer_models_match_two_stage_oracle():
    """General integers (ub up to 2) plus continuous vars, both solver modes."""
    rng = np.random.default_rng(424242)
    checked = 0
    for trial in range(60):
        nb = int(rng.integers(2, 9))
        nc = int(rng.integers(0, 3))
        n = nb + nc
        m = int(rng.integers(1, 7))
        c = rng.integers(-9, 10, size=n)
        A = rng.integers(-7, 8, size=(m, n))
        senses = rng.choice(list("LGE"), size=m, p=[0.45, 0.4, 0.15])
        b = rng.integers(-8, 12, size=m)
        lower = np.concatenate([np.zeros(nb, int), rng.integers(-6, 1, size=nc)])
        upper = np.concatenate(
            [rng.integers(1, 3, size=nb), lower[nb:] + rng.integers(1, 10, size=nc)]
        )
        rows_c, rows_v = _sparse_rows(A.astype(float))
        if rows_c is None:
            continue
        model = model_from_rows(
            rows_c, rows_v, name="s", c=c.astype(float),
            senses=list(senses), rhs=b.astype(float),
            lower=lower.astype(float), upper=upper.astype(float),
            integers=np.arange(nb),
        )
        best = None
        ranges = [range(int(lower[j]), int(upper[j]) + 1) for j in range(nb)]
        for combo in itertools.product(*ranges):
            combo = np.array(combo)
            if nc == 0:
                act = A[:, :nb] @ combo
                if all(
                    (s == "L" and act[i] <= b[i])
                    or (s == "G" and act[i] >= b[i])
                    or (s == "E" and act[i] == b[i])
                    for i, s in enumerate(senses)
                ):
                    total = Fraction(int(c[:nb] @ combo))
                    if best is None or total < best:
                        best = total
                continue
            rows_red, b_red = [], []
            for i in range(m):
                rows_red.append(list(A[i][nb:]))
                b_red.append(int(b[i]) - int(A[i][:nb] @ combo))
            status, val = lp_vertex_oracle(
                list(c[nb:]), rows_red, "".join(senses), b_red,
                list(lower[nb:]), list(upper[nb:]),
            )
            if status == "optimal":
                total = Fraction(int(c[:nb] @ combo)) + val
                if best is None or total < best:
                    best = total
        mode = "scheduler" if trial % 2 else "default"
        res = solve(model, SolverSettings(
            mode=mode, seed=trial, lns_node_budget=30, dive_max_depth=15,
        ))
        if best is None:
            assert res.status is SolveStatus.INFEASIBLE, trial
        else:
            assert res.status is SolveStatus.OPTIMAL, trial
            assert abs(res.objective - float(best)) <= 1e-6, trial
        checked += 1
    assert checked >= 50
