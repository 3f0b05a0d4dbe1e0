import sys
import time

import numpy as np
import pytest

from banditmip import simplex
from banditmip.model import evaluate_solution, generate_instance, presolve
from banditmip.model import INF
from banditmip.simplex import (
    AT_LOWER,
    AT_UPPER,
    BASIC,
    FREE,
    REFACTOR_EVERY,
    ROW_UPDATE_MIN_M,
    BoundState,
    LpResult,
    LpStatus,
    SimplexContext,
    _bound_status,
    _column_image,
    _Csc,
    _eta_update,
    _inverse,
    _nonbasic_values,
    _repair_statuses,
    solve_lp,
)

from oracles import dense_matrix, lp_vertex_oracle, model_from_dense


def _model(c, rows, senses, rhs, lower, upper, integers=()):
    return model_from_dense(
        rows,
        name="lp",
        c=np.array(c, dtype=float),
        senses=list(senses),
        rhs=np.array(rhs, dtype=float),
        lower=np.array(lower, dtype=float),
        upper=np.array(upper, dtype=float),
        integers=np.array(integers, dtype=np.int64),
    )


def _slack_basis(model):
    """The slack basis with every structural at its lower bound: the dual loop's start
    before the crash, passed as ``basis=`` where a test pins the dual loop's own path."""
    n, m = model.n, model.m
    return np.arange(n, n + m), np.repeat([AT_LOWER, BASIC], [n, m]).astype(np.int8)


def test_bound_optimal_without_rows():
    model = _model([1.0], [], [], [], [0.0], [np.inf])
    res = solve_lp(model, BoundState.from_model(model))
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(0.0, abs=1e-9)
    assert res.x[0] == pytest.approx(0.0, abs=1e-9)


TWO_VAR = dict(
    c=[-1, -1],
    rows=[[1, 2], [3, 1]],
    senses="LL",
    rhs=[4, 6],
    lower=[0, 0],
    upper=[10, 10],
)


def test_two_var_lp_matches_vertex_enumeration():
    model = _model(**TWO_VAR)
    res = solve_lp(model, BoundState.from_model(model))
    status, best = lp_vertex_oracle(
        TWO_VAR["c"],
        TWO_VAR["rows"],
        TWO_VAR["senses"],
        TWO_VAR["rhs"],
        TWO_VAR["lower"],
        TWO_VAR["upper"],
    )
    assert res.status is LpStatus.OPTIMAL and status == "optimal"
    assert res.objective == pytest.approx(float(best), abs=1e-9)


def test_empty_domain_is_infeasible_without_pivots():
    model = _model([1.0], [], [], [], [0.0], [10.0])
    bad = BoundState(lower=np.array([2.0]), upper=np.array([1.0]))
    res = solve_lp(model, bad)
    assert res.status is LpStatus.INFEASIBLE
    assert res.iterations == 0
    assert res.phase1_residual > 0


def test_unbounded_detection():
    model = _model([-1.0], [], [], [], [0.0], [np.inf])
    res = solve_lp(model, BoundState.from_model(model))
    assert res.status is LpStatus.UNBOUNDED


def test_resolve_unchanged_bounds_identical_objective():
    model = _model(**TWO_VAR)
    ctx = SimplexContext(model)
    bounds = BoundState.from_model(model)
    first = ctx.solve(bounds, warm=False)
    again = ctx.solve(bounds, warm=True, basis=first.basis)
    assert again.status is LpStatus.OPTIMAL
    assert again.objective == pytest.approx(first.objective, abs=1e-12)


def test_resolve_fixed_variable_matches_cold():
    model = _model(**TWO_VAR)
    ctx = SimplexContext(model)
    bounds = BoundState.from_model(model)
    root = ctx.solve(bounds, warm=False)
    fixed = bounds.fixed(0, 0.0)
    warmres = ctx.solve(fixed, warm=True, basis=root.basis)
    coldres = solve_lp(model, fixed)
    assert warmres.status == coldres.status == LpStatus.OPTIMAL
    assert warmres.objective == pytest.approx(coldres.objective, rel=1e-7)


def test_resolve_infeasible_fix_matches_cold():
    model = _model(
        c=[1, 1],
        rows=[[1, 1]],
        senses="G",
        rhs=[3],
        lower=[0, 0],
        upper=[2, 2],
    )
    ctx = SimplexContext(model)
    bounds = BoundState.from_model(model)
    root = ctx.solve(bounds, warm=False)
    dead = bounds.fixed(0, 0.0).fixed(1, 0.0)
    warmres = ctx.solve(dead, warm=True, basis=root.basis)
    coldres = solve_lp(model, dead)
    assert warmres.status is LpStatus.INFEASIBLE
    assert coldres.status is LpStatus.INFEASIBLE


def _random_lp(rng):
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 7))
    c = rng.integers(-9, 10, size=n)
    rows = rng.integers(-9, 10, size=(m, n))
    senses = rng.choice(list("LGE"), size=m, p=[0.45, 0.45, 0.10])
    rhs = rng.integers(-9, 10, size=m)
    lower = rng.integers(-9, 1, size=n)
    upper = lower + rng.integers(0, 10, size=n)
    return c, rows, "".join(senses), rhs, lower, upper


def test_oracle_equivalence_random_lps():
    """200 random integer LPs with finite boxes against exact vertex enumeration."""
    rng = np.random.default_rng(2024)
    optimal = infeasible = 0
    for _ in range(200):
        c, rows, senses, rhs, lower, upper = _random_lp(rng)
        model = _model(c, rows.tolist(), senses, rhs, lower, upper)
        res = solve_lp(model, BoundState.from_model(model))
        status, best = lp_vertex_oracle(
            c.tolist(), rows.tolist(), senses, rhs.tolist(),
            lower.tolist(), upper.tolist(),
        )
        if status == "infeasible":
            infeasible += 1
            assert res.status is LpStatus.INFEASIBLE, (c, rows, senses, rhs, lower, upper)
        else:
            optimal += 1
            assert res.status is LpStatus.OPTIMAL, (c, rows, senses, rhs, lower, upper)
            assert abs(res.objective - float(best)) <= 1e-6, (
                res.objective, float(best), c, rows, senses, rhs, lower, upper,
            )
    assert optimal > 20 and infeasible > 20  # the sample exercises both paths


def test_optimal_result_invariants():
    rng = np.random.default_rng(7)
    for _ in range(40):
        c, rows, senses, rhs, lower, upper = _random_lp(rng)
        model = _model(c, rows.tolist(), senses, rhs, lower, upper)
        res = solve_lp(model, BoundState.from_model(model))
        if res.status is LpStatus.OPTIMAL:
            ev = evaluate_solution(model, res.x, feas_tol=1e-7)
            assert ev.feasible
            assert abs(res.objective - float(model.c @ res.x)) <= 1e-7 * max(
                1.0, abs(res.objective)
            )
        elif res.status is LpStatus.INFEASIBLE:
            assert res.phase1_residual > 0


def test_deterministic_iteration_counts():
    model = generate_instance("gap", (24, 4), 5)
    bounds = BoundState.from_model(model)
    runs = [solve_lp(model, bounds).iterations for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_warm_solves_shadowed_during_dive_pattern():
    """Warm re-solves under successive fixings agree with cold solves."""
    model = generate_instance("set_cover", (18, 9), 2)
    ctx = SimplexContext(model, shadow_check=True)  # asserts warm == cold inside
    bounds = BoundState.from_model(model)
    res = ctx.solve(bounds)
    assert res.status is LpStatus.OPTIMAL
    rng = np.random.default_rng(0)
    for _ in range(25):
        j = int(rng.integers(model.n))
        bounds = bounds.fixed(j, float(rng.integers(0, 2)))
        basis = res.basis  # of the last optimal LP, as a dive passes it
        res = ctx.solve(bounds, basis=basis)
        if res.status is LpStatus.INFEASIBLE:
            bounds = BoundState.from_model(model)
            res = ctx.solve(bounds, basis=basis)
            assert res.status is LpStatus.OPTIMAL


def test_cut_rows_participate_in_lp():
    model = _model(
        c=[-1, -1],
        rows=[[1, 1]],
        senses="L",
        rhs=[2],
        lower=[0, 0],
        upper=[1, 1],
    )
    ctx = SimplexContext(model)
    base = ctx.solve(BoundState.from_model(model))
    assert base.objective == pytest.approx(-2.0)
    ctx.add_cut_row([0, 1], [1.0, 1.0], "L", 1.0)
    cut = ctx.solve(BoundState.from_model(model), basis=base.basis)
    assert cut.objective == pytest.approx(-1.0)


def _dense_eta_update(binv, ycol, r):
    """The textbook rank-one update over every row, as the reference."""
    eta = binv[r] / ycol[r]
    binv -= np.outer(ycol, eta)
    binv[r] = eta


@pytest.mark.parametrize("nonzeros", ["some", "all", "one"])
@pytest.mark.parametrize("m", [12, ROW_UPDATE_MIN_M, 300])
def test_eta_update_matches_dense_update(m, nonzeros):
    rng = np.random.default_rng(m)
    binv = rng.standard_normal((m, m))
    r = m // 3
    ycol = rng.standard_normal(m)
    if nonzeros == "some":
        ycol[rng.random(m) < 0.8] = 0.0
    elif nonzeros == "one":
        ycol[:] = 0.0
    ycol[r] = 1.5
    expected = binv.copy()
    _dense_eta_update(expected, ycol, r)
    _eta_update(binv, ycol, r)
    assert np.array_equal(binv, expected)


def _assert_cover_optimum_matches_highs(model, res):
    linprog = pytest.importorskip("scipy.optimize").linprog
    assert res.status is LpStatus.OPTIMAL
    A = np.zeros((model.m, model.n))
    for i, (cols, vals) in enumerate(zip(model.row_cols, model.row_vals)):
        A[i, cols] = vals
    assert set(model.senses) == {"G"}
    ref = linprog(model.c, A_ub=-A, b_ub=-model.rhs,
                  bounds=list(zip(model.lower, model.upper)), method="highs")
    assert ref.status == 0
    assert res.objective == pytest.approx(ref.fun, abs=1e-6)
    assert evaluate_solution(model, res.x, feas_tol=1e-7).feasible


def test_eviction_heavy_lp_agrees_with_highs():
    """150 covering rows, solved by the two-phase primal: phase 1 evicts many
    artificials and the row-restricted update runs."""
    model = generate_instance("set_cover", (300, 150), 0)
    assert model.m >= ROW_UPDATE_MIN_M
    res = solve_lp(model, BoundState.from_model(model))  # warm=False: two-phase
    assert res.iterations == 505  # a changed pivot path fails here first
    _assert_cover_optimum_matches_highs(model, res)


def test_cover_lp_dual_cold_start_agrees_with_highs(monkeypatch):
    """The same LP from a fresh context: the dual loop from the slack basis, no phase 1."""
    model = generate_instance("set_cover", (300, 150), 0)
    cold_starts = []
    cold_start = SimplexContext._cold_start
    monkeypatch.setattr(SimplexContext, "_cold_start",
                        lambda self, lo, up: cold_starts.append(1) or cold_start(self, lo, up))
    res = SimplexContext(model, shadow_check=True).solve(BoundState.from_model(model),
                                                         basis=_slack_basis(model))
    assert cold_starts == [1]  # the shadow check's reference alone, which stays two-phase
    assert res.iterations == 132  # a changed pivot path fails here first
    _assert_cover_optimum_matches_highs(model, res)


def test_eviction_heavy_lp_warm_resolves_shadowed():
    model = generate_instance("set_cover", (300, 150), 0)
    ctx = SimplexContext(model, shadow_check=True)  # asserts warm == cold inside
    bounds = BoundState.from_model(model)
    res = ctx.solve(bounds)
    for step in range(4):
        # a column fixed at its value keeps the saved basis primal feasible
        # (the dual loop ends after 0 pivots); one forced into the cover can
        # make it infeasible (dual pivots).  Both fixings keep the cover LP
        # feasible.
        j = int(np.flatnonzero(res.x > 0.5 if step % 2 == 0 else res.x < 0.5)[step])
        bounds = bounds.fixed(j, 1.0)
        res = ctx.solve(bounds, basis=res.basis)
        assert res.status is LpStatus.OPTIMAL


def test_forced_cover_column_resolves_by_dual_simplex():
    """Forcing an unused column into the cover takes a few dual pivots, not a cold solve."""
    model = generate_instance("set_cover", (300, 150), 0)
    ctx = SimplexContext(model, shadow_check=True)
    bounds = BoundState.from_model(model)
    res = ctx.solve(bounds, basis=_slack_basis(model))
    for step in range(4):
        j = int(np.flatnonzero(res.x > 0.5 if step % 2 == 0 else res.x < 0.5)[step])
        bounds = bounds.fixed(j, 1.0)
        res = ctx.solve(bounds, basis=res.basis)
        assert res.status is LpStatus.OPTIMAL
        if step % 2 == 1:
            assert res.iterations <= 5  # a cold re-solve takes about 450


def _tighten_randomly(rng, lower, upper):
    """One random integer tightening of one variable's box."""
    lower, upper = lower.copy(), upper.copy()
    j = int(rng.integers(len(lower)))
    v = int(rng.integers(lower[j], upper[j] + 1))
    if rng.random() < 0.5:
        lower[j] = v
    else:
        upper[j] = v
    return lower, upper


@pytest.mark.parametrize("refactor_every", [REFACTOR_EVERY, 1])
def test_warm_resolves_after_tightening_match_oracle(monkeypatch, refactor_every):
    """Warm re-solves of 300 random LPs under 3 successive tightenings each, against exact
    enumeration, and one loosening after them.

    The loosening keeps the saved basis primal feasible; it goes through the dual
    loop like every saved basis, which then ends after 0 pivots.  With
    ``REFACTOR_EVERY`` at 1 the dual loop refreshes its point and checks its
    residuals at every pivot.
    """
    monkeypatch.setattr(simplex, "REFACTOR_EVERY", refactor_every)
    dual_runs = []  # pivots of each dual loop of a tightened re-solve
    dual_loop = SimplexContext._dual_loop

    def counted(self, *args):
        out = dual_loop(self, *args)
        dual_runs.append(out[1])
        return out

    monkeypatch.setattr(SimplexContext, "_dual_loop", counted)
    rng = np.random.default_rng(11)
    optimal = infeasible = loosened = 0
    for _ in range(300):
        c, rows, senses, rhs, lower, upper = _random_lp(rng)
        model = _model(c, rows.tolist(), senses, rhs, lower, upper)
        ctx = SimplexContext(model)
        res = ctx.solve(BoundState.from_model(model), warm=False)
        for _ in range(3):
            if res.status is not LpStatus.OPTIMAL:
                break
            lower, upper = _tighten_randomly(rng, lower, upper)
            res = ctx.solve(BoundState(lower=lower.astype(float), upper=upper.astype(float)),
                            basis=res.basis)
            case = (c, rows, senses, rhs, lower, upper)
            status, best = lp_vertex_oracle(
                c.tolist(), rows.tolist(), senses, rhs.tolist(),
                lower.tolist(), upper.tolist(),
            )
            if status == "infeasible":
                infeasible += 1
                assert res.status is LpStatus.INFEASIBLE, case
                assert res.phase1_residual > 0, case
            else:
                optimal += 1
                assert res.status is LpStatus.OPTIMAL, case
                assert abs(res.objective - float(best)) <= 1e-6, (res.objective, best, case)
        if res.status is LpStatus.OPTIMAL and res.basis is not None:
            lower, upper = _loosen_basic(res.basis[0], model.n, lower, upper)
            before = len(dual_runs)
            res = ctx.solve(BoundState(lower=lower.astype(float), upper=upper.astype(float)),
                            basis=res.basis)
            case = (c, rows, senses, rhs, lower, upper)
            status, best = lp_vertex_oracle(
                c.tolist(), rows.tolist(), senses, rhs.tolist(),
                lower.tolist(), upper.tolist(),
            )
            assert status == "optimal" and res.status is LpStatus.OPTIMAL, case
            assert abs(res.objective - float(best)) <= 1e-6, (res.objective, best, case)
            assert dual_runs[before:] == [0], case
            del dual_runs[before:]
            loosened += 1
    assert optimal > 50 and infeasible > 10 and loosened > 50
    assert sum(p > 0 for p in dual_runs) > 20  # tightened re-solves pivot in the dual loop


def _loosen_basic(basis, n, lower, upper):
    """The box with each basic structural's bounds widened by one: the basis stays primal feasible."""
    lower, upper = lower.copy(), upper.copy()
    basic = basis[basis < n]
    lower[basic] -= 1
    upper[basic] += 1
    return lower, upper


def _watch_carried_reduced_costs(monkeypatch):
    """Errors of the dual loop's carried ``d`` against ``_reduced_costs``, one per dual pivot.

    ``_eta_update`` is a dual pivot's last step, after ``d`` and the basis have
    changed; the wrapper reads ``d``, ``basis``, ``cost`` and ``A`` from the
    dual loop's frame.  Each error is ``max |d - d_ref|`` over ``1 + max |c|``.
    """
    errors = []
    eta_update = simplex._eta_update

    def checked(binv, ycol, r):
        eta_update(binv, ycol, r)
        frame = sys._getframe(1)
        if frame.f_code.co_name == "_dual_loop":
            loc = frame.f_locals
            cost = loc["cost"]
            ref = simplex._reduced_costs(cost, loc["basis"], binv, loc["A"])
            errors.append(np.max(np.abs(loc["d"] - ref)) / (1.0 + np.max(np.abs(cost))))

    monkeypatch.setattr(simplex, "_eta_update", checked)
    return errors


def _without_box_certificate(ctx, bounds, basis):
    """A warm solve by the simplex alone: an LP that one row shows infeasible still pivots."""
    return ctx._solve_inner(bounds, simplex.DEFAULT_ITER_LIMIT, True, basis)


@pytest.mark.parametrize("store_rows", [ROW_UPDATE_MIN_M, 1])
def test_carried_reduced_costs_match_a_fresh_evaluation(monkeypatch, store_rows):
    """The warm re-solves of the oracle test above, on both stores, checked after every dual pivot.

    The re-solves skip the box certificate, so that the infeasible ones pivot in the dual loop
    as well.
    """
    monkeypatch.setattr(simplex, "ROW_UPDATE_MIN_M", store_rows)
    errors = _watch_carried_reduced_costs(monkeypatch)
    rng = np.random.default_rng(11)
    for _ in range(300):
        c, rows, senses, rhs, lower, upper = _random_lp(rng)
        model = _model(c, rows.tolist(), senses, rhs, lower, upper)
        ctx = SimplexContext(model)
        assert isinstance(ctx.A, _Csc) == (model.m >= store_rows)
        res = ctx.solve(BoundState.from_model(model), warm=False)
        for _ in range(3):
            if res.status is not LpStatus.OPTIMAL:
                break
            lower, upper = _tighten_randomly(rng, lower, upper)
            res = _without_box_certificate(
                ctx, BoundState(lower=lower.astype(float), upper=upper.astype(float)), res.basis)
    assert len(errors) > 50
    assert max(errors) <= 1e-9


def test_carried_reduced_costs_match_across_refactors(monkeypatch):
    """A cover root from the slack basis: more than REFACTOR_EVERY dual pivots, each checked."""
    model = generate_instance("set_cover", (300, 150), 0)
    errors = _watch_carried_reduced_costs(monkeypatch)
    res = SimplexContext(model).solve(BoundState.from_model(model), basis=_slack_basis(model))
    assert res.status is LpStatus.OPTIMAL
    assert len(errors) > 2 * REFACTOR_EVERY
    assert max(errors) <= 1e-9


def test_dual_loop_evaluates_reduced_costs_only_at_refactors(monkeypatch):
    """On a 150-row cover LP, ``d`` is computed in full on entry, at each refactor and in
    the closing primal pass, not at every dual pivot."""
    model = generate_instance("set_cover", (300, 150), 0)
    assert model.m >= ROW_UPDATE_MIN_M
    calls = []
    reduced_costs = simplex._reduced_costs
    monkeypatch.setattr(simplex, "_reduced_costs",
                        lambda *a: calls.append(1) or reduced_costs(*a))
    ctx = SimplexContext(model)
    bounds = BoundState.from_model(model)
    res = ctx.solve(bounds, basis=_slack_basis(model))
    assert res.iterations > REFACTOR_EVERY  # the root passes a refactor
    assert len(calls) <= 2 + res.iterations // REFACTOR_EVERY, (len(calls), res.iterations)
    for step in range(4):
        j = int(np.flatnonzero(res.x > 0.5 if step % 2 == 0 else res.x < 0.5)[step])
        bounds = bounds.fixed(j, 1.0)
        calls.clear()
        res = ctx.solve(bounds, basis=res.basis)
        assert res.status is LpStatus.OPTIMAL
        assert len(calls) <= 2 + res.iterations // REFACTOR_EVERY, (step, len(calls))


def test_basis_saved_before_a_cut_warm_starts():
    """A basis from before add_cut_row re-solves with the cut's slack basic, as a cold solve would."""
    model = generate_instance("gap", (24, 4), 5)
    bounds = BoundState.from_model(model)
    ctx = SimplexContext(model, shadow_check=True)
    root = ctx.solve(bounds)
    assert root.status is LpStatus.OPTIMAL and len(root.basis[0]) == model.m
    cut = (np.arange(model.n), model.c, "G", float(np.floor(root.objective)) + 1.0)
    ctx.add_cut_row(*cut)
    child = bounds.tightened(int(np.argmax(root.x)), hi=0.0)
    warm = ctx.solve(child, basis=root.basis)
    cold = SimplexContext(model, cuts=[cut]).solve(child, warm=False)
    assert warm.status is cold.status is LpStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
    assert warm.iterations < cold.iterations
    assert len(warm.basis[0]) == model.m + 1


@pytest.mark.parametrize("family, shape, seed", [("gap", (24, 4), 5), ("set_cover", (300, 150), 0)])
def test_context_keeps_nothing_between_solves(family, shape, seed):
    """A solve without ``basis=`` starts the same way however many LPs the context solved before."""
    model = generate_instance(family, shape, seed)
    ctx = SimplexContext(model)
    bounds = BoundState.from_model(model)
    first = ctx.solve(bounds)
    assert first.status is LpStatus.OPTIMAL
    for j in np.flatnonzero(first.x > 0.5)[:3]:
        ctx.solve(bounds.fixed(int(j), 0.0), basis=first.basis)
    again = ctx.solve(bounds)
    assert (again.status, again.iterations) == (first.status, first.iterations)
    assert again.x.tobytes() == first.x.tobytes()


@pytest.mark.parametrize("family, size, seed", [
    ("gap", (24, 4), 5),  # the dense store
    ("knapsack", (14, 3), 3),
    ("set_cover", (300, 150), 0),  # the column store, from the crash basis
])
def test_reduced_costs_price_the_optimal_basis(family, size, seed):
    """``reduced_costs`` is c - A'y with B'y = c_B solved afresh, and dual feasible at the
    bound each nonbasic structural sits on; so on a warm child and a cold solve."""
    model = generate_instance(family, size, seed)
    ctx = SimplexContext(model)
    bounds = BoundState.from_model(model)
    root = ctx.solve(bounds)
    j = int(np.argmax(np.minimum(root.x - np.floor(root.x), np.ceil(root.x) - root.x)))
    child = ctx.solve(bounds.tightened(j, hi=np.floor(root.x[j])), basis=root.basis)
    cold = ctx.solve(bounds, warm=False)
    full = np.hstack([dense_matrix(model), np.eye(model.m)])
    cost = np.concatenate([model.c, np.zeros(model.m)])
    for res in (root, child, cold):
        assert res.status is LpStatus.OPTIMAL
        basis, vstat = res.basis
        y = np.linalg.solve(full[:, basis].T, cost[basis])
        d = cost[:model.n] - full[:, :model.n].T @ y
        assert np.allclose(res.reduced_costs, d, atol=1e-9)
        status = vstat[:model.n]
        assert np.all(res.reduced_costs[status == AT_LOWER] >= -1e-9)
        assert np.all(res.reduced_costs[status == AT_UPPER] <= 1e-9)
    capped = ctx.solve(bounds, iter_limit=0)  # only an optimal LP carries them
    assert capped.status is LpStatus.ITER_LIMIT and capped.reduced_costs is None


@pytest.mark.parametrize("warm", [True, False])
def test_a_passed_deadline_stops_a_cold_column_store_lp(warm):
    """A deadline already passed stops the dual loop from the slack basis (warm) or phase 1
    (two-phase) before its first pivot; the shadow check then compares nothing."""
    model = generate_instance("set_cover", (300, 150), 0)
    bounds = BoundState.from_model(model)
    slacks = _slack_basis(model)
    full = SimplexContext(model).solve(bounds, warm=warm, basis=slacks)
    assert full.status is LpStatus.OPTIMAL and full.iterations > REFACTOR_EVERY
    ctx = SimplexContext(model, shadow_check=True)
    assert isinstance(ctx.A, _Csc)
    res = ctx.solve(bounds, warm=warm, basis=slacks, deadline=time.perf_counter() - 1.0)
    assert res.status is LpStatus.TIME_LIMIT and res.x is None and res.basis is None
    assert res.iterations == 0


@pytest.mark.parametrize("family, size, seed", [
    ("gap", (24, 4), 5),  # the dense store
    ("set_cover", (300, 150), 0),  # the column store
])
def test_a_passed_deadline_keeps_a_start_that_is_already_optimal(family, size, seed):
    """Neither loop reads the clock when it has no pivot to make: re-solved from its own
    optimal basis, an LP comes back OPTIMAL after 0 pivots however late it is."""
    model = generate_instance(family, size, seed)
    bounds = BoundState.from_model(model)
    ctx = SimplexContext(model, shadow_check=True)
    first = ctx.solve(bounds)
    assert first.status is LpStatus.OPTIMAL and first.iterations > 0
    again = ctx.solve(bounds, basis=first.basis, deadline=time.perf_counter() - 1.0)
    assert again.status is LpStatus.OPTIMAL and again.iterations == 0
    assert again.objective == pytest.approx(first.objective, abs=1e-9)


def _inverse_calls(monkeypatch):
    """The caller of each ``_inverse`` call, with the dual loop's pivot count (else None)."""
    calls = []
    inverse = simplex._inverse

    def counted(A, basis):
        frame = sys._getframe(1)
        calls.append((frame.f_code.co_name, frame.f_locals.get("iters")))
        return inverse(A, basis)

    monkeypatch.setattr(simplex, "_inverse", counted)
    return calls


@pytest.mark.parametrize("seed, objective", [(1, 752.25), (2, 728.0)])
def test_cover_root_inverts_only_at_the_warm_start(monkeypatch, seed, objective):
    """The 400-row cover root runs 347-393 dual pivots from the slack basis: each refresh
    finds the eta-updated inverse's residuals below DRIFT_TOL, so B^-1 is never rebuilt."""
    model = generate_instance("set_cover", (800, 400), seed)
    calls = _inverse_calls(monkeypatch)
    ctx = SimplexContext(model)
    res = ctx.solve(BoundState.from_model(model), basis=_slack_basis(model))
    assert res.status is LpStatus.OPTIMAL and res.iterations > 5 * REFACTOR_EVERY
    assert res.objective == pytest.approx(objective, abs=1e-7)
    assert calls == [("_try_warm_start", None)]  # the slack basis's
    assert ctx.max_row_residual <= simplex.FEAS_TOL


def test_planted_drift_is_mended_at_the_first_refresh(monkeypatch):
    """Row r of B^-1 scaled by 1 + 1e-6 after the 10th dual pivot: the refresh at pivot
    REFACTOR_EVERY sees the residuals and inverts again, once, and the shadow check holds
    the LP to a cold solve."""
    model = generate_instance("set_cover", (300, 150), 0)
    pivots = []
    eta_update = simplex._eta_update

    def drifting(binv, ycol, r):
        eta_update(binv, ycol, r)
        if sys._getframe(1).f_code.co_name == "_dual_loop":
            pivots.append(r)
            if len(pivots) == 10:
                binv[r] *= 1.0 + 1e-6

    monkeypatch.setattr(simplex, "_eta_update", drifting)
    calls = _inverse_calls(monkeypatch)
    res = SimplexContext(model, shadow_check=True).solve(BoundState.from_model(model),
                                                         basis=_slack_basis(model))
    assert res.status is LpStatus.OPTIMAL and len(pivots) > REFACTOR_EVERY
    assert [it for caller, it in calls if caller == "_dual_loop"] == [REFACTOR_EVERY]
    assert res.objective == pytest.approx(216.0, abs=1e-7)


@pytest.mark.parametrize("upper, certified", [
    ([1, 1], True),  # x0 + x1 <= 2 < 3 anywhere in the box
    ([2, 2], False),  # x0 = x1 = 1.5 is feasible
    ([1, INF], False),  # x1 can grow without limit
])
def test_farkas_row_certifies_only_a_true_infeasibility(upper, certified):
    model = _model(c=[1, 1], rows=[[1, 1]], senses="G", rhs=[3], lower=[0, 0], upper=upper)
    ctx = SimplexContext(model)
    lo = np.array([0.0, 0.0, -INF])
    up = np.array(upper + [0.0], dtype=float)
    vstat = np.array([AT_LOWER, AT_LOWER, BASIC], dtype=np.int8)
    # the slack s = 3 - x0 - x1 is basic at 3, above its upper bound 0
    resid = ctx._farkas_violation(lo, up, np.array([2]), vstat, 0, to_lower=False)
    assert (resid > 0) is certified
    if certified:
        assert resid == pytest.approx(1.0)


def test_farkas_row_bounds_a_free_slack_by_its_row_activity():
    """Dust on an unbounded slack's column does not void a certificate its row activity bounds."""
    model = _model(c=[1, 1], rows=[[1, 0], [1, -1]], senses="GL", rhs=[3, 5],
                   lower=[0, 0], upper=[1, 1])
    ctx = SimplexContext(model)
    ctx.A[0, 3] = 1e-17  # round-off on the second row's slack, which is unbounded above
    lo = np.array([0.0, 0.0, -INF, 0.0])
    up = np.array([1.0, 1.0, 0.0, INF])
    vstat = np.array([AT_LOWER, BASIC, BASIC, AT_LOWER], dtype=np.int8)
    # row 0: s0 = 3 - x0 stays at 2 or more, above its upper bound 0
    resid = ctx._farkas_violation(lo, up, np.array([2, 1]), vstat, 0, to_lower=False)
    assert resid == pytest.approx(2.0)


def _dense_activity_range(A, lo, up):
    """The dense activity range the entry-based one replaced, kept as its reference."""
    pos, neg = A > 0, A < 0
    with np.errstate(invalid="ignore"):
        least = np.where(pos, A * lo, np.where(neg, A * up, 0.0)).sum(axis=1)
        most = np.where(pos, A * up, np.where(neg, A * lo, 0.0)).sum(axis=1)
    return least, most


def test_activity_range_matches_the_dense_reference():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 10))
        A = np.where(rng.random((m, n)) < 0.5, rng.integers(-4, 5, size=(m, n)), 0).astype(float)
        lo = np.where(rng.random(n) < 0.3, -INF, rng.integers(-3, 1, size=n).astype(float))
        up = np.where(rng.random(n) < 0.3, INF, rng.integers(1, 4, size=n).astype(float))
        ctx = SimplexContext(_model(np.zeros(n), A.tolist(), "L" * m, np.zeros(m),
                                    np.zeros(n), np.ones(n)))
        floor = ctx._least_activity(lo, up)
        least, most = floor[:m], -floor[m:]
        ref_least, ref_most = _dense_activity_range(A, lo, up)
        assert np.array_equal(least, ref_least) and np.array_equal(most, ref_most)


def test_uncertified_infeasibility_solves_cold(monkeypatch):
    """x0 + x1 >= 3 and x0 = x1 under x0 <= 1: each row alone can hold, so the box
    certificate passes the LP to the dual loop, whose Farkas row is then not trusted."""
    model = _model(c=[1, 1], rows=[[1, 1], [1, -1]], senses="GE", rhs=[3, 0],
                   lower=[0, 0], upper=[2, 2])
    ctx = SimplexContext(model)
    bounds = BoundState.from_model(model)
    root = ctx.solve(bounds, warm=False)
    cold_starts, dual_statuses = [], []
    cold_start, dual_loop = SimplexContext._cold_start, SimplexContext._dual_loop
    monkeypatch.setattr(SimplexContext, "_farkas_violation", lambda self, *a: -1.0)
    monkeypatch.setattr(SimplexContext, "_cold_start",
                        lambda self, lo, up: cold_starts.append(1) or cold_start(self, lo, up))

    def counted_dual(self, *args):
        out = dual_loop(self, *args)
        dual_statuses.append(out[0])
        return out

    monkeypatch.setattr(SimplexContext, "_dual_loop", counted_dual)
    res = ctx.solve(bounds.tightened(0, hi=1.0), basis=root.basis)
    assert res.status is LpStatus.INFEASIBLE and res.phase1_residual > 0
    assert dual_statuses == [None]  # the dual loop ran into the row and could not certify it
    assert cold_starts == [1]  # the dual loop's verdict was not trusted


# ---------------------------------------------------------------------------
# the box certificate: a row that cannot reach its range anywhere in the box
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("store_rows", [ROW_UPDATE_MIN_M, 1])
def test_box_certificate_rejects_only_infeasible_lps(monkeypatch, store_rows):
    """Random LPs with E/L/G rows, negative coefficients, a cut row and some bounds stated as
    rows, so that the solver sees infinite bounds, under 3 random tightenings each: every box
    the certificate rejects is infeasible by exact enumeration."""
    monkeypatch.setattr(simplex, "ROW_UPDATE_MIN_M", store_rows)
    rng = np.random.default_rng(41)
    rejected = unbounded = 0
    for _ in range(120):
        model, (c, rows, senses, rhs, lower, upper) = _lp_with_rows_for_bounds(rng)
        cut, cut_rhs = rng.integers(-9, 10, size=len(c)), int(rng.integers(-9, 10))
        cut_sense = str(rng.choice(list("LGE")))
        cuts = [(np.flatnonzero(cut), cut[cut != 0], cut_sense, cut_rhs)]
        ctx = SimplexContext(model, cuts=cuts)
        assert isinstance(ctx.A, _Csc) == (ctx.m >= store_rows)
        lo, up = model.lower.copy(), model.upper.copy()
        for _ in range(3):
            j = int(rng.integers(len(c)))
            v = int(rng.integers(lower[j], upper[j] + 1))
            lower, upper = lower.copy(), upper.copy()
            if rng.random() < 0.5:
                lo[j], lower[j] = max(lo[j], v), v
            else:
                up[j], upper[j] = min(up[j], v), v
            res = ctx.solve(BoundState(lower=lo.copy(), upper=up.copy()))
            if ctx._box_certificate(BoundState(lower=lo, upper=up)) is None:
                continue
            rejected += 1
            unbounded += bool(np.any(np.isinf(lo) | np.isinf(up)))
            case = (c, rows, senses, rhs, lower, upper, cut, cut_sense, cut_rhs)
            status, _ = lp_vertex_oracle(
                c.tolist(), rows.tolist() + [cut.tolist()], senses + cut_sense,
                rhs.tolist() + [cut_rhs], lower.tolist(), upper.tolist())
            assert status == "infeasible", case
            assert res.status is LpStatus.INFEASIBLE and res.iterations == 0, case
            assert res.phase1_residual > 0, case
    assert rejected > 100 and unbounded > 30, (rejected, unbounded)


@pytest.mark.parametrize("share, status, certified", [
    (0.002, LpStatus.OPTIMAL, False),  # within FEAS_TOL: the simplex accepts the point (1, 1)
    (0.5, LpStatus.INFEASIBLE, False),  # within the margin: the simplex decides
    (2.0, LpStatus.INFEASIBLE, True),
])
def test_box_certificate_leaves_a_miss_within_its_margin_to_the_simplex(
        monkeypatch, share, status, certified):
    """x0 + x1 >= 2 + miss under [0, 1]^2 misses by ``miss``, a share of the row's margin
    ``BOX_TOL * (1 + |b| + 2)``."""
    miss = share * simplex.BOX_TOL * 5.0
    model = _model(c=[1, 1], rows=[[1, 1]], senses="G", rhs=[2.0 + miss], lower=[0, 0],
                   upper=[1, 1])
    ctx = SimplexContext(model)
    # entry 1 is the row's negation, -(x0 + x1) <= -(2 + miss); entry 0 is open (+inf)
    assert ctx.box_limit[1] - ctx.box_need[1] == pytest.approx(simplex.BOX_TOL * (5.0 + miss))
    inner = []
    solve_inner = SimplexContext._solve_inner
    monkeypatch.setattr(SimplexContext, "_solve_inner",
                        lambda self, *a: inner.append(1) or solve_inner(self, *a))
    res = ctx.solve(BoundState.from_model(model))
    assert res.status is status
    assert inner == ([] if certified else [1])
    if certified:
        assert res.iterations == 0 and res.phase1_residual == pytest.approx(miss)


def test_shadow_check_covers_box_certified_lps(monkeypatch):
    """The shadow check's cold reference runs the simplex on a certified LP too: a true
    certificate passes it, and one planted on a feasible LP fails it."""
    model = _model(c=[1, 1], rows=[[1, 1]], senses="G", rhs=[3], lower=[0, 0], upper=[2, 2])
    ctx = SimplexContext(model, shadow_check=True)
    bounds = BoundState.from_model(model)
    res = ctx.solve(bounds.fixed(0, 0.0).fixed(1, 0.0))  # x0 + x1 <= 0 < 3: certified
    assert res.status is LpStatus.INFEASIBLE and res.iterations == 0
    assert res.phase1_residual == pytest.approx(3.0)
    monkeypatch.setattr(SimplexContext, "_box_certificate",
                        lambda self, bounds: LpResult(LpStatus.INFEASIBLE, None, INF, 0, 1.0))
    with pytest.raises(AssertionError, match="warm/cold status mismatch"):
        ctx.solve(bounds)  # x0 = x1 = 1.5 is feasible


def _random_boxes(rng, n):
    lo = np.where(rng.random(n) < 0.5, -INF, rng.integers(-3, 1, size=n).astype(float))
    up = np.where(rng.random(n) < 0.5, INF, rng.integers(1, 4, size=n).astype(float))
    return lo, up


def test_cold_start_statuses_match_loop():
    rng = np.random.default_rng(5)
    lo, up = _random_boxes(rng, 200)
    vstat = _bound_status(lo, up)
    val = _nonbasic_values(vstat, lo, up)
    for j in range(len(lo)):
        if lo[j] > -INF:
            assert (vstat[j], val[j]) == (AT_LOWER, lo[j])
        elif up[j] < INF:
            assert (vstat[j], val[j]) == (AT_UPPER, up[j])
        else:
            assert (vstat[j], val[j]) == (FREE, 0.0)


def _loop_cold_start(ctx, lo, up):
    """Reference phase-1 start, built one row at a time on a dense copy of the matrix."""
    A0 = _densify(ctx.A) if isinstance(ctx.A, _Csc) else ctx.A
    n, m = ctx.n, ctx.m
    nbase = n + m
    vstat = np.empty(nbase, dtype=np.int8)
    val = np.zeros(nbase)
    vstat[:n] = _bound_status(lo[:n], up[:n])
    val[:n] = _nonbasic_values(vstat[:n], lo[:n], up[:n])
    basis = np.arange(n, nbase, dtype=np.int64)
    vstat[n:] = BASIC
    resid = ctx.b - A0[:, :n] @ val[:n]
    art_cols, art_rows = [], []
    for i in range(m):
        s_lo, s_up = lo[n + i], up[n + i]
        s = min(max(resid[i], s_lo), s_up)
        left = resid[i] - s
        if abs(left) > simplex.FEAS_TOL:
            vstat[n + i] = AT_LOWER if s == s_lo else AT_UPPER
            val[n + i] = s
            art_cols.append(np.sign(left))
            art_rows.append(i)
        else:
            val[n + i] = resid[i]
    nart = len(art_rows)
    A = np.zeros((m, nbase + nart))
    A[:, :nbase] = A0
    aval = np.zeros(nart)
    for k, (i, sgn) in enumerate(zip(art_rows, art_cols)):
        A[i, nbase + k] = sgn
        aval[k] = abs(ctx.b[i] - A0[i] @ val[:nbase])
        basis[i] = nbase + k
    return (basis, np.concatenate([vstat, np.full(nart, BASIC, dtype=np.int8)]),
            np.concatenate([val, aval]), A,
            np.concatenate([lo, np.zeros(nart)]), np.concatenate([up, np.full(nart, INF)]))


# E row needing an artificial (+), G row needing one (+), L row whose slack
# absorbs its residual, L row needing one (-), G row whose slack absorbs it;
# x3 starts at its upper bound, x4 is free
PHASE1 = dict(
    c=[1, 1, 1, 1, 0],
    rows=[[1, 1, 0, 0, 0], [0, 1, 2, 0, 0], [1, 0, 0, 1, 0], [0, 0, -1, -1, 1], [1, 0, 0, -1, 0]],
    senses="EGLLG",
    rhs=[3, 4, 5, -4, -3],
    lower=[0, 0, 0, -INF, -INF],
    upper=[4, 4, 4, 2, INF],
)


@pytest.mark.parametrize("store_rows", [ROW_UPDATE_MIN_M, 1])
def test_cold_start_matches_the_row_loop(monkeypatch, store_rows):
    monkeypatch.setattr(simplex, "ROW_UPDATE_MIN_M", store_rows)
    models = [_model(**PHASE1), generate_instance("gap", (24, 4), 5),
              generate_instance("set_cover", (40, 20), 1), generate_instance("knapsack", (12, 3), 2)]
    seen_art = set()
    for model in models:
        ctx = SimplexContext(model)
        assert isinstance(ctx.A, _Csc) == (store_rows == 1)
        lo = np.concatenate([model.lower, ctx.slack_lo])
        up = np.concatenate([model.upper, ctx.slack_up])
        basis, vstat, val, A, lo_out, up_out = ctx._cold_start(lo.copy(), up.copy())
        ref = _loop_cold_start(ctx, lo, up)
        for got, want in zip((basis, vstat, val, lo_out, up_out), ref[:3] + ref[4:]):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(_densify(A) if isinstance(A, _Csc) else A, ref[3])
        if len(val) == ctx.n + ctx.m:
            assert A is ctx.A  # no artificial: the context's own matrix
        nbase = ctx.n + ctx.m
        for i in np.flatnonzero(basis >= nbase):
            seen_art.add((model.senses[i], float(np.sign(ref[3][i, basis[i]]))))
    pins = _model(**PHASE1)
    ctx = SimplexContext(pins)
    start = ctx._cold_start(np.concatenate([pins.lower, ctx.slack_lo]),
                            np.concatenate([pins.upper, ctx.slack_up]))
    assert start[0].tolist() == [10, 11, 7, 12, 9]  # rows 0, 1 and 3 take artificials
    assert start[2][ctx.n:].tolist() == [0, 0, 3, 0, -1, 3, 4, 2]
    assert {("E", 1.0), ("G", 1.0), ("L", -1.0)} <= seen_art


def test_warm_start_status_repair_matches_loop():
    rng = np.random.default_rng(6)
    lo, up = _random_boxes(rng, 400)
    saved = rng.choice([BASIC, AT_LOWER, AT_UPPER, FREE], size=400).astype(np.int8)
    expected = saved.copy()
    expected_val = np.zeros(len(saved))
    for j in range(len(saved)):
        if expected[j] == BASIC:
            continue
        if expected[j] == AT_LOWER and lo[j] == -INF:
            expected[j] = AT_UPPER if up[j] < INF else FREE
        elif expected[j] == AT_UPPER and up[j] == INF:
            expected[j] = AT_LOWER if lo[j] > -INF else FREE
        elif expected[j] == FREE and (lo[j] > -INF or up[j] < INF):
            expected[j] = AT_LOWER if lo[j] > -INF else AT_UPPER
        expected_val[j] = (lo[j] if expected[j] == AT_LOWER
                           else up[j] if expected[j] == AT_UPPER else 0.0)
    before = saved.copy()
    vstat = _repair_statuses(saved, lo, up)
    assert np.array_equal(saved, before)  # the saved basis stays reusable
    assert vstat.dtype == np.int8 and np.array_equal(vstat, expected)
    assert np.array_equal(_nonbasic_values(vstat, lo, up), expected_val)


# ---------------------------------------------------------------------------
# the column-compressed store and its unit-column basis inverse
# ---------------------------------------------------------------------------

def _densify(A: _Csc) -> np.ndarray:
    out = np.zeros((A.m, A.ncols))
    out[A.rows, A.col] = A.vals
    return out


def _entries(dense):
    """(m, ncols, rows, cols, vals) of a dense matrix's nonzeros, row by row."""
    rows, cols = np.nonzero(dense)
    return (*dense.shape, rows, cols, dense[rows, cols].astype(float))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_column_store_products_match_dense(seed):
    rng = np.random.default_rng(seed)
    m, n = 40, 70
    dense = np.where(rng.random((m, n)) < 0.1, rng.integers(-5, 6, size=(m, n)), 0)
    dense[:, 0] = 0  # an empty column
    full = np.hstack([dense, np.eye(m)])
    A = _Csc.from_entries(*_entries(full))
    assert np.array_equal(_densify(A), full)
    assert A.counts[0] == 0  # the empty column
    y, v = rng.standard_normal(m), rng.standard_normal(n + m)
    assert np.allclose(y @ A, y @ full, rtol=1e-13, atol=1e-13)
    assert np.allclose(A @ v, full @ v, rtol=1e-13, atol=1e-13)
    assert np.array_equal(_densify(abs(A)), np.abs(full))
    mask = rng.random(n + m) < 0.5
    idx = rng.choice(n + m, size=15, replace=False)
    for key in (mask, idx, slice(None, n), slice(5, n + 3)):
        assert np.array_equal(_densify(A[:, key]), full[:, key])
    assert np.allclose(A[:, mask] @ v[mask], full[:, mask] @ v[mask], rtol=1e-13, atol=1e-13)
    binv = rng.standard_normal((m, m))
    for j in (0, 1, n - 1, n + 7):  # the empty column, structurals and a slack
        assert np.allclose(_column_image(binv, A, j), binv @ full[:, j], rtol=1e-13, atol=1e-13)


def test_dense_store_matches_a_loop_built_matrix():
    model = generate_instance("gap", (24, 4), 5)
    cuts = [(np.array([0, 3, 5]), np.array([1.0, 0.0, -1.0]), "L", 1.0),
            (np.array([2]), np.array([2.0]), "G", 0.0)]
    ctx = SimplexContext(model, cuts=cuts[:1])
    ctx.add_cut_row(*cuts[1])
    n, m = model.n, model.m + 2
    assert m < ROW_UPDATE_MIN_M and isinstance(ctx.A, np.ndarray)
    A = np.zeros((m, n + m))
    rows = [*zip(model.row_cols, model.row_vals), *((c[0], c[1]) for c in cuts)]
    for i, (cols, vals) in enumerate(rows):
        for j, v in zip(cols, vals):
            A[i, j] = v
        A[i, n + i] = 1.0
    assert np.array_equal(ctx.A, A)


def test_cut_row_rebuilds_the_column_store():
    model = generate_instance("set_cover", (300, 150), 0)
    ctx = SimplexContext(model)
    assert isinstance(ctx.A, _Csc)
    cut = (np.array([0, 7, 12, 299]), np.array([1.0, 2.0, 0.0, -1.0]), "L", 2.0)
    ctx.add_cut_row(*cut)
    A = np.zeros((model.m + 1, model.n))
    A[:model.m] = dense_matrix(model)
    A[model.m, cut[0]] = cut[1]
    assert np.array_equal(_densify(ctx.A), np.hstack([A, np.eye(model.m + 1)]))
    assert np.all(ctx.A.vals != 0.0)  # the cut's zero is not stored
    assert ctx.slack_lo[-1] == 0.0 and ctx.slack_up[-1] == INF and ctx.b[-1] == 2.0


def _basis_matrix(rng, m=30):
    """A store with multi-entry structurals, singletons, slacks and +-1 artificials.

    Columns: 0..m-1 multi-entry, m..m+4 singletons (values 2.5, -1 and 1 on
    rows 0..4), then m slacks, then artificials -e_i (even i) and +e_i (odd i).
    """
    dense = rng.standard_normal((m, m)) * (rng.random((m, m)) < 0.3)
    dense[rng.integers(m, size=m), np.arange(m)] += 3.0  # every column has an entry
    dense[(np.arange(m) + 1) % m, np.arange(m)] += 1.0  # and a second one
    singles = np.zeros((m, 5))
    singles[np.arange(5), np.arange(5)] = [2.5, -1.0, 2.5, -1.0, 1.0]
    arts = np.diag(np.where(np.arange(m) % 2, 1.0, -1.0))
    A = _Csc.from_entries(*_entries(np.hstack([dense, singles, np.eye(m), arts])))
    return A, _densify(A)


@pytest.mark.parametrize("kind", ["unit", "structural", "mixed"])
def test_unit_column_inverse_matches_full_inverse(kind):
    rng = np.random.default_rng(3)
    m = 30
    A, full = _basis_matrix(rng, m)
    slack, art = m + 5, 2 * m + 5
    if kind == "unit":  # singletons on rows 0..4, artificials on 5..9, slacks elsewhere
        basis = np.concatenate([m + np.arange(5), art + np.arange(5, 10), slack + np.arange(10, m)])
    elif kind == "structural":
        basis = rng.permutation(m)
    else:  # a singleton, artificials, slacks and 12 multi-entry columns
        basis = np.concatenate([[m + 1], art + np.arange(2, 8), slack + np.arange(8, m - 11),
                                rng.choice(m, size=12, replace=False)])
    basis = rng.permutation(basis)
    B = full[:, basis]
    if kind == "structural":
        assert (np.count_nonzero(B, axis=0) > 1).all()
    binv = A.basis_inverse(basis)
    assert np.allclose(binv, np.linalg.inv(B), rtol=1e-9, atol=1e-10)
    assert np.allclose(binv @ B, np.eye(m), atol=1e-10)
    assert np.array_equal(_inverse(A, basis), binv)


def test_unit_column_inverse_rejects_singular_bases():
    rng = np.random.default_rng(4)
    m = 30
    A, full = _basis_matrix(rng, m)
    slack, art = m + 5, 2 * m + 5
    shared = np.concatenate([[art + 3], slack + np.arange(1, m)])  # slack 3 and artificial 3
    with pytest.raises(np.linalg.LinAlgError):
        A.basis_inverse(shared)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(full[:, shared])  # the dense path agrees
    twice = np.concatenate([[0, 0], slack + np.arange(2, m)])  # one column twice
    with pytest.raises(np.linalg.LinAlgError):
        A.basis_inverse(twice)


# ---------------------------------------------------------------------------
# the peeled basis inverse: singleton levels, then a dense bump
# ---------------------------------------------------------------------------

REFERENCE_INV = np.linalg.inv  # the tests below record the solver's own calls


@pytest.fixture
def inv_shapes(monkeypatch):
    """Shapes of the matrices handed to np.linalg.inv while the test runs."""
    shapes = []
    monkeypatch.setattr(np.linalg, "inv", lambda a: shapes.append(a.shape) or REFERENCE_INV(a))
    return shapes


def _shuffled_store(B, rng):
    """The store of B with its rows and columns shuffled, and that matrix."""
    B = B[rng.permutation(len(B))][:, rng.permutation(len(B))]
    return _Csc.from_entries(*_entries(B)), B


def _peeled_inverse_agrees(A, B):
    binv = A.basis_inverse(np.arange(len(B)))
    assert np.allclose(binv, REFERENCE_INV(B), rtol=1e-9, atol=1e-10)
    assert np.allclose(binv @ B, np.eye(len(B)), atol=1e-9)


def test_peeled_inverse_of_a_chain_inverts_nothing_densely(inv_shapes):
    """Column k has its last entry on row k and others above it: k levels, no bump."""
    rng = np.random.default_rng(5)
    m = 7
    B = np.zeros((m, m))
    B[0, 0] = 2.0  # the only single-entry column
    for k in range(1, m):
        B[k, k] = rng.uniform(0.5, 2.0)
        above = rng.choice(k, size=rng.integers(1, k + 1), replace=False)
        B[above, k] = rng.uniform(-2.0, 2.0, size=above.size)
    B[(B != 0) & (np.abs(B) < 0.1)] = 0.5
    A, B = _shuffled_store(B, rng)
    assert (np.count_nonzero(B, axis=0) > 1).sum() == m - 1
    _peeled_inverse_agrees(A, B)
    assert inv_shapes == []  # under the one-level rule the 6 multi-entry columns went dense


def test_peeled_inverse_with_levels_and_a_bump(inv_shapes):
    rng = np.random.default_rng(6)
    m = 9
    B = np.zeros((m, m))
    B[:3, :3] = rng.uniform(-1.0, 1.0, size=(3, 3)) + 3 * np.eye(3)  # the bump
    B[[4, 6, 8], [0, 1, 2]] = [1.5, -2.0, 0.7]  # bump columns reach peeled rows too
    B[3, 3], B[4, 4] = 1.0, -2.0  # level 0
    B[[3, 5], 5] = [0.5, 1.25]  # level 1: row 3 is covered, row 5 is not
    B[[4, 5, 6], 6] = [1.0, -1.0, 3.0]  # level 2
    B[[6, 7], 7] = [2.0, 1.0]  # level 3
    B[[3, 7, 8], 8] = [1.0, 1.0, -0.5]  # level 4
    A, B = _shuffled_store(B, rng)
    _peeled_inverse_agrees(A, B)
    assert inv_shapes == [(3, 3)]


def test_peeled_inverse_raises_on_bases_singular_only_after_peeling(inv_shapes):
    m = 6
    # a column whose entries all land on rows that singletons cover: col 0 = col 1 + col 2
    empties = np.zeros((m, m))
    empties[[0, 1], 0] = 1.0
    empties[0, 1] = empties[1, 2] = 1.0
    empties[[3, 4, 5], [3, 4, 5]] = 1.0
    empties[2, 5] = 2.0  # row 2 is left to the bump, where column 0 has no entry
    # a bump of two proportional columns below a peeled level
    flat = np.zeros((m, m))
    flat[[0, 1, 2], 0] = [1.0, 2.0, 1.0]
    flat[[0, 1, 3], 1] = [-2.0, -4.0, 1.0]
    flat[[2, 3, 4, 5], [2, 3, 4, 5]] = 1.0
    for B in (empties, flat):
        assert (np.count_nonzero(B, axis=0) > 0).all()
        assert np.linalg.matrix_rank(B) < m
        A = _Csc.from_entries(*_entries(B))
        inv_shapes.clear()
        with pytest.raises(np.linalg.LinAlgError):
            A.basis_inverse(np.arange(m))
        assert len(inv_shapes) == 1 and inv_shapes[0][0] < m  # only the bump reached inv


def test_peeled_inverse_raises_on_two_singletons_on_one_row():
    m = 5
    first = np.eye(m)
    first[:, 1] = 0.0
    first[3, 1] = 2.0  # columns 1 and 3 are both single on row 3 at level 0
    later = np.zeros((m, m))
    later[[0, 1], [0, 1]] = 1.0  # level 0
    later[[0, 3], 2] = [1.0, 1.0]  # after level 0 columns 2 and 3 are both single on row 3
    later[[1, 3], 3] = [1.0, 2.0]
    later[[2, 4], 4] = [1.0, 1.0]
    for B in (first, later):
        assert np.linalg.matrix_rank(B) < m
        with pytest.raises(np.linalg.LinAlgError):
            _Csc.from_entries(*_entries(B)).basis_inverse(np.arange(m))


@pytest.mark.parametrize("tiny", [simplex.PIVOT_TOL, simplex.PIVOT_TOL / 10])
def test_peeled_inverse_leaves_a_tiny_singleton_to_the_bump(tiny, inv_shapes):
    rng = np.random.default_rng(7)
    m = 6
    B = np.eye(m)
    B[2, 2] = tiny
    B[[2, 5], 5] = [1.0, 3.0]  # row 2 is never covered, so column 5 stays in the bump too
    A, B = _shuffled_store(B, rng)
    binv = A.basis_inverse(np.arange(m))
    assert np.allclose(binv, REFERENCE_INV(B), rtol=1e-9, atol=1e-10)
    assert inv_shapes == [(2, 2)]


def test_cover_root_lp_inverts_only_small_bumps(inv_shapes):
    """The optimal basis of the 400-row set-cover root LP has multi-entry blocks of up to 196
    columns; its bump stays small.

    The dense store still takes np.linalg.inv of the whole basis, bit for bit.
    """
    model = generate_instance("set_cover", (800, 400), 1)
    ctx = SimplexContext(model)
    res = ctx.solve(BoundState.from_model(model))
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(752.25, abs=1e-7)
    inv_shapes.clear()
    _inverse(ctx.A, res.basis[0])
    assert inv_shapes and max(n for n, _ in inv_shapes) <= 32, inv_shapes
    small = generate_instance("gap", (24, 4), 5)
    ctx = SimplexContext(small)
    basis = ctx.solve(BoundState.from_model(small)).basis[0]
    assert isinstance(ctx.A, np.ndarray)
    assert np.array_equal(_inverse(ctx.A, basis), REFERENCE_INV(ctx.A[:, basis]))


def _solve_with_tightenings(model, rng_seed, store_rows):
    """Status and objective of a cold solve and three warm re-solves after tightenings."""
    rng = np.random.default_rng(rng_seed)
    ctx = SimplexContext(model)
    assert isinstance(ctx.A, _Csc) == (model.m >= store_rows)
    res = ctx.solve(BoundState.from_model(model), warm=False)
    out = [(res.status, res.objective)]
    lower, upper = model.lower.copy(), model.upper.copy()
    for _ in range(3):
        if res.status is not LpStatus.OPTIMAL:
            break
        lower, upper = _tighten_randomly(rng, lower, upper)
        res = ctx.solve(BoundState(lower=lower, upper=upper), basis=res.basis)
        out.append((res.status, res.objective))
    return out


def _same_results(a, b):
    assert [s for s, _ in a] == [s for s, _ in b]
    for (s, x), (_, y) in zip(a, b):
        if s is LpStatus.OPTIMAL:
            assert x == pytest.approx(y, abs=1e-6)


@pytest.mark.parametrize("refactor_every", [REFACTOR_EVERY, 1])
def test_random_lps_agree_on_both_stores(monkeypatch, refactor_every):
    monkeypatch.setattr(simplex, "REFACTOR_EVERY", refactor_every)
    rng = np.random.default_rng(12)
    models = []
    for _ in range(150):
        c, rows, senses, rhs, lower, upper = _random_lp(rng)
        models.append(_model(c, rows.tolist(), senses, rhs, lower, upper))
    dense = [_solve_with_tightenings(mo, k, ROW_UPDATE_MIN_M) for k, mo in enumerate(models)]
    monkeypatch.setattr(simplex, "ROW_UPDATE_MIN_M", 1)
    sparse = [_solve_with_tightenings(mo, k, 1) for k, mo in enumerate(models)]
    statuses = [s for run in sparse for s, _ in run]
    assert statuses.count(LpStatus.INFEASIBLE) > 10 and statuses.count(LpStatus.OPTIMAL) > 100
    for a, b in zip(dense, sparse):
        _same_results(a, b)


def test_cover_lp_agrees_on_both_stores(monkeypatch):
    model = generate_instance("set_cover", (300, 150), 0)
    sparse = _solve_with_tightenings(model, 0, ROW_UPDATE_MIN_M)
    monkeypatch.setattr(simplex, "ROW_UPDATE_MIN_M", 10**6)
    dense = _solve_with_tightenings(model, 0, 10**6)
    assert sparse[0][0] is LpStatus.OPTIMAL
    _same_results(dense, sparse)


# ---------------------------------------------------------------------------
# the dual cold start from the crash basis
# ---------------------------------------------------------------------------

def _lp_with_rows_for_bounds(rng):
    """A random LP in which some columns' bounds are stated as rows instead.

    The solver sees those columns as free or unbounded on one side, so a
    negative cost with no upper bound (or a positive one with no lower bound)
    leaves the slack basis dual infeasible.  The oracle gets the original
    finite box, which the added rows imply: both describe the same LP.
    """
    c, rows, senses, rhs, lower, upper = _random_lp(rng)
    n = len(c)
    lo, up = lower.astype(float), upper.astype(float)
    rows_in, senses_in, rhs_in = rows.tolist(), senses, rhs.tolist()
    for j in np.flatnonzero(rng.random(n) < 0.3):
        unit = [int(k == j) for k in range(n)]
        if rng.random() < 0.7:
            up[j] = INF
            rows_in, senses_in, rhs_in = rows_in + [unit], senses_in + "L", rhs_in + [upper[j]]
        if rng.random() < 0.5:
            lo[j] = -INF
            rows_in, senses_in, rhs_in = rows_in + [unit], senses_in + "G", rhs_in + [lower[j]]
    model = _model(c, rows_in, senses_in, rhs_in, lo, up)
    return model, (c, rows, senses, rhs, lower, upper)


def _slack_basis_is_primal_feasible(model):
    """Whether every row holds with each column at its lower bound, else its upper, else 0."""
    x = np.where(model.lower > -INF, model.lower, np.where(model.upper < INF, model.upper, 0.0))
    act = model.row_activity(x)
    ok = {"L": act <= model.rhs + 1e-7, "G": act >= model.rhs - 1e-7,
          "E": np.abs(act - model.rhs) <= 1e-7}
    return all(ok[s][i] for i, s in enumerate(model.senses))


def _slack_basis_is_dual_feasible(model):
    """Whether each movable column's cost points to a bound it has (slacks cost nothing)."""
    movable = model.upper > model.lower
    wrong = ((model.c < 0) & (model.upper == INF)) | ((model.c > 0) & (model.lower == -INF))
    return not np.any(movable & wrong)


def test_small_lps_keep_the_two_phase_cold_start(monkeypatch):
    """Below ROW_UPDATE_MIN_M rows a fresh context still starts with phase 1."""
    model = generate_instance("gap", (24, 4), 5)
    assert model.m < ROW_UPDATE_MIN_M
    cold_starts = []
    cold_start = SimplexContext._cold_start
    monkeypatch.setattr(SimplexContext, "_cold_start",
                        lambda self, lo, up: cold_starts.append(1) or cold_start(self, lo, up))
    res = SimplexContext(model).solve(BoundState.from_model(model))
    assert res.status is LpStatus.OPTIMAL and cold_starts == [1]
    assert res.iterations == solve_lp(model, BoundState.from_model(model)).iterations


def test_dual_cold_start_matches_oracle(monkeypatch):
    """Fresh-context solves of 300 random LPs on the column store, against exact enumeration.

    Each solve must take the path its box and slack basis call for: none when
    a row cannot reach its range over the box (the box certificate), else the
    dual loop from the crash basis when the slack basis is dual feasible (the
    crash keeps it so, and is accepted), else the two-phase primal (also
    after an uncertified Farkas row), which needs no phase 1 when the slack
    basis is primal feasible.
    """
    monkeypatch.setattr(simplex, "ROW_UPDATE_MIN_M", 1)
    dual_statuses, cold_starts, boxed, crashed = [], [], [], []
    dual_loop, cold_start = SimplexContext._dual_loop, SimplexContext._cold_start
    box_certificate = SimplexContext._box_certificate
    crash = SimplexContext._crash

    def counted_crash(self, lo, up):
        out = crash(self, lo, up)
        crashed.append(int(np.sum(out[0] < self.n)))  # rows whose slack left the basis
        return out

    def counted_box(self, bounds):
        out = box_certificate(self, bounds)
        boxed.append(out is not None)
        return out

    def counted_dual(self, *args):
        out = dual_loop(self, *args)
        dual_statuses.append(out[0])
        return out

    monkeypatch.setattr(SimplexContext, "_dual_loop", counted_dual)
    monkeypatch.setattr(SimplexContext, "_cold_start",
                        lambda self, lo, up: cold_starts.append(1) or cold_start(self, lo, up))
    monkeypatch.setattr(SimplexContext, "_box_certificate", counted_box)
    monkeypatch.setattr(SimplexContext, "_crash", counted_crash)
    rng = np.random.default_rng(31)
    crashed_lps = 0
    paths = {"certified": 0, "primal": 0, "dual": 0, "two-phase": 0}
    certified = optimal = 0
    for _ in range(300):
        model, case = _lp_with_rows_for_bounds(rng)
        dual_statuses.clear()
        cold_starts.clear()
        boxed.clear()
        crashed.clear()
        ctx = SimplexContext(model)
        assert isinstance(ctx.A, _Csc)
        res = ctx.solve(BoundState.from_model(model))
        assert len(boxed) == 1, case
        if boxed[0]:
            path, expected = "certified", ([], [])
            assert res.status is LpStatus.INFEASIBLE and res.iterations == 0, case
        elif _slack_basis_is_dual_feasible(model):
            path = "dual"
            assert len(crashed) == 1 and len(dual_statuses) == 1, case
            crashed_lps += crashed[0] > 0
            expected = (dual_statuses, [1] if dual_statuses[0] is None else [])
        elif _slack_basis_is_primal_feasible(model):
            path, expected = "primal", ([], [1])  # a cold start without artificials
        else:
            path, expected = "two-phase", ([], [1])
        assert (dual_statuses, cold_starts) == expected, (path, case)
        paths[path] += 1
        c, rows, senses, rhs, lower, upper = case
        status, best = lp_vertex_oracle(c.tolist(), rows.tolist(), senses, rhs.tolist(),
                                        lower.tolist(), upper.tolist())
        assert path != "certified" or status == "infeasible", case
        if status == "infeasible":
            assert res.status is LpStatus.INFEASIBLE and res.phase1_residual > 0, case
            certified += dual_statuses == [LpStatus.INFEASIBLE]
        else:
            optimal += 1
            assert res.status is LpStatus.OPTIMAL, case
            assert abs(res.objective - float(best)) <= 1e-6, (res.objective, best, case)
    assert paths["dual"] > 50 and paths["two-phase"] > 50 and paths["primal"] > 5, paths
    assert paths["certified"] > 20, paths
    assert certified > 20 and optimal > 50, (certified, optimal)
    assert crashed_lps > 50, crashed_lps


def _crash_of(model):
    """A fresh context on ``model`` and the crash basis of its own box."""
    ctx = SimplexContext(model)
    lo = np.concatenate([model.lower, ctx.slack_lo])
    up = np.concatenate([model.upper, ctx.slack_up])
    return ctx, ctx._crash(lo, up)


@pytest.mark.parametrize("family, shape, seed", [
    ("set_cover", (800, 400), 1), ("set_cover", (800, 400), 2), ("gap", (1500, 10), 1)])
def test_crash_basis_peels_with_an_empty_bump(monkeypatch, family, shape, seed):
    """No crash step enters a column on a row an earlier one touched, so the basis is
    triangular: the peel covers every row and no dense inverse runs."""
    model = presolve(generate_instance(family, shape, seed))
    ctx, (basis, vstat) = _crash_of(model)
    assert isinstance(ctx.A, _Csc) and np.sum(basis < model.n) > 10
    assert np.all(vstat[basis] == BASIC) and np.sum(vstat == BASIC) == model.m

    def no_bump(M):
        raise AssertionError(f"a bump of {len(M)} columns")

    monkeypatch.setattr(np.linalg, "inv", no_bump)
    binv = ctx.A.basis_inverse(basis)
    B = ctx.A[:, basis]
    dense = np.zeros((model.m, model.m))
    dense[B.rows, B.col] = B.vals
    assert np.abs(binv @ dense - np.eye(model.m)).max() <= 1e-12


@pytest.mark.parametrize("seed, objective", [(1, 752.25), (2, 728.0)])
def test_cover_root_from_the_crash_needs_no_refresh(monkeypatch, seed, objective):
    """The presolved 400-row cover roots (225 and 258 rows) take 202-233 dual pivots from
    the slack basis; from the crash they end before the first refresh, on one inverse."""
    model = presolve(generate_instance("set_cover", (800, 400), seed))
    calls = _inverse_calls(monkeypatch)
    ctx = SimplexContext(model)
    res = ctx.solve(BoundState.from_model(model))
    assert res.status is LpStatus.OPTIMAL and res.iterations < REFACTOR_EVERY
    assert res.objective == pytest.approx(objective, abs=1e-7)
    assert calls == [("_try_warm_start", None)]  # the crash basis's
    slack = ctx.solve(BoundState.from_model(model), basis=_slack_basis(model))
    assert slack.iterations > 3 * REFACTOR_EVERY
    assert slack.objective == pytest.approx(objective, abs=1e-7)


@pytest.mark.parametrize("family, shape, seed", [
    ("set_cover", (300, 150), 0), ("gap", (1500, 10), 1)])
def test_crash_start_passes_the_shadow_check(family, shape, seed):
    """Roots from the crash, and children re-solved from their bases, against the two-phase
    primal: E and L rows (gap) and G rows (set cover)."""
    model = generate_instance(family, shape, seed)
    ctx = SimplexContext(model, shadow_check=True)  # asserts warm == cold inside
    assert np.sum(_crash_of(model)[1][0] < model.n) > 10
    bounds = BoundState.from_model(model)
    res = ctx.solve(bounds)
    assert res.status is LpStatus.OPTIMAL
    pivots = 0
    for j in np.flatnonzero(res.x > 0.5)[:3]:
        pivots += ctx.solve(bounds.fixed(int(j), 0.0), basis=res.basis).iterations
    assert pivots > 0
