import dataclasses
import math
import sys
import time

import numpy as np
import pytest

from banditmip.bnb import (
    InvalidSearch,
    InvalidSettings,
    Node,
    NoFractionalVariable,
    SolveStatus,
    SolverSettings,
    TreeSearch,
    select_branch_variable,
    solve,
)
from banditmip import bnb as bnb_mod, heuristics, model as model_mod
from banditmip.heuristics import LNS_KINDS, NotApplicable
from banditmip.model import Assignment, generate_instance, load_instance, presolve
from banditmip.scheduler import compute_skip_count
from banditmip.simplex import FEAS_TOL, BoundState, LpResult, LpStatus, SimplexContext

from oracles import brute_force_binary, model_from_dense, with_rows


def _model(c, rows, senses, rhs, lower=None, upper=None, integers=None):
    n = len(c)
    return model_from_dense(
        rows,
        name="t",
        c=np.array(c, dtype=float),
        senses=list(senses),
        rhs=np.array(rhs, dtype=float),
        lower=np.zeros(n) if lower is None else np.array(lower, dtype=float),
        upper=np.ones(n) if upper is None else np.array(upper, dtype=float),
        integers=np.arange(n) if integers is None else np.array(integers),
    )


# ---------------------------------------------------------------------------
# settings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(mode="bogus"),
    dict(bandit_mode="bogus"),
    dict(epsilon=-1.0),
    dict(f_min=0.9, f_max=0.3),
    dict(q_min=0.3, q_max=0.05),
    dict(q_init=0.0),
    dict(lns_node_budget=0),
    dict(dive_max_depth=0),
    dict(default_freq=0),
    dict(f_init=-1.0),
    dict(f_init=float("nan")),
    dict(eta=float("nan")),
    dict(beta=float("nan")),
    dict(int_tol=float("nan")),
    dict(time_limit_s=float("nan")),
    dict(time_limit_s=float("inf")),
    dict(gamma=float("-inf")),
    dict(int_tol=0.6),
    dict(int_tol=0.5),
    dict(int_tol=-1.0),
    dict(feas_tol=-1.0),
    dict(q_min=0.0, eta=1.0),
    dict(q_min=0.0, eta=1.5),
    dict(q_min=-0.1),
    dict(lambda_sol=-0.1),
    dict(lambda_gap=-0.1),
    dict(lambda_eff=-5.0),
    dict(lambda_conf=-0.1),
    dict(recency_alpha=2.0),
    dict(recency_alpha=-0.1),
    dict(node_limit=2.5),
    dict(node_limit=-1),
    dict(node_limit=True),
    dict(lns_node_budget=True),
    dict(lns_node_budget=50.0),
    dict(dive_max_depth=10.5),
    dict(default_freq=False),
    dict(default_offset=0.5),
    dict(plunge_depth=2.0),
    dict(lp_iter_limit=0),
    dict(lp_iter_limit=-3),
    dict(lp_iter_limit=100.5),
    dict(seed=1.5),
    dict(seed=True),
    dict(time_limit_s=-5.0),
    dict(time_limit_s=True),
    dict(epsilon=True),
    dict(f_init=False),
    dict(beta=-1.0),
    dict(gamma=-0.5),
    dict(gamma=1.5),
    dict(eta=1.5),
    dict(eta=-0.1),
    # a float field holding anything but a real number, checked before any range check
    dict(beta="0.1"),
    dict(time_limit_s="5"),
    dict(epsilon=None),
    dict(int_tol=None),
    dict(f_min=None),
    dict(lambda_sol="x"),
    dict(recency_alpha=None),
    dict(beta=np.bool_(True)),
    dict(lambda_gap=np.float32("nan")),
    dict(shadow_lp_check="yes"),
    dict(shadow_lp_check=1),
    dict(shadow_lp_check=None),
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_settings_reject_unusable_values(bad):
    with pytest.raises(InvalidSettings, match=next(iter(bad))):
        SolverSettings(**bad)


def test_settings_accept_the_default_and_edge_int_tol():
    assert SolverSettings().int_tol == 1e-6
    assert SolverSettings(int_tol=0.0).int_tol == 0.0
    assert SolverSettings(feas_tol=0.0).feas_tol == 0.0
    assert SolverSettings(int_tol=0.49).int_tol == 0.49
    assert SolverSettings(recency_alpha=1.0, lambda_eff=0.0).recency_alpha == 1.0
    assert SolverSettings(time_limit_s=0.0).time_limit_s == 0.0
    assert SolverSettings(time_limit_s=None).time_limit_s is None
    # epsilon_t = epsilon * sqrt(|H| / t) is a scale, not a probability
    assert SolverSettings(epsilon=1.5).epsilon == 1.5
    assert SolverSettings(beta=0.0, gamma=1.0, eta=0.0).gamma == 1.0
    # ints and numpy reals in float fields, numpy bools in the bool field
    assert SolverSettings(beta=1, time_limit_s=5).time_limit_s == 5
    assert SolverSettings(f_init=np.float32(0.5), epsilon=np.int64(1)).f_init == 0.5
    assert SolverSettings(shadow_lp_check=np.bool_(True)).shadow_lp_check


def test_settings_accept_numpy_integers_and_a_zero_node_limit():
    settings = SolverSettings(node_limit=np.int64(5), seed=np.int32(3), lp_iter_limit=np.int64(1),
                              lns_node_budget=np.uint8(7))
    assert (settings.node_limit, settings.seed, settings.lp_iter_limit) == (5, 3, 1)
    assert SolverSettings(node_limit=0).node_limit == 0
    assert SolverSettings(node_limit=None).node_limit is None


def test_settings_are_frozen_so_every_change_is_checked():
    settings = SolverSettings(seed=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        settings.int_tol = 0.6  # unchecked, this made a feasible gap model solve INFEASIBLE
    with pytest.raises(InvalidSettings, match="int_tol"):
        dataclasses.replace(settings, int_tol=0.6)
    assert dataclasses.replace(settings, int_tol=0.1).int_tol == 0.1


# ---------------------------------------------------------------------------
# search keywords, checked where TreeSearch takes them
# ---------------------------------------------------------------------------

def test_an_unknown_heur_layer_is_rejected():
    # "rounding" once ran the static portfolio here: 16 heuristic calls, no scheduler log
    model = load_instance("gen:gap:n=24,m=4,seed=5")
    with pytest.raises(InvalidSearch, match="heur_layer must be 'auto' or 'rounding_only'"):
        solve(model, SolverSettings(seed=1, node_limit=30), heur_layer="rounding")
    with pytest.raises(InvalidSearch, match="heur_layer"):
        TreeSearch(model, SolverSettings(), heur_layer="rounding")


def test_root_bounds_of_another_length_are_rejected():
    model = _model([1, 1, 1], [[1, 1, 1]], "L", [2])
    short = BoundState(np.zeros(2), np.ones(2))
    with pytest.raises(InvalidSearch, match=r"root_bounds must hold 3 values a side"):
        solve(model, SolverSettings(), root_bounds=short)
    with pytest.raises(InvalidSearch, match="root_bounds"):
        TreeSearch(model, SolverSettings(), root_bounds=BoundState(np.zeros(3), np.ones(4)))


@pytest.mark.parametrize("cutoff", [float("nan"), -math.inf])
def test_a_cutoff_that_is_nan_or_minus_infinity_is_rejected(cutoff):
    # NaN was silently ignored, as min(inf, nan) is inf; on an integral objective -inf
    # raised OverflowError from math.ceil in beats_cutoff
    model = _model([1, 1], [[1, 1]], "G", [1])
    assert model.integral_objective
    with pytest.raises(InvalidSearch, match="cutoff must be a number above -inf"):
        solve(model, SolverSettings(), root_bounds=BoundState.from_model(model), cutoff=cutoff)
    with pytest.raises(InvalidSearch, match="cutoff"):
        TreeSearch(model, SolverSettings(), cutoff=cutoff)
    assert solve(model, SolverSettings(), cutoff=math.inf).objective == 1.0


def test_a_context_of_another_model_is_rejected():
    # min x s.t. 2x >= 3, x + y <= 25: presolve makes the first row a bound and drops the second
    model = _model([1, 0], [[2, 0], [1, 1]], "GL", [3, 25], upper=[10, 10])
    assert presolve(model, SolverSettings().feas_tol) is not model
    with pytest.raises(InvalidSearch, match="ctx must be an LP context of the model searched"):
        solve(model, SolverSettings(), ctx=SimplexContext(model))  # meets the presolved copy
    with pytest.raises(InvalidSearch, match="ctx"):
        TreeSearch(model, SolverSettings(), ctx=SimplexContext(_model([1], [[1]], "L", [1])))
    ctx = SimplexContext(model)
    res = solve(model, SolverSettings(), root_bounds=BoundState.from_model(model), ctx=ctx)
    assert res.objective == 2.0 and ctx.inversions == res.stats.lp_inversions > 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["default", "scheduler"])
def test_knapsack_matches_enumeration(mode):
    model = load_instance("gen:knapsack:n=10,m=1,seed=7")
    best, _ = brute_force_binary(model)
    res = solve(model, SolverSettings(mode=mode, seed=1))
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(best, abs=1e-9)


def test_root_integral_lp_solves_in_one_node():
    model = _model([-1, -1], [[1, 1]], "L", [2])
    res = solve(model, SolverSettings())
    assert res.status is SolveStatus.OPTIMAL
    assert res.nodes_processed == 1
    assert res.objective == pytest.approx(-2.0)


def test_infeasible_instance():
    model = _model([1], [[1]], "G", [2])  # x <= 1 but row wants x >= 2
    res = solve(model, SolverSettings())
    assert res.status is SolveStatus.INFEASIBLE
    assert res.incumbent is None
    assert res.dual_bound == math.inf


def test_pure_lp_model_solves_at_root():
    model = _model([1.0, -2.0], [[1, 1]], "L", [3], upper=[5, 5],
                   integers=np.array([], dtype=np.int64))
    res = solve(model, SolverSettings())
    assert res.status is SolveStatus.OPTIMAL
    assert res.nodes_processed == 1
    assert res.objective == pytest.approx(-6.0)  # x = (0, 3)


def test_optimal_gap_closed():
    model = generate_instance("gap", (16, 4), 2)
    res = solve(model, SolverSettings(seed=5))
    assert res.status is SolveStatus.OPTIMAL
    assert abs(res.objective - res.dual_bound) <= 1e-6 * max(1, abs(res.objective))


def test_full_solves_under_lp_shadow_checking():
    # every warm LP solve inside the tree and the dives is asserted against a
    # cold solve; any disagreement raises inside the context
    for fam, size, seed in [("gap", (24, 4), 1), ("set_cover", (18, 9), 2),
                            ("knapsack", (14, 3), 3), ("gap", (16, 4), 7)]:
        model = generate_instance(fam, size, seed)
        for mode in ("default", "scheduler"):
            res = solve(model, SolverSettings(mode=mode, seed=seed,
                                              shadow_lp_check=True))
            assert res.status is SolveStatus.OPTIMAL


def test_each_node_lp_starts_from_its_parents_basis(monkeypatch):
    from banditmip.simplex import SimplexContext

    # per tree: (basis handed in, basis returned) of each node LP.  A sub-MIP tree solves
    # on its caller's context, so the tree whose run is innermost is the key; the tree
    # itself, which keeps it alive: a freed sub-MIP tree's id() can be reused by a later
    # one and would merge two trees' calls.
    calls = {}
    solve_lp = SimplexContext.solve
    run_diving = heuristics.run_diving
    run_tree = TreeSearch.run
    diving = []  # nonempty while a dive runs: its LPs are not node LPs
    running = []  # the trees whose run is under way, innermost last

    def recording(self, bounds, *args, **kwargs):
        res = solve_lp(self, bounds, *args, **kwargs)
        if not diving:
            calls.setdefault(running[-1], []).append((kwargs["basis"], res.basis))
        return res

    def run(tree):
        running.append(tree)
        try:
            return run_tree(tree)
        finally:
            running.pop()

    def dive(*args, **kwargs):
        diving.append(True)
        try:
            return run_diving(*args, **kwargs)
        finally:
            diving.pop()

    monkeypatch.setattr(SimplexContext, "solve", recording)
    monkeypatch.setattr(heuristics, "run_diving", dive)
    monkeypatch.setattr(TreeSearch, "run", run)
    res = solve(generate_instance("gap", (24, 4), 5), SolverSettings(mode="default", seed=1))
    assert res.status is SolveStatus.OPTIMAL
    assert sum(map(len, calls.values())) > res.nodes_processed > 20  # sub-MIP trees too
    for tree in calls.values():
        assert tree[0][0] is None  # each root starts cold
        for k, (given, _) in enumerate(tree[1:], start=1):
            assert any(given is out for _, out in tree[:k])


def test_bound_sandwich_at_every_node_limit():
    model = generate_instance("gap", (24, 4), 8)
    full = solve(model, SolverSettings(seed=2))
    assert full.status is SolveStatus.OPTIMAL
    for limit in range(1, full.nodes_processed + 2):
        res = solve(model, SolverSettings(seed=2, node_limit=limit))
        assert res.dual_bound <= full.objective + 1e-6
        if res.incumbent is not None:
            assert res.dual_bound <= res.objective + 1e-6


def test_node_limit_status_and_bound_sandwich():
    model = generate_instance("gap", (30, 5), 4)
    res = solve(model, SolverSettings(seed=1, node_limit=5))
    assert res.nodes_processed <= 5
    if res.status is SolveStatus.NODE_LIMIT and res.incumbent is not None:
        assert res.dual_bound <= res.objective + 1e-6
    full = solve(model, SolverSettings(seed=1))
    assert full.status is SolveStatus.OPTIMAL
    assert res.dual_bound <= full.objective + 1e-6


def test_time_limit_status():
    model = generate_instance("gap", (30, 5), 4)
    res = solve(model, SolverSettings(seed=1, time_limit_s=0.0))
    assert res.status is SolveStatus.TIME_LIMIT


@pytest.mark.parametrize("mode", ["scheduler", "default"])
def test_time_limit_overshoot_is_small(mode):
    """A solve that cannot finish stops within half a second of its limit.

    The pivot loops read the deadline before their first pivot and every 64
    pivots: milliseconds at this size."""
    model = generate_instance("gap", (600, 20), 1)
    t0 = time.perf_counter()
    res = solve(model, SolverSettings(mode=mode, seed=1, time_limit_s=1.0))
    elapsed = time.perf_counter() - t0
    assert res.status is SolveStatus.TIME_LIMIT
    assert elapsed <= 1.5


def test_time_limit_stops_a_running_root_lp():
    """The root LP of this solve takes about 4,000 dual pivots (over 2 s) when the deadline
    is not read inside it."""
    model = load_instance("gen:knapsack:n=400,m=200,seed=1")
    t0 = time.perf_counter()
    res = solve(model, SolverSettings(seed=1, time_limit_s=0.01))
    elapsed = time.perf_counter() - t0
    assert res.status is SolveStatus.TIME_LIMIT and res.incumbent is None
    assert res.nodes_processed <= 1 and res.dual_bound == -math.inf  # the root stays open
    assert elapsed <= 0.4


def test_time_limit_overshoot_of_the_crash_start_is_small():
    """The crash basis and its inversion run before the root LP's first clock read, which
    comes before the first dual pivot; on this 1,928-row root they take a few hundredths of
    a second."""
    model = load_instance("gen:set_cover:n=6400,m=3200,seed=1")
    t0 = time.perf_counter()
    res = solve(model, SolverSettings(seed=1, time_limit_s=0.01))
    elapsed = time.perf_counter() - t0
    assert res.status is SolveStatus.TIME_LIMIT
    assert elapsed <= 0.4


def test_lp_iteration_exhaustion_never_claims_optimality():
    model = generate_instance("set_cover", (24, 12), 3)
    res = solve(model, SolverSettings(seed=1, lp_iter_limit=1))
    assert res.status is SolveStatus.ITER_LIMIT
    assert res.incumbent is None


@pytest.mark.parametrize("uri, mode, nodes, raw, reported", [
    ("gen:gap:n=300,m=10,seed=1", "scheduler", 100, 56.979, 57.0),
    ("gen:set_cover:n=800,m=400,seed=1", "default", 1, 752.25, 753.0),
])
def test_an_integral_objective_reports_its_open_bound_rounded_up(uri, mode, nodes, raw,
                                                                 reported):
    """Every point of such a model is worth an integer, so no point is worth less than the
    least open LP bound rounded up."""
    model = load_instance(uri)
    assert model.integral_objective
    settings = SolverSettings(mode=mode, seed=1, node_limit=nodes, time_limit_s=None)
    tree = TreeSearch(presolve(model, settings.feas_tol), settings)
    res = tree.run()
    assert res.status is SolveStatus.NODE_LIMIT
    assert tree._open_bound() == pytest.approx(raw, abs=1e-3)
    assert res.dual_bound == reported < res.objective


def test_a_fractional_objective_reports_the_exact_open_bound():
    model = load_instance("gen:gap:n=60,m=4,seed=1")
    model = dataclasses.replace(model, c=model.c + 0.25)
    assert not model.integral_objective
    settings = SolverSettings(seed=1, node_limit=10, time_limit_s=None)
    tree = TreeSearch(presolve(model, settings.feas_tol), settings)
    res = tree.run()
    assert res.status is SolveStatus.NODE_LIMIT
    assert res.dual_bound == tree._open_bound() < res.objective
    assert res.dual_bound != math.ceil(res.dual_bound)


NON_DEFAULT_HEURISTIC_SETTINGS = dict(
    f_init=0.6, q_init=0.2, lambda_sol=0.4, lambda_gap=0.25, lambda_eff=0.1,
    lambda_conf=0.25, epsilon=0.5, beta=0.2, lns_node_budget=50, dive_max_depth=40,
)


def test_heuristic_settings_reach_both_modes():
    model = generate_instance("gap", (24, 4), 5)
    cfg = NON_DEFAULT_HEURISTIC_SETTINGS
    for key, value in cfg.items():
        assert getattr(SolverSettings(), key) != value

    res = solve(model, SolverSettings(mode="default", seed=1, node_limit=60, **cfg))
    assert sum(arm.pulls for arm in res.stats.per_heuristic.values()) > 0
    for h, arm in res.stats.per_heuristic.items():
        assert arm.limit.value == (cfg["f_init"] if h in LNS_KINDS else cfg["q_init"])

    tree = TreeSearch(model, SolverSettings(mode="scheduler", seed=1, node_limit=60, **cfg))
    res = tree.run()
    first = res.scheduler_log[0]
    assert first["h"] in LNS_KINDS
    assert first["n_max"] == cfg["lns_node_budget"]
    assert first["limit_before"] == cfg["f_init"]
    dive = next(rec for rec in res.scheduler_log if rec["klass"] == "diving")
    assert dive["n_max"] == cfg["dive_max_depth"]
    assert dive["limit_before"] == cfg["q_init"]
    sched = tree.policy
    assert sched.settings.epsilon == cfg["epsilon"]
    for rec in res.scheduler_log:  # each reward weighs its parts by the given lambdas
        assert rec["r_total"] == (cfg["lambda_sol"] * rec["r_sol"]
                                  + cfg["lambda_gap"] * rec["r_gap"]
                                  + cfg["lambda_eff"] * rec["r_eff"]
                                  + cfg["lambda_conf"] * rec["r_conf"])
    failed = [rec for rec in res.scheduler_log
              if not rec["warmstart"] and not rec["found_incumbent"]]
    assert any(compute_skip_count(rec["n_fail"], cfg["beta"])
               != compute_skip_count(rec["n_fail"], SolverSettings().beta) for rec in failed)
    for rec in failed:  # each failure opens the skip window the given beta sets
        assert rec["skip_remaining"] == compute_skip_count(rec["n_fail"], cfg["beta"])
    assert res.stats.per_heuristic is sched.arms  # the reported limits are the scheduler's
    for h, arm in sched.arms.items():
        assert arm.limit.budget == (cfg["lns_node_budget"] if h in LNS_KINDS
                                    else cfg["dive_max_depth"])


@pytest.mark.parametrize("seed", [1, 2])
def test_scheduler_log_charges_the_budget_each_call_ran_under(seed):
    """Every call's efficiency term divides by the budget of its own limit, which it never
    exceeds; the small budgets make the limit bind."""
    settings = SolverSettings(mode="scheduler", seed=seed, node_limit=80, time_limit_s=None,
                              lns_node_budget=6, dive_max_depth=3)
    res = solve(generate_instance("gap", (24, 4), 5), settings)
    log = res.scheduler_log
    assert {rec["klass"] for rec in log} == {"lns", "diving"}
    for rec in log:
        budget = settings.lns_node_budget if rec["h"] in LNS_KINDS else settings.dive_max_depth
        assert rec["n_max"] == budget
        assert rec["nodes_used"] <= rec["n_max"]
        assert rec["r_eff"] == min(max(1.0 - rec["nodes_used"] / budget, 0.0), 1.0)
    assert any(rec["nodes_used"] == rec["n_max"] for rec in log)


def test_monotone_incumbents():
    for seed in (1, 2, 3):
        model = generate_instance("set_cover", (24, 12), seed)
        res = solve(model, SolverSettings(seed=seed))
        objs = [o for _, o in res.incumbent_log]
        assert all(b < a - 1e-9 for a, b in zip(objs, objs[1:]))


def test_solve_deterministic_replay():
    model = generate_instance("gap", (24, 4), 8)

    def counted(self, bounds):
        out = box_certificate(self, bounds)
        certified.append(out is not None)
        return out

    def run():
        res = solve(model, SolverSettings(mode="scheduler", seed=2))
        log = [{k: v for k, v in rec.items() if k != "wall_time_s"}
               for rec in res.scheduler_log]
        return (res.status, res.objective, res.nodes_processed,
                res.incumbent_log, log)

    assert run() == run()


@pytest.mark.parametrize("mode", ["default", "scheduler"])
def test_mini_optimality_oracle(mode):
    specs = [("knapsack", 10, 2), ("set_cover", 12, 7), ("gap", 12, 3),
             ("knapsack", 13, 1)]
    for fam, n, m in specs:
        for seed in (0, 1, 2):
            model = generate_instance(fam, (n, m), seed)
            best, _ = brute_force_binary(model)
            res = solve(model, SolverSettings(mode=mode, seed=seed))
            assert best is not None
            assert res.status is SolveStatus.OPTIMAL
            assert res.objective == pytest.approx(best, abs=1e-9), (fam, n, m, seed)


# ---------------------------------------------------------------------------
# branching
# ---------------------------------------------------------------------------

def _lp_with(x):
    return LpResult(LpStatus.OPTIMAL, np.array(x, dtype=float), 0.0, 0)


INT_TOL = SolverSettings().int_tol


def test_branch_picks_most_fractional():
    model = _model([0, 0], [], "", [])
    assert select_branch_variable(_lp_with([0.5, 0.1]), model, INT_TOL) == 0
    assert select_branch_variable(_lp_with([0.1, 0.5]), model, INT_TOL) == 1


def test_branch_tie_breaks_lowest_index():
    model = _model([0, 0], [], "", [])
    assert select_branch_variable(_lp_with([0.3, 0.7]), model, INT_TOL) == 0


def _branch_loop(x, model, int_tol):
    """The per-variable most-fractional rule, as the reference for the vectorized one."""
    best_j, best_frac = -1, -math.inf
    for j in model.integers:
        frac = min(x[j] - math.floor(x[j]), math.ceil(x[j]) - x[j])
        if frac > int_tol and frac > best_frac + 1e-9:
            best_j, best_frac = int(j), frac
    return best_j


def test_vectorized_branching_matches_loop():
    rng = np.random.default_rng(4)
    n = 60
    model = _model([0] * n, [], "", [])
    for _ in range(300):
        model.integers = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        base = rng.integers(-3, 4, size=n).astype(float)
        pool = ([0.0, 0.3, 0.7, 0.5, 0.5 + 5e-10, 0.5 - 5e-10, 2e-6, rng.random()]
                if rng.random() < 0.5 else [0.0, 1e-6, 1e-6 + 5e-10, 1e-6 + 5e-8])
        x = base + rng.choice(pool, size=n)
        expected = _branch_loop(x, model, INT_TOL)
        if expected < 0:
            with pytest.raises(NoFractionalVariable):
                select_branch_variable(_lp_with(x), model, INT_TOL)
        else:
            assert select_branch_variable(_lp_with(x), model, INT_TOL) == expected


def test_branch_raises_on_integral():
    model = _model([0, 0], [], "", [])
    with pytest.raises(NoFractionalVariable):
        select_branch_variable(_lp_with([1.0, 0.0]), model, INT_TOL)


@pytest.mark.parametrize("rhs", [1.0000005e-6, 1 - 1.0000005e-6])
def test_fractionality_just_past_int_tol_is_branched_on(rhs):
    # x0 sits int_tol + 5e-13 off an integer: too far to snap, so it must be a
    # branching candidate; a stricter branching threshold raised NoFractionalVariable
    model = _model([-1, 0], [[1, 1]], "L", [rhs])
    res = solve(model, SolverSettings())
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == 0.0


def test_rounded_lp_point_that_breaks_a_row_is_branched_on():
    # the root LP puts x0 at 1 - 5e-7, integral within int_tol, but x0 = 1 breaks
    # the row: a rejected rounding proves nothing, so the node is branched on; x1
    # keeps the row from being a singleton, which presolve would make a bound
    model = _model([-1, 0], [[2e6, 1]], "L", [2e6 - 1])
    res = solve(model, SolverSettings())
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == 0.0 and res.dual_bound == 0.0
    assert res.nodes_processed == 3


def test_lp_point_that_breaks_a_row_itself_proves_no_infeasibility(monkeypatch):
    # rounding moves nothing at an integral root LP; if that point is rejected anyway
    # the node is dropped, and the result says its INFEASIBLE is no proof
    model = _model([-1, -1], [[1, 1]], "L", [1])
    real = bnb_mod.evaluate_solution
    monkeypatch.setattr(bnb_mod, "evaluate_solution",
                        lambda *a, **k: dataclasses.replace(real(*a, **k), feasible=False))
    res = solve(model, SolverSettings())
    assert res.status is SolveStatus.INFEASIBLE and res.nodes_processed == 1
    assert res.cutoff_pruned


def test_one_integrality_rule_for_snapping_and_branching():
    rng = np.random.default_rng(17)
    tol = INT_TOL
    k = rng.integers(-5, 6, size=4000).astype(float)
    v = np.concatenate([
        rng.uniform(-6, 6, size=4000),  # negatives included
        k + 0.5,  # exact ties
        k + rng.choice([1.0, -1.0], size=4000) * (tol + rng.choice([-5e-10, 5e-10], size=4000)),
        k + rng.choice([0.0, tol, -tol], size=4000),
    ])
    frac, near = model_mod.fractionality(v), model_mod.round_half_down(v)
    assert frac.tobytes() == np.abs(v - near).tobytes()
    assert np.all(near[k.size:2 * k.size] == k)  # a tie rounds down
    assert [float(model_mod.fractionality(float(x))) for x in v[:50]] == list(frac[:50])
    model = _model([0] * 6, [], "", [])
    for _ in range(2000):
        x = rng.choice(v, size=6)
        snapped = model_mod.snap_integral(model, x, tol)
        try:
            select_branch_variable(_lp_with(x), model, tol)
            branched = True
        except NoFractionalVariable:
            branched = False
        assert (snapped is None) == branched


# ---------------------------------------------------------------------------
# incumbents
# ---------------------------------------------------------------------------

def test_update_incumbent_accept_reject_cycle():
    model = _model([5, 4], [], "", [])
    tree = TreeSearch(model, SolverSettings())
    assert tree.update_incumbent(np.array([1.0, 0.0]))
    assert isinstance(tree.incumbent, Assignment)
    assert not tree.update_incumbent(np.array([1.0, 0.0]))  # equal objective is not accepted
    assert tree.update_incumbent(np.array([0.0, 1.0]))
    assert tree.effective_cutoff() == pytest.approx(4.0)


def test_update_incumbent_rejects_infeasible():
    model = _model([1, 1], [[1, 1]], "L", [1])
    tree = TreeSearch(model, SolverSettings())
    assert not tree.update_incumbent(np.array([1.0, 1.0]))
    assert not tree.update_incumbent(np.array([0.5, 0.0]))
    assert tree.incumbent is None


# ---------------------------------------------------------------------------
# conflicts and no-good cuts
# ---------------------------------------------------------------------------

def _fixings(model, **values):
    """The model's bounds with ``x<j>=v`` keywords fixed."""
    bounds = BoundState.from_model(model)
    for name, v in values.items():
        bounds = bounds.fixed(int(name[1:]), v)
    return bounds


def test_record_conflict_stores_binary_nogood():
    model = _model([-1, -1], [[3, 3]], "L", [5])
    best, _ = brute_force_binary(model)
    # enumeration confirms the fixing {x0=1, x1=1} is infeasible
    assert best == pytest.approx(-1.0)
    tree = TreeSearch(model, SolverSettings())
    rows = tree.ctx.m
    tree.record_conflict(_fixings(model, x0=1.0, x1=0.0))
    cols, vals, sense, rhs = tree.ctx.cut_rows[0]
    # cut (1 - x0) + x1 >= 1
    assert list(cols) == [0, 1]
    assert list(vals) == [-1.0, 1.0]
    assert sense == "G" and rhs == 0.0
    assert tree.ctx.m == rows + 1  # every later LP of the tree holds the cut


def test_record_conflict_general_integer_counts_only():
    model = _model([1, 1], [[1, 1]], "L", [3], upper=[2, 1])
    tree = TreeSearch(model, SolverSettings())
    tree.record_conflict(_fixings(model, x0=2.0))
    assert not tree.ctx.cut_rows


def test_record_conflict_root_bounds_are_noop():
    model = _model([1], [], "", [])
    tree = TreeSearch(model, SolverSettings())
    tree.record_conflict(BoundState.from_model(model))
    assert not tree.ctx.cut_rows


def test_record_conflict_tightened_integer_is_no_assignment():
    # x0 = 1 with the general integer x1 in [0, 2] of [0, 3]: not a partial assignment
    model = _model([1, 1], [[1, 1]], "L", [3], upper=[1, 3])
    tree = TreeSearch(model, SolverSettings())
    rows = tree.ctx.m
    tree.record_conflict(_fixings(model, x0=1.0).tightened(1, hi=2))
    assert not tree.ctx.cut_rows and tree.ctx.m == rows


def test_record_conflict_leaves_the_free_variable_out():
    model = _model([1, 1, 1], [[1, 1, 1]], "L", [2], upper=[1, 1, 3])
    tree = TreeSearch(model, SolverSettings())
    tree.record_conflict(_fixings(model, x0=1.0, x1=0.0), free=1)
    tree.record_conflict(_fixings(model, x1=1.0).tightened(2, hi=1), free=2)
    assert [(list(c), list(v), s, r) for c, v, s, r in tree.ctx.cut_rows] == [
        ([0], [-1.0], "G", 0.0),  # 1 - x0 >= 1: x1's fixing is not part of the cut
        ([1], [-1.0], "G", 0.0),  # x2 is general and only tightened, but it is free
    ]


def test_nogood_cut_preserves_optimum():
    model = _model([-1, -1], [[3, 3]], "L", [5])
    plain = solve(model, SolverSettings())
    tree = TreeSearch(model, SolverSettings())
    tree.record_conflict(_fixings(model, x0=1.0, x1=1.0))
    cut = solve(with_rows(model, tree.ctx.cut_rows), SolverSettings())
    assert cut.objective == pytest.approx(plain.objective)


def test_accumulated_cuts_never_cut_off_optimum():
    checked = 0
    for fam, size, seed in [("gap", (16, 4), 1), ("set_cover", (14, 8), 3),
                            ("gap", (12, 3), 6)]:
        model = generate_instance(fam, size, seed)
        res = solve(model, SolverSettings(mode="scheduler", seed=seed))
        assert res.status is SolveStatus.OPTIMAL
        cuts = res.conflict_pool.nogood_cuts
        if not cuts:
            continue
        checked += 1
        again = solve(with_rows(model, cuts), SolverSettings(mode="default", seed=seed))
        assert again.status is SolveStatus.OPTIMAL
        assert again.objective == pytest.approx(res.objective, abs=1e-9)
    assert checked >= 1  # at least one run actually produced cuts


# ---------------------------------------------------------------------------
# integral objective: the cutoff margin and reduced-cost fixing
# ---------------------------------------------------------------------------

INTEGRAL_SPECS = [("gap", (14, 3)), ("set_cover", (14, 7)), ("knapsack", (14, 2))]


@pytest.mark.parametrize("mode", ["default", "scheduler"])
def test_integral_objective_pruning_matches_enumeration(mode):
    """Pruning at ceil(cutoff) - 1 and fixing by reduced cost keep every brute-force optimum."""
    fixings = 0
    for fam, size in INTEGRAL_SPECS:
        for seed in range(10):
            model = generate_instance(fam, size, seed)
            assert model.integral_objective
            best, _ = brute_force_binary(model)
            res = solve(model, SolverSettings(mode=mode, seed=seed))
            assert res.status is SolveStatus.OPTIMAL
            assert res.objective == pytest.approx(best, abs=1e-9), (fam, size, seed)
            fixings += res.stats.reduced_cost_fixings
    assert fixings > 0  # the fixing step ran, not only the cutoff margin


@pytest.mark.parametrize("mode", ["default", "scheduler"])
def test_half_integer_costs_keep_the_plain_cutoff(mode):
    """Halved costs are not all integers: the property is false and every optimum stands."""
    for fam, size in INTEGRAL_SPECS:
        for seed in (0, 1, 2):
            base = generate_instance(fam, size, seed)
            model = dataclasses.replace(base, c=base.c / 2)
            assert not model.integral_objective
            best, _ = brute_force_binary(model)
            res = solve(model, SolverSettings(mode=mode, seed=seed))
            assert res.status is SolveStatus.OPTIMAL
            assert res.objective == pytest.approx(best, abs=1e-9), (fam, size, seed)
            assert res.stats.reduced_cost_fixings == 0  # fixing acts only on integral ones


def _costed_continuous_model():
    """min -3 x0 - 2 x1 - 2 x2 - 0.5 y  s.t.  2 x0 + 2 x1 + 2 x2 + y <= 5, y in [0, 4]:
    rounding the root LP gives (1, 1, 0, 0), worth -5, and the optimum is 0.5 better."""
    return _model([-3, -2, -2, -0.5], [[2, 2, 2, 1]], "L", [5],
                  upper=[1, 1, 1, 4], integers=[0, 1, 2])


@pytest.mark.parametrize("mode", ["default", "scheduler"])
def test_costed_continuous_column_keeps_the_plain_cutoff(mode):
    model = _costed_continuous_model()
    assert not model.integral_objective
    best = math.inf  # enumerate the binaries, y at its best value in the room the row leaves
    for xs in np.ndindex(2, 2, 2):
        room = 5 - 2 * sum(xs)
        if room >= 0:
            best = min(best, float(model.c[:3] @ xs) - 0.5 * min(room, 4))
    res = solve(model, SolverSettings(mode=mode, seed=1))
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(best, abs=1e-9) == -5.5
    assert res.stats.reduced_cost_fixings == 0


def test_integral_objective_needs_integer_costs_and_free_continuous_columns():
    assert _model([2, -3], [[1, 1]], "L", [1]).integral_objective
    assert not _model([2, -3.5], [[1, 1]], "L", [1]).integral_objective
    # a continuous column that costs nothing leaves the objective integral
    assert _model([2, 0], [[1, 1]], "L", [1], integers=[0]).integral_objective
    assert not _model([2, 1], [[1, 1]], "L", [1], integers=[0]).integral_objective


def test_integral_candidate_one_below_the_cutoff_is_accepted():
    model = _model([1, 1, 1], [[1, 1, 1]], "G", [1], upper=[5, 5, 5])
    assert model.integral_objective
    tree = TreeSearch(model, SolverSettings(), cutoff=3.0)
    assert tree.beats_cutoff(2.0) and tree.beats_cutoff(2.0 + 1e-7)
    assert not tree.beats_cutoff(2.5)  # no integral point is worth that
    assert not tree.update_incumbent(np.array([1.0, 1.0, 1.0]))  # worth the cutoff itself
    assert tree.update_incumbent(np.array([1.0, 1.0, 0.0]))  # exactly 1 below it
    assert tree.incumbent.objective == 2.0
    assert not tree.update_incumbent(np.array([0.0, 1.0, 1.0]))  # equal, not better
    # integral within int_tol: the margin absorbs the round-off of its objective
    assert tree.update_incumbent(np.array([1.0 - 1e-7, 0.0, 0.0]))
    # a caller's fractional cutoff: 2 is below 2.5, and the test keeps it
    assert TreeSearch(model, SolverSettings(), cutoff=2.5).update_incumbent(
        np.array([1.0, 1.0, 0.0]))


def _fixing_model():
    """min 5 x0  s.t.  2 x1 - x0 = 1,  x0 + x2 <= 1: only (1, 1, 0) is feasible, worth 5.

    With x2 fixed to 0 and the cutoff 5, the root LP puts x1 at 1/2 with x0 at
    0, reduced cost 5, so x0 is fixed there by reduced cost; both children are
    then LP-infeasible.  Without the fixing the up child would be pruned by
    the cutoff."""
    return _model([5, 0, 0], [[-1, 2, 0], [1, 0, 1]], "EL", [1, 1])


def test_a_fixing_that_needs_the_inherited_cutoff_marks_the_sub_mip():
    model = _fixing_model()
    bounds = BoundState.from_model(model).fixed(2, 0.0)
    res = solve(model, SolverSettings(), root_bounds=bounds, cutoff=5.0)
    assert res.status is SolveStatus.INFEASIBLE and res.incumbent is None
    assert res.stats.reduced_cost_fixings == 1
    assert res.cutoff_pruned
    # with no cutoff nothing is fixed, and the sub-MIP finds the point
    free = solve(model, SolverSettings(), root_bounds=bounds)
    assert free.objective == 5.0 and free.stats.reduced_cost_fixings == 0


def test_lns_records_no_nogood_from_a_sub_mip_closed_by_fixing():
    """RENS fixes x2 at 0 and leaves x0, x1 in [0, 1]: the sub-MIP finds nothing better than
    the incumbent, and a no-good x2 != 0 would cut off the only feasible point."""
    model = _fixing_model()
    tree = TreeSearch(model, SolverSettings())
    assert tree.update_incumbent(np.array([1.0, 1.0, 0.0]))
    lp = LpResult(LpStatus.OPTIMAL, np.array([0.4, 0.6, 0.0]), 2.0, 0)
    limit = heuristics.portfolio_limits(tree.settings)["rens"]
    out = heuristics.run_lns("rens", lp, tree, dataclasses.replace(limit, value=0.3),
                             np.random.default_rng(0))
    assert out.fixed_count == 1 and out.sub_mip_infeasible
    assert out.conflicts_found == 0 and tree.ctx.cut_rows == []


def _lp_bits(res):
    """An LP result's status, pivots and objective, and the bytes of its arrays."""
    arrays = (res.x, *(res.basis or ()), res.reduced_costs)
    return (res.status, res.iterations, repr(res.objective), repr(res.phase1_residual),
            [None if a is None else a.tobytes() for a in arrays])


def _cut_bits(cut):
    cols, vals, sense, rhs = cut
    return cols.tobytes(), vals.tobytes(), sense, repr(rhs)


@pytest.mark.parametrize("size, seed, status", [((36, 6), 2, SolveStatus.OPTIMAL),
                                                ((24, 4), 5, SolveStatus.INFEASIBLE)],
                         ids=["optimal", "infeasible"])
def test_a_sub_mip_on_the_shared_context_equals_one_on_a_fresh_context(size, seed, status,
                                                                        monkeypatch):
    """An LNS sub-MIP solves on its tree's context, whose factor cache and counters hold the
    tree's LPs.  Its result and every LP of it are those of a sub-MIP on a fresh context with
    the same cut rows, bit for bit, and it leaves the context's rows as it found them: a
    rounding-only tree records no conflict."""
    model = generate_instance("gap", size, seed)
    settings = SolverSettings(seed=seed, time_limit_s=None)
    cuts = solve(model, settings).conflict_pool.nogood_cuts
    assert cuts
    tree = TreeSearch(model, settings)
    for cut in cuts:
        tree.ctx.add_cut_row(*cut)
    root = tree.ctx.solve(tree.root_bounds)  # the tree's own LP, before the sub-MIP
    ints = model.integers
    near = ints[np.argsort(np.abs(root.x[ints] - np.round(root.x[ints])), kind="stable")]
    lower, upper = tree.root_bounds.lower.copy(), tree.root_bounds.upper.copy()
    fixed = near[:len(ints) // 2]
    lower[fixed] = upper[fixed] = np.round(root.x[fixed])
    bounds = BoundState(lower, upper)

    lps, conflicts = [], []
    solve_lp, record_conflict = SimplexContext.solve, TreeSearch.record_conflict

    def recording(self, *args, **kwargs):
        res = solve_lp(self, *args, **kwargs)
        lps.append(_lp_bits(res))
        return res

    def recorded(self, *args, **kwargs):
        conflicts.append(self)
        return record_conflict(self, *args, **kwargs)

    monkeypatch.setattr(SimplexContext, "solve", recording)
    monkeypatch.setattr(TreeSearch, "record_conflict", recorded)

    def outcome(res):
        inc = None if res.incumbent is None else res.incumbent.values.tobytes()
        return (res.status, res.nodes_processed, repr(res.dual_bound), inc, res.incumbent_log,
                res.cutoff_pruned, lps[:])

    rows, before = tree.ctx.m, [_cut_bits(c) for c in tree.ctx.cut_rows]
    shared = []
    for _ in range(2):  # the second sub-MIP finds the first one's factors in the cache
        lps.clear()
        reuses = tree.ctx.factor_reuses
        shared.append(outcome(tree.sub_solve(bounds, node_limit=50)))
        assert tree.ctx.m == rows and [_cut_bits(c) for c in tree.ctx.cut_rows] == before
    lps.clear()
    fresh = SimplexContext(model, cuts=tree.ctx.cut_rows)
    sub_settings = dataclasses.replace(settings, node_limit=50)
    res = solve(model, sub_settings, root_bounds=bounds, ctx=fresh, heur_layer="rounding_only")
    assert res.status is status and res.nodes_processed > 1
    assert shared == [outcome(res)] * 2
    assert tree.ctx.factor_reuses - reuses > fresh.factor_reuses
    assert not conflicts


# ---------------------------------------------------------------------------
# heuristic layers
# ---------------------------------------------------------------------------

def test_default_mode_depth_schedule():
    model = _model(
        [-3, -5, -4, -6, -2, -7],
        [[2, 4, 3, 5, 2, 6], [1, 1, 1, 1, 1, 1]],
        "LL",
        [9, 4],
    )
    tree = TreeSearch(model, SolverSettings(mode="default"))
    tree.update_incumbent(np.zeros(model.n))
    bounds = BoundState.from_model(model)
    lp = tree.ctx.solve(bounds)
    assert lp.status is LpStatus.OPTIMAL

    def pulls():
        return {h: st.pulls for h, st in tree.stats.per_heuristic.items()}

    tree._run_heuristics(Node(0, 0, bounds, -np.inf), lp)
    assert sum(pulls().values()) == 0  # depth 0 matches no heuristic slot
    tree._run_heuristics(Node(1, 1, bounds, -np.inf), lp)
    assert pulls()["rens"] == 1  # depth 1 is the rens slot
    tree._run_heuristics(Node(2, 2, bounds, -np.inf), lp)
    assert pulls()["rins"] == 1  # depth 2 is the rins slot
    tree._run_heuristics(Node(3, 3, bounds, -np.inf), lp)
    assert pulls()["mutation"] == 1
    tree._run_heuristics(Node(4, 4, bounds, -np.inf), lp)
    assert pulls()["frac_dive"] == 1
    before = sum(pulls().values())
    tree._run_heuristics(Node(5, 7, bounds, -np.inf), lp)
    tree._run_heuristics(Node(6, 19, bounds, -np.inf), lp)
    assert sum(pulls().values()) == before  # depths 7..9 mod 10 run nothing


def _all_picks_at_the_root(model):
    """Run the static schedule at depth 0 with every heuristic in that slot, no incumbent."""
    tree = TreeSearch(model, SolverSettings(mode="default", default_offset=0, seed=1))
    bounds = BoundState.from_model(model)
    lp = tree.ctx.solve(bounds)
    assert lp.status is LpStatus.OPTIMAL and tree.incumbent is None
    assert tree.policy.picks(0, set()) == list(heuristics.DEFAULT_ORDER)
    tree._run_heuristics(Node(0, 0, bounds, -np.inf), lp)
    return tree, {h: st.pulls for h, st in tree.stats.per_heuristic.items()}


def test_static_picks_skip_lns_that_needs_the_incumbent_no_earlier_pick_found():
    tree, pulls = _all_picks_at_the_root(generate_instance("gap", (24, 4), 5))
    assert pulls == {"rens": 1, "rins": 0, "mutation": 0,
                     "frac_dive": 1, "coef_dive": 1, "rand_dive": 1}
    # RENS found nothing, so only a later dive can have installed an incumbent
    assert all(src in heuristics.DIVE_KINDS for src, _ in tree.incumbent_log)


def test_static_picks_run_lns_once_an_earlier_pick_installs_the_incumbent(monkeypatch):
    monkeypatch.setattr(heuristics, "run_rounding",
                        lambda *args, **kwargs: heuristics.HeurOutcome(heuristic="rounding"))
    tree, pulls = _all_picks_at_the_root(generate_instance("set_cover", (24, 12), 1))
    assert tree.incumbent_log[0][0] == "rens"  # the first incumbent, found at this node
    assert pulls == {h: 1 for h in heuristics.DEFAULT_ORDER}


def test_scheduler_mode_single_heuristic_per_invocation():
    model = generate_instance("gap", (24, 4), 5)
    res = solve(model, SolverSettings(mode="scheduler", seed=1))
    ts = [rec["t"] for rec in res.scheduler_log]
    assert ts == list(range(1, len(ts) + 1))
    assert res.stats.heuristic_calls == len(ts)
    for h, arm in res.stats.per_heuristic.items():  # charged exactly what was recorded
        recs = [rec for rec in res.scheduler_log if rec["h"] == h]
        assert arm.pulls == len(recs)
        assert arm.reward_sum == (sum(rec["r_total"] for rec in recs) if recs else None)


@pytest.mark.parametrize("mode", ["default", "scheduler"])
def test_per_heuristic_is_the_policys_arm_record(mode):
    """The run reports the policy's own records; in scheduler mode they hold exactly what
    the call log holds, and the static schedule charges no reward and keeps its limits."""
    model = generate_instance("gap", (24, 4), 5)
    tree = TreeSearch(model, SolverSettings(mode=mode, seed=1))
    res = tree.run()
    initial = heuristics.portfolio_limits(tree.settings)
    assert res.stats.heuristic_calls > 0
    for h, arm in res.stats.per_heuristic.items():
        assert arm is tree.policy.arms[h]
        recs = [rec for rec in res.scheduler_log if rec["h"] == h]
        if mode == "default":
            assert not recs and arm.reward_sum is None and arm.limit == initial[h]
            continue
        assert arm.pulls == len(recs)
        assert arm.successes == sum(rec["found_incumbent"] for rec in recs)
        reward_sum = None
        for rec in recs:  # left to right, the order the pulls were charged in
            reward_sum = (reward_sum or 0.0) + rec["r_total"]
        assert arm.reward_sum == reward_sum
        assert arm.limit.value == (recs[-1]["limit_after"] if recs else initial[h].value)


@pytest.mark.parametrize("mode", ["default", "scheduler"])
def test_inapplicable_heuristic_is_skipped_and_not_charged(mode, monkeypatch):
    run_diving = heuristics.run_diving
    refused = []

    def refuse_coef_dive(kind, *args):
        if kind == "coef_dive":
            refused.append(kind)
            raise NotApplicable("coef_dive refused")
        return run_diving(kind, *args)

    monkeypatch.setattr(heuristics, "run_diving", refuse_coef_dive)
    model = generate_instance("gap", (24, 4), 5)
    res = solve(model, SolverSettings(mode=mode, seed=1))
    assert refused
    assert res.status is SolveStatus.OPTIMAL
    assert res.stats.per_heuristic["coef_dive"].pulls == 0
    assert all(rec["h"] != "coef_dive" for rec in res.scheduler_log)
    assert res.stats.heuristic_calls == sum(arm.pulls for arm in res.stats.per_heuristic.values())
    # a portfolio call succeeds exactly when the tree accepted its one candidate
    accepted = [src for src, _ in res.incumbent_log if src in heuristics.DEFAULT_ORDER]
    assert res.stats.heuristic_successes == len(accepted)
    assert res.stats.heuristic_calls > 0


@pytest.mark.parametrize("mode", ["default", "scheduler"])
def test_the_tree_checks_every_candidate_once(mode, monkeypatch):
    """Heuristics hand candidates over; only ``update_incumbent`` evaluates them."""
    callers, candidates = [], []
    for owner in (model_mod, bnb_mod):
        def evaluate(*args, _original=owner.evaluate_solution, **kw):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return _original(*args, **kw)
        monkeypatch.setattr(owner, "evaluate_solution", evaluate)
    update = TreeSearch.update_incumbent

    def counted_update(tree, x, source="lp"):
        candidates.append(source)
        return update(tree, x, source)

    monkeypatch.setattr(TreeSearch, "update_incumbent", counted_update)
    res = solve(generate_instance("gap", (24, 4), 5), SolverSettings(mode=mode, seed=1))
    assert res.status is SolveStatus.OPTIMAL
    assert set(callers) == {"banditmip.bnb"}  # none from banditmip.heuristics
    assert len(callers) == len(candidates)
    assert "rounding" in candidates


def test_recency_bandit_mode_runs_end_to_end():
    model = generate_instance("gap", (24, 4), 5)
    avg = solve(model, SolverSettings(mode="scheduler", seed=1))
    rec = solve(model, SolverSettings(mode="scheduler", seed=1,
                                      bandit_mode="recency"))
    assert rec.status is SolveStatus.OPTIMAL
    assert rec.objective == pytest.approx(avg.objective)


def test_default_mode_has_no_scheduler_log():
    model = generate_instance("gap", (16, 4), 5)
    res = solve(model, SolverSettings(mode="default", seed=1))
    assert res.scheduler_log == []


def test_heurtime_below_total_time():
    model = generate_instance("gap", (24, 4), 5)
    res = solve(model, SolverSettings(mode="scheduler", seed=1))
    assert 0.0 <= res.stats.heurtime_s <= res.stats.time_s


def test_lns_cutoff_infeasible_marked_contaminated():
    model = _model([-3, -5, -4, -6], [[2, 4, 3, 5]], "L", [8])
    best, _ = brute_force_binary(model)
    res = solve(model, SolverSettings(), cutoff=best - 1.0)
    assert res.status is SolveStatus.INFEASIBLE
    assert res.cutoff_pruned
    genuine = solve(_model([1, 1], [[1, 1]], "G", [3]), SolverSettings())
    assert genuine.status is SolveStatus.INFEASIBLE
    assert not genuine.cutoff_pruned


@pytest.mark.parametrize("family, size, seed, mode, node_limit", [
    ("gap", (24, 4), 5, "scheduler", None),  # dense LPs, dives and sub-MIPs
    ("set_cover", (300, 150), 0, "default", 1),  # the column store's root LP
])
def test_max_row_residual_stays_within_lp_tolerance(family, size, seed, mode, node_limit):
    model = generate_instance(family, size, seed)
    res = solve(model, SolverSettings(mode=mode, seed=1, node_limit=node_limit))
    assert res.nodes_processed >= 1
    assert 0.0 <= res.stats.max_row_residual <= FEAS_TOL


def test_inversions_and_factor_reuses_add_up_over_every_tree(monkeypatch):
    """``RunStats`` counts the LP work of the top-level tree and of every LNS sub-MIP, all
    of it done on the search's one context."""
    contexts, subs = [], []
    init, sub_solve = bnb_mod.SimplexContext.__init__, TreeSearch.sub_solve

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        contexts.append(self)

    def counted(tree, *args, **kwargs):
        subs.append(tree)
        return sub_solve(tree, *args, **kwargs)

    monkeypatch.setattr(bnb_mod.SimplexContext, "__init__", recording)
    monkeypatch.setattr(TreeSearch, "sub_solve", counted)
    res = solve(generate_instance("gap", (120, 6), 1),
                SolverSettings(seed=1, node_limit=60, time_limit_s=None))
    assert subs  # sub-MIPs ran
    [ctx] = contexts
    assert res.stats.lp_inversions == ctx.inversions
    assert res.stats.factor_reuses == ctx.factor_reuses
    assert 0 < res.stats.factor_reuses < res.stats.lp_inversions


@pytest.mark.parametrize("family, size, seed, node_limit", [
    ("gap", (120, 6), 1, 60),  # dense LPs, dives and sub-MIPs
    ("set_cover", (300, 280), 3, 40),  # the column store, past the root
])
def test_box_certificate_leaves_the_search_unchanged(monkeypatch, family, size, seed, node_limit):
    """A solve without the box certificate and one with it take the same path.

    A certified LP is infeasible either way, and no search decision reads the
    pivots or the residual of an infeasible LP; so every optimal LP keeps its
    pivots, point and basis, and the solve its incumbents, nodes and dual bound.
    """
    from banditmip.simplex import SimplexContext

    model = generate_instance(family, size, seed)
    settings = SolverSettings(mode="scheduler", seed=1, node_limit=node_limit, time_limit_s=None)
    lps, certified = [], []
    solve_lp, box_certificate = SimplexContext.solve, SimplexContext._box_certificate

    def recording(self, *args, **kwargs):
        lps.append(solve_lp(self, *args, **kwargs))
        return lps[-1]

    def counted(self, bounds):
        out = box_certificate(self, bounds)
        certified.append(out is not None)
        return out

    def run():
        lps.clear()
        res = solve(model, settings)
        optimal = [(lp.iterations, lp.x.tobytes(),
                    lp.basis and tuple(part.tobytes() for part in lp.basis))
                   for lp in lps if lp.status is LpStatus.OPTIMAL]
        return (res.status, res.incumbent_log, res.nodes_processed, res.dual_bound,
                [lp.status for lp in lps], optimal)

    monkeypatch.setattr(SimplexContext, "solve", recording)
    monkeypatch.setattr(SimplexContext, "_box_certificate", lambda self, bounds: None)
    off = run()
    monkeypatch.setattr(SimplexContext, "_box_certificate", counted)
    on = run()
    assert 0 < sum(certified) <= on[4].count(LpStatus.INFEASIBLE)
    assert on == off
