import math
import time

import numpy as np
import pytest

from banditmip.bnb import (
    ConflictPool,
    InvalidSettings,
    Node,
    NoFractionalVariable,
    SolveStatus,
    SolverSettings,
    TreeSearch,
    add_conflict,
    select_branch_variable,
    solve,
)
from banditmip import heuristics
from banditmip.heuristics import LNS_KINDS, NotApplicable
from banditmip.model import Assignment, MipModel, generate_instance, load_instance
from banditmip.simplex import FEAS_TOL, BoundState, LpResult, LpStatus

from oracles import brute_force_binary


def _model(c, rows, senses, rhs, lower=None, upper=None, integers=None):
    n = len(c)
    row_cols, row_vals = [], []
    for row in rows:
        idx = [j for j, v in enumerate(row) if v != 0]
        row_cols.append(np.array(idx, dtype=np.int64))
        row_vals.append(np.array([row[j] for j in idx], dtype=float))
    return MipModel(
        name="t",
        c=np.array(c, dtype=float),
        row_cols=row_cols,
        row_vals=row_vals,
        row_senses=list(senses),
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
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_settings_reject_unusable_values(bad):
    with pytest.raises(InvalidSettings, match=next(iter(bad))):
        SolverSettings(**bad)


def test_settings_accept_the_default_and_edge_int_tol():
    assert SolverSettings().int_tol == 1e-6
    assert SolverSettings(int_tol=0.0).int_tol == 0.0
    assert SolverSettings(feas_tol=0.0).feas_tol == 0.0
    assert SolverSettings(int_tol=0.49).int_tol == 0.49


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

    # per tree's context: (basis handed in, basis returned) of each node LP.  The
    # context itself is the key, which keeps it alive: a freed sub-MIP context's
    # id() can be reused by a later one and would merge two trees' calls.
    calls = {}
    solve_lp = SimplexContext.solve

    def recording(self, bounds, *args, **kwargs):
        res = solve_lp(self, bounds, *args, **kwargs)
        if "basis" in kwargs:  # dives chain from the context's last basis instead
            calls.setdefault(self, []).append((kwargs["basis"], res.basis))
        return res

    monkeypatch.setattr(SimplexContext, "solve", recording)
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

    The pivot loop does not read the deadline, so the bound holds only while
    one LP takes far less than that: milliseconds at this size."""
    model = generate_instance("gap", (600, 20), 1)
    t0 = time.perf_counter()
    res = solve(model, SolverSettings(mode=mode, seed=1, time_limit_s=1.0))
    elapsed = time.perf_counter() - t0
    assert res.status is SolveStatus.TIME_LIMIT
    assert elapsed <= 1.5


def test_lp_iteration_exhaustion_never_claims_optimality():
    model = generate_instance("set_cover", (24, 12), 3)
    res = solve(model, SolverSettings(seed=1, lp_iter_limit=1))
    assert res.status is SolveStatus.ITER_LIMIT
    assert res.incumbent is None


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
    assert sum(st.pulls for st in res.stats.per_heuristic.values()) > 0
    for h, st in res.stats.per_heuristic.items():
        assert st.final_limit == (cfg["f_init"] if h in LNS_KINDS else cfg["q_init"])

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
    assert sched.bandit.epsilon == cfg["epsilon"]
    assert sched.beta == cfg["beta"]
    assert (sched.cfg.lam_sol, sched.cfg.lam_gap, sched.cfg.lam_eff, sched.cfg.lam_conf) == (
        cfg["lambda_sol"], cfg["lambda_gap"], cfg["lambda_eff"], cfg["lambda_conf"])
    for h, st in res.stats.per_heuristic.items():  # the reported limits are the scheduler's
        lim = sched.limits[h]
        assert lim.budget == (cfg["lns_node_budget"] if h in LNS_KINDS else cfg["dive_max_depth"])
        assert st.final_limit == lim.value


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
    best_j, best_frac = -1, int_tol
    for j in model.integers:
        frac = min(x[j] - math.floor(x[j]), math.ceil(x[j]) - x[j])
        if frac > best_frac + 1e-9:
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


# ---------------------------------------------------------------------------
# incumbents
# ---------------------------------------------------------------------------

def test_update_incumbent_accept_reject_cycle():
    model = _model([5, 4], [], "", [])
    tree = TreeSearch(model, SolverSettings())
    first = Assignment.from_values(model, [1.0, 0.0])
    assert tree.update_incumbent(first)
    same = Assignment.from_values(model, [1.0, 0.0])
    assert not tree.update_incumbent(same)  # equal objective is not accepted
    better = Assignment.from_values(model, [0.0, 1.0])
    assert tree.update_incumbent(better)
    assert tree.effective_cutoff() == pytest.approx(4.0)


def test_update_incumbent_rejects_infeasible():
    model = _model([1, 1], [[1, 1]], "L", [1])
    tree = TreeSearch(model, SolverSettings())
    assert not tree.update_incumbent(Assignment.from_values(model, [1.0, 1.0]))
    assert not tree.update_incumbent(Assignment.from_values(model, [0.5, 0.0]))


# ---------------------------------------------------------------------------
# conflicts and no-good cuts
# ---------------------------------------------------------------------------

def test_add_conflict_stores_binary_nogood():
    model = _model([-1, -1], [[3, 3]], "L", [5])
    best, _ = brute_force_binary(model)
    # enumeration confirms the fixing {x0=1, x1=1} is infeasible
    assert best == pytest.approx(-1.0)
    pool = ConflictPool()
    stored = add_conflict(pool, model, "rens", {0: 1.0, 1: 0.0})
    assert stored and pool.count_by_heuristic["rens"] == 1
    cols, vals, sense, rhs = pool.nogood_cuts[0]
    # cut (1 - x0) + x1 >= 1
    assert list(cols) == [0, 1]
    assert list(vals) == [-1.0, 1.0]
    assert sense == "G" and rhs == 0.0


def test_add_conflict_general_integer_counts_only():
    model = _model([1, 1], [[1, 1]], "L", [3], upper=[2, 1])
    pool = ConflictPool()
    stored = add_conflict(pool, model, "frac_dive", {0: 2.0})
    assert not stored
    assert pool.count_by_heuristic["frac_dive"] == 1
    assert not pool.nogood_cuts


def test_add_conflict_empty_fixing_is_noop():
    model = _model([1], [], "", [])
    pool = ConflictPool()
    assert not add_conflict(pool, model, "rens", {})
    assert pool.count_by_heuristic == {}
    assert not pool.nogood_cuts


def test_nogood_cut_preserves_optimum():
    model = _model([-1, -1], [[3, 3]], "L", [5])
    plain = solve(model, SolverSettings())
    pool = ConflictPool()
    add_conflict(pool, model, "rens", {0: 1.0, 1: 1.0})
    cut = solve(model, SolverSettings(), extra_cuts=pool.nogood_cuts)
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
        again = solve(model, SolverSettings(mode="default", seed=seed),
                      extra_cuts=cuts)
        assert again.status is SolveStatus.OPTIMAL
        assert again.objective == pytest.approx(res.objective, abs=1e-9)
    assert checked >= 1  # at least one run actually produced cuts


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
    tree.update_incumbent(Assignment.from_values(model, np.zeros(model.n)))
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


def test_scheduler_mode_single_heuristic_per_invocation():
    model = generate_instance("gap", (24, 4), 5)
    res = solve(model, SolverSettings(mode="scheduler", seed=1))
    ts = [rec["t"] for rec in res.scheduler_log]
    assert ts == list(range(1, len(ts) + 1))
    assert res.stats.heuristic_calls == len(ts)
    for h, st in res.stats.per_heuristic.items():  # charged exactly what was recorded
        recs = [rec for rec in res.scheduler_log if rec["h"] == h]
        assert st.pulls == len(recs)
        assert st.reward_sum == (sum(rec["r_total"] for rec in recs) if recs else None)


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
    assert res.stats.heuristic_calls == sum(st.pulls for st in res.stats.per_heuristic.values())
    assert res.stats.heuristic_calls > 0


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
