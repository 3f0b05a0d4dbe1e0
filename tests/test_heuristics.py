
import itertools
import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from banditmip.bnb import SolverSettings, TreeSearch
from banditmip.heuristics import (
    DEFAULT_ORDER,
    HeurOutcome,
    NotApplicable,
    PORTFOLIO,
    SPEC_BY_ID,
    WorkingLimit,
    _open_fractional,
    adapt_limit,
    lock_round,
    portfolio_limits,
    run_diving,
    run_lns,
    run_rounding,
    variable_locks,
)
from banditmip.model import Assignment, evaluate_solution, generate_instance, snap_integral
from banditmip.simplex import BoundState, LpResult, LpStatus, SimplexContext

from oracles import brute_force_binary, model_from_dense, run_diving_reference

SETTINGS = SolverSettings()
LIMITS = portfolio_limits(SETTINGS)
LNS = LIMITS["rens"]  # value f = f_init, budget = lns_node_budget
DIVE = LIMITS["frac_dive"]  # value q = q_init, budget = dive_max_depth


def _model(c, rows, senses, rhs, upper=None, name="h"):
    n = len(c)
    return model_from_dense(
        rows,
        name=name,
        c=np.array(c, dtype=float),
        senses=list(senses),
        rhs=np.array(rhs, dtype=float),
        lower=np.zeros(n),
        upper=np.ones(n) if upper is None else np.array(upper, dtype=float),
        integers=np.arange(n),
    )


def _root(model, **kw):
    settings = SolverSettings(**kw)
    tree = TreeSearch(model, settings)
    bounds = BoundState.from_model(model)
    lp = tree.ctx.solve(bounds)
    return tree, lp, bounds


# ---------------------------------------------------------------------------
# working-limit updates
# ---------------------------------------------------------------------------

def _lns_outcome(found=False, infeasible=False):
    return HeurOutcome(heuristic="rens", found_incumbent=found,
                       sub_mip_infeasible=infeasible)


def _dive_outcome(found=False):
    return HeurOutcome(heuristic="frac_dive", found_incumbent=found)


def test_portfolio_limits_read_the_settings():
    assert LNS == WorkingLimit(SETTINGS.f_init, SETTINGS.f_min, SETTINGS.f_max,
                               SETTINGS.gamma, SETTINGS.lns_node_budget)
    assert DIVE == WorkingLimit(SETTINGS.q_init, SETTINGS.q_min, SETTINGS.q_max,
                                SETTINGS.eta, SETTINGS.dive_max_depth)
    assert all(LIMITS[s.id] == (LNS if s.klass == "lns" else DIVE) for s in PORTFOLIO)


def test_fixing_rate_failure_clamps_at_max():
    lim = adapt_limit(replace(LNS, value=0.9), _lns_outcome())
    assert lim.value == pytest.approx(0.9)


def test_fixing_rate_success_shrinks():
    lim = adapt_limit(replace(LNS, value=0.9), _lns_outcome(found=True))
    assert lim.value == pytest.approx(0.81)


def test_fixing_rate_infeasible_clamps_at_min():
    lim = adapt_limit(replace(LNS, value=0.3), _lns_outcome(infeasible=True))
    assert lim.value == pytest.approx(0.3)


def test_resolve_threshold_failure_clamps_at_min():
    lim = adapt_limit(replace(DIVE, value=0.05), _dive_outcome())
    assert lim.value == pytest.approx(0.05)


def test_resolve_threshold_success_grows():
    lim = adapt_limit(replace(DIVE, value=0.05), _dive_outcome(found=True))
    assert lim.value == pytest.approx(0.055)


def test_resolve_threshold_success_clamps_at_max():
    lim = adapt_limit(replace(DIVE, value=0.3), _dive_outcome(found=True))
    assert lim.value == pytest.approx(0.3)


def _update_fixing_rate(f, f_min, f_max, gamma, outcome):
    """The separate LNS rule that adapt_limit replaced, kept as its reference."""
    if outcome.found_incumbent or outcome.sub_mip_infeasible:
        return max((1.0 - gamma) * f, f_min)
    return min((1.0 + gamma) * f, f_max)


def _update_lp_resolve_threshold(q, q_min, q_max, eta, outcome):
    """The separate diving rule that adapt_limit replaced, kept as its reference."""
    if not outcome.found_incumbent:
        return max((1.0 - eta) * q, q_min)
    return min((1.0 + eta) * q, q_max)


@pytest.mark.parametrize("h", DEFAULT_ORDER)
def test_adapt_limit_equals_the_old_rules_exactly(h):
    old = _update_fixing_rate if SPEC_BY_ID[h].klass == "lns" else _update_lp_resolve_threshold
    rng = np.random.default_rng(DEFAULT_ORDER.index(h))
    for _ in range(2000):
        lo = float(rng.uniform(0.01, 0.6))
        hi = lo + float(rng.uniform(0.0, 0.4))
        value = float(rng.uniform(lo, hi))
        rate = float(rng.uniform(0.0, 0.5))
        budget = int(rng.integers(1, 1000))
        limit = WorkingLimit(value, lo, hi, rate, budget)
        for found, infeasible in itertools.product((False, True), repeat=2):
            out = HeurOutcome(h, found_incumbent=found, sub_mip_infeasible=infeasible)
            new = adapt_limit(limit, out)
            assert new.value == old(value, lo, hi, rate, out)
            assert new == replace(limit, value=new.value)  # only the value moves


def test_limit_updates_fuzz_stay_in_range_and_monotone():
    rng = np.random.default_rng(11)
    lns, dive = LNS, DIVE
    for _ in range(100_000):
        found = bool(rng.random() < 0.2)
        infeas = bool(rng.random() < 0.1)
        new_lns = adapt_limit(lns, _lns_outcome(found, infeas))
        new_dive = adapt_limit(dive, _dive_outcome(found))
        assert LNS.lo - 1e-12 <= new_lns.value <= LNS.hi + 1e-12
        assert DIVE.lo - 1e-12 <= new_dive.value <= DIVE.hi + 1e-12
        if found or infeas:
            assert new_lns.value <= lns.value + 1e-12  # success never raises f
        if not found:
            assert new_dive.value <= dive.value + 1e-12  # failure never raises q
        lns, dive = new_lns, new_dive


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------

def test_rounding_passes_through_integral_lp():
    model = _model([-1, -1], [[1, 1]], "L", [2])
    tree, lp, bounds = _root(model)
    assert np.allclose(np.round(lp.x), lp.x)
    out = run_rounding(lp, tree)
    assert out.found_incumbent  # first incumbent is always accepted
    assert np.array_equal(tree.incumbent.values, lp.x)
    assert out.nodes_used == 0 and out.conflicts_found == 0


def test_rounding_knapsack_rounds_down_to_feasible():
    model = _model([-1, -1], [[2, 2]], "L", [3])
    tree, lp, bounds = _root(model)
    out = run_rounding(lp, tree)
    assert out.found_incumbent
    ev = evaluate_solution(model, tree.incumbent.values)
    assert ev.feasible and ev.integral


def test_rounding_fails_on_equality_row():
    model = _model([-1, -1], [[1, 1]], "E", [0.5])
    tree, lp, bounds = _root(model)
    assert not np.allclose(np.round(lp.x), lp.x)  # LP sits at a fractional split
    out = run_rounding(lp, tree)
    assert not out.found_incumbent and tree.incumbent is None


def _round_nearest(x: float) -> float:
    """Nearest integer, the lower one on a tie: a scalar reference for the solver's rule."""
    r = math.floor(x)
    return r if x - r <= 0.5 else r + 1.0


def _frac(v: float) -> float:
    """Distance to the nearest integer: a scalar reference for the solver's rule."""
    f = v - math.floor(v)
    return min(f, 1.0 - f)


def _rounding_loop(x, model, locks, int_tol):
    """The per-variable rounding rule, as the reference for the vectorized one."""
    down, up = locks
    x = x.copy()
    for j in model.integers:
        v = x[j]
        if abs(v - round(v)) <= int_tol:
            x[j] = round(v)
            continue
        if down[j] < up[j]:
            t = math.floor(v)
        elif up[j] < down[j]:
            t = math.ceil(v)
        else:
            t = _round_nearest(v)
        x[j] = min(max(t, model.lower[j]), model.upper[j])
    return x


def test_vectorized_rounding_matches_loop():
    rng = np.random.default_rng(3)
    n = 400
    model = _model(np.zeros(n), [], "", [])
    model.integers = np.sort(rng.choice(n, size=300, replace=False))
    model.lower = rng.integers(-3, 1, size=n).astype(float)
    model.upper = model.lower + rng.integers(0, 4, size=n)
    base = rng.integers(-4, 5, size=n).astype(float)
    x = base + rng.choice([0.0, 0.5, 1e-7, -1e-7, 0.3, 0.7], size=n)
    x = np.where(rng.random(n) < 0.3, base + rng.random(n), x)
    locks = (rng.integers(0, 3, size=n), rng.integers(0, 3, size=n))
    seen = []
    lp = LpResult(LpStatus.OPTIMAL, x, 0.0, 0)
    tree = SimpleNamespace(model=model, locks=locks, settings=SolverSettings(int_tol=1e-6),
                           update_incumbent=lambda cand, src: seen.append(cand.copy()))
    run_rounding(lp, tree)
    assert np.array_equal(seen[0], _rounding_loop(x, model, locks, 1e-6))


def test_lock_round_is_the_scalar_rule_on_numbers_and_arrays():
    rng = np.random.default_rng(11)
    v = rng.integers(-4, 5, size=500) + rng.choice([0.5, 0.3, 0.7, 0.0, 1e-7], size=500)
    down, up = rng.integers(0, 3, size=500), rng.integers(0, 3, size=500)
    want = [math.floor(a) if d < u else math.ceil(a) if u < d else _round_nearest(a)
            for a, d, u in zip(v, down, up)]
    assert np.array_equal(lock_round(v, down, up), want)
    assert [float(lock_round(a, d, u)) for a, d, u in zip(v, down, up)] == want
    assert lock_round(2.5, 1, 1) == 2.0 and lock_round(2.5, 0, 1) == 2.0
    assert lock_round(2.5, 1, 0) == 3.0


def _locks_loop(model):
    """The per-row loop variable_locks replaced, kept as its reference."""
    down = np.zeros(model.n, dtype=np.int64)
    up = np.zeros(model.n, dtype=np.int64)
    for idx, val, sense in zip(model.row_cols, model.row_vals, model.senses):
        pos = idx[val > 0]
        neg = idx[val < 0]
        if sense in ("L", "E"):
            up[pos] += 1
            down[neg] += 1
        if sense in ("G", "E"):
            down[pos] += 1
            up[neg] += 1
    return down, up


@pytest.mark.parametrize("family", ["knapsack", "set_cover", "gap"])
@pytest.mark.parametrize("sense", ["generated", "L", "G", "E", "mixed"])
def test_vectorized_locks_match_loop(family, sense):
    model = generate_instance(family, (30, 6), 3)
    rng = np.random.default_rng(1)
    senses = {"generated": model.senses,
              "mixed": [str(s) for s in rng.choice(list("LGE"), size=model.m)]}
    vals = [np.where(rng.random(len(v)) < 0.3, -v, v) for v in model.row_vals]
    model = replace(model, senses=senses.get(sense, [sense] * model.m), data=np.concatenate(vals))
    down, up = variable_locks(model)
    ref_down, ref_up = _locks_loop(model)
    assert down.dtype == up.dtype == np.int64
    assert np.array_equal(down, ref_down) and np.array_equal(up, ref_up)


def test_locks_prefer_fewer_violations():
    model = _model([-1], [[2]], "L", [1])
    down, up = variable_locks(model)
    assert down[0] == 0 and up[0] == 1


# ---------------------------------------------------------------------------
# diving
# ---------------------------------------------------------------------------

def test_dive_immediate_success():
    model = _model([-1, -1], [[1, 1]], "L", [1.5])
    tree, lp, bounds = _root(model)
    out = run_diving("frac_dive", lp, tree, bounds, DIVE,
                     np.random.default_rng(0))
    assert out.found_incumbent
    assert out.nodes_used == 1
    assert out.conflicts_found == 0
    best, _ = brute_force_binary(model)
    assert tree.incumbent.objective == pytest.approx(best)


def test_dive_backtracks_to_optimum():
    # LP puts x0 at 0.6 (rounds up), but x0 = 1 is LP-infeasible; the
    # opposite direction x0 = 0 leads straight to the integral optimum.
    model = _model([-2, -1], [[1, 0]], "L", [0.6])
    tree, lp, bounds = _root(model)
    assert lp.x[0] == pytest.approx(0.6)
    out = run_diving("frac_dive", lp, tree, bounds, DIVE,
                     np.random.default_rng(0))
    assert out.found_incumbent
    assert out.conflicts_found == 0
    best, arg = brute_force_binary(model)
    assert best is not None
    assert tree.incumbent.objective == pytest.approx(best)
    assert tree.incumbent.values[0] == 0.0


def test_dive_both_directions_dead_records_conflict():
    # x1 + x2 = 0.5 admits no 0/1 completion: after the first fixing the other
    # variable is forced to 0.5 and both roundings make the LP infeasible.
    model = _model([-1, 0, 0], [[0, 1, 1]], "E", [0.5])
    tree, lp, bounds = _root(model)
    rows = tree.ctx.m
    out = run_diving("frac_dive", lp, tree, bounds, DIVE,
                     np.random.default_rng(0))
    assert not out.found_incumbent and tree.incumbent is None
    assert out.conflicts_found == 1
    assert not out.sub_mip_infeasible
    # x1 = 0 leaves x2 = 0.5, whose both values are dead: the no-good x1 >= 1
    [(cols, vals, sense, rhs)] = tree.pool.nogood_cuts
    assert (list(cols), list(vals), sense, rhs) == ([1], [1.0], "G", 1.0)
    assert tree.ctx.m == rows + 1


@pytest.mark.parametrize("model", [
    _model([-2, -1], [[1, 0]], "L", [0.6]),  # the first fixing is infeasible, its retry is not
    _model([-1, 0, 0], [[0, 1, 1]], "E", [0.5]),  # both directions infeasible
    generate_instance("gap", (24, 4), 5),
    generate_instance("knapsack", (12, 3), 2),
], ids=["backtrack", "conflict", "gap", "knapsack"])
def test_each_dive_lp_starts_from_the_last_optimal_basis(model, monkeypatch):
    """A dive hands every LP the basis of its last optimal one, the node LP's at first,
    and the retry after an infeasible LP the same."""
    tree, lp, bounds = _root(model)
    calls = []  # (basis handed in, result) of each dive LP
    solve = SimplexContext.solve

    def recording(self, bounds, *args, **kwargs):
        res = solve(self, bounds, *args, **kwargs)
        calls.append((kwargs.get("basis", "no basis given"), res))
        return res

    monkeypatch.setattr(SimplexContext, "solve", recording)
    lps = retries = 0
    for kind, seed in itertools.product(("frac_dive", "coef_dive", "rand_dive"), range(4)):
        calls.clear()
        run_diving(kind, lp, tree, bounds, DIVE, np.random.default_rng(seed))
        last = lp.basis
        lps += len(calls)
        for k, (given, res) in enumerate(calls):
            assert given is last, (kind, seed, k)
            retries += k > 0 and calls[k - 1][1].status is LpStatus.INFEASIBLE
            if res.status is LpStatus.OPTIMAL:
                last = res.basis
    assert lps > retries > 0


def test_dive_respects_max_depth():
    model = _model(
        [-3, -5, -4, -6, -2, -7],
        [[2, 4, 3, 5, 2, 6]],
        "L",
        [11],
    )
    tree, lp, bounds = _root(model)
    out = run_diving("coef_dive", lp, tree, bounds, replace(DIVE, budget=1),
                     np.random.default_rng(0))
    assert out.nodes_used <= 1


def test_dive_stops_once_the_deadline_has_passed():
    model = generate_instance("gap", (24, 4), 5)
    tree, lp, bounds = _root(model)
    assert tree.deadline is not None
    solves = []
    solve = tree.ctx.solve
    tree.ctx.solve = lambda *a, **k: solves.append(1) or solve(*a, **k)
    tree.deadline = None
    run_diving("frac_dive", lp, tree, bounds, DIVE, np.random.default_rng(0))
    assert len(solves) >= 2  # without a deadline this dive re-solves its LP several times
    solves.clear()
    tree.deadline = time.perf_counter() - 1.0
    out = run_diving("frac_dive", lp, tree, bounds, DIVE, np.random.default_rng(0))
    assert len(solves) <= 1
    assert not out.found_incumbent


def test_dive_candidate_scan_matches_loop():
    rng = np.random.default_rng(11)
    n = 60
    ints = np.sort(rng.choice(n, size=40, replace=False)).astype(np.int64)
    for _ in range(20):
        x = rng.uniform(-3, 3, size=n)
        snap = rng.random(n) < 0.4  # integral, within and just past the tolerance
        x[snap] = np.round(x[snap]) + rng.choice([0.0, -5e-7, 2e-6], size=snap.sum())
        lower = np.floor(x) - rng.integers(0, 2, size=n)
        upper = lower + rng.integers(0, 3, size=n)
        bounds = BoundState(lower=lower, upper=upper)
        expected = [
            int(j) for j in ints
            if bounds.upper[j] - bounds.lower[j] > 1e-9
            and _frac(float(x[j])) > 1e-6
        ]
        assert _open_fractional(ints, x, bounds, 1e-6) == expected


def test_rand_dive_deterministic_per_seed():
    model = _model(
        [-3, -5, -4, -6, -2, -7],
        [[2, 4, 3, 5, 2, 6], [1, 1, 1, 1, 1, 1]],
        "LL",
        [11, 4],
    )

    def once():
        tree, lp, bounds = _root(model)
        out = run_diving("rand_dive", lp, tree, bounds, DIVE,
                         np.random.default_rng(99))
        return (out.nodes_used, out.conflicts_found, out.found_incumbent,
                None if tree.incumbent is None else tuple(tree.incumbent.values))

    assert once() == once()


# ---------------------------------------------------------------------------
# LNS
# ---------------------------------------------------------------------------

def test_lns_fixing_count_is_ceil_f_times_I():
    model = _model([-1] * 10, [[1] * 10], "L", [4.5])
    tree, lp, bounds = _root(model)
    out = run_lns("rens", lp, tree, replace(LNS, value=0.9),
                  np.random.default_rng(0))
    assert out.fixed_count == 9  # ceil(0.9 * 10)


def test_rins_needs_incumbent():
    model = _model([-1, -1], [[1, 1]], "L", [1.5])
    tree, lp, bounds = _root(model)
    for kind in ("rins", "mutation"):
        with pytest.raises(NotApplicable):
            run_lns(kind, lp, tree, LNS, np.random.default_rng(0))


def test_rins_full_agreement_no_improvement():
    # incumbent equals the optimum; with full LP agreement the sub-MIP can
    # only reproduce it, so no new incumbent is found
    model = _model([-2, -3], [[1, 2]], "L", [3])
    tree, lp, bounds = _root(model)
    best, arg = brute_force_binary(model)
    inc = Assignment.from_values(model, arg)
    tree.incumbent = inc
    assert np.allclose(lp.x, inc.values)  # LP is integral here and agrees
    out = run_lns("rins", lp, tree, replace(LNS, value=0.5), np.random.default_rng(0))
    assert not out.found_incumbent


def test_mutation_with_cutoff_below_optimum_reports_infeasible():
    model = _model(
        [-3, -5, -4, -6],
        [[2, 4, 3, 5]],
        "L",
        [8],
    )
    tree, lp, bounds = _root(model)
    best, arg = brute_force_binary(model)
    inc = Assignment.from_values(model, arg)
    tree.incumbent = inc
    tree.inherited_cutoff = best - 1.0  # nothing can beat this
    out = run_lns("mutation", lp, tree, replace(LNS, value=0.5),
                  np.random.default_rng(3))
    assert out.sub_mip_infeasible
    assert not out.found_incumbent


def test_rens_sub_mip_branches_where_rounding_breaks_a_row():
    # RENS fixes x1 = 1 and boxes x0 to [0, 1]; the sub-MIP's root LP puts x0 at
    # 1 - 5e-7, integral within int_tol, but x0 = 1 breaks the row.  Without an
    # incumbent the sub-MIP has no cutoff: were that node dropped, the sub-MIP would
    # end infeasible with no cutoff help, and the no-good x1 <= 0 would cut off the optimum.
    model = _model([-1, -1], [[2e6, 0]], "L", [2e6 - 1])
    tree, lp, bounds = _root(model)
    assert snap_integral(model, lp.x, tree.settings.int_tol) is not None
    out = run_lns("rens", lp, tree, replace(LNS, value=0.5), np.random.default_rng(0))
    best, _ = brute_force_binary(model)
    assert out.found_incumbent and not out.sub_mip_infeasible
    assert tree.incumbent.objective == best == -1.0
    assert out.conflicts_found == 0 and not tree.pool.nogood_cuts


def test_lns_node_usage_within_budget():
    model = _model(
        [-3, -5, -4, -6, -2, -7, -1, -8],
        [[2, 4, 3, 5, 2, 6, 1, 7]],
        "L",
        [15],
    )
    tree, lp, bounds = _root(model)
    out = run_lns("rens", lp, tree, replace(LNS, value=0.3, budget=5),
                  np.random.default_rng(0))
    assert out.nodes_used <= 5


def test_emitted_solutions_are_integral_feasible():
    from banditmip.model import generate_instance
    from banditmip.heuristics import DIVE_KINDS, LNS_KINDS, execute

    for fam, size, seed in [("gap", (24, 4), 5), ("set_cover", (18, 9), 2),
                            ("knapsack", (16, 3), 1)]:
        model = generate_instance(fam, size, seed)
        tree, lp, bounds = _root(model)
        if np.all(np.abs(lp.x - np.round(lp.x)) <= 1e-6):
            continue  # integral root, heuristics have nothing to do
        out = run_rounding(lp, tree)
        if out.found_incumbent:
            ev = evaluate_solution(model, tree.incumbent)
            assert ev.feasible and ev.integral
        for kind in DIVE_KINDS + LNS_KINDS:
            if SPEC_BY_ID[kind].requires_incumbent and tree.incumbent is None:
                continue
            out = execute(kind, lp, tree, bounds, LIMITS[kind], np.random.default_rng(seed))
            if out.found_incumbent:
                ev = evaluate_solution(model, tree.incumbent)
                assert ev.feasible and ev.integral, (fam, kind)


def test_portfolio_metadata():
    assert DEFAULT_ORDER == ("rens", "rins", "mutation",
                             "frac_dive", "coef_dive", "rand_dive")
    by_id = {s.id: s for s in PORTFOLIO}
    assert by_id["rins"].requires_incumbent
    assert by_id["mutation"].requires_incumbent
    assert not by_id["rens"].requires_incumbent
    assert all(not by_id[k].requires_incumbent
               for k in ("frac_dive", "coef_dive", "rand_dive"))


@pytest.mark.parametrize("kind", ["frac_dive", "coef_dive", "rand_dive"])
def test_dive_fixings_match_a_per_step_rescan(kind, monkeypatch):
    """A dive walks its candidates in one order per LP point; the reference rescans the
    point before every fixing.  Both fix the same (j, value) sequence, retries included,
    on seeded gap and knapsack models with several fixings between LP solves."""
    fixings = []
    fixed = BoundState.fixed
    monkeypatch.setattr(BoundState, "fixed",
                        lambda self, j, v: fixings.append((int(j), float(v))) or fixed(self, j, v))
    models = [generate_instance("gap", (24, 4), 5), generate_instance("gap", (36, 6), 2),
              generate_instance("knapsack", (60, 5), 1), generate_instance("knapsack", (80, 4), 3)]
    total = batched = 0  # fixings, and dives that fixed more columns than they solved LPs
    for model, seed in itertools.product(models, range(3)):
        tree, lp, bounds = _root(model)
        fixings.clear()
        solve, lps = tree.ctx.solve, []
        tree.ctx.solve = lambda *a, **k: lps.append(1) or solve(*a, **k)
        out = run_diving(kind, lp, tree, bounds, DIVE, np.random.default_rng(seed))
        got = (list(fixings), out.found_incumbent, out.nodes_used, out.conflicts_found)
        tree, lp, bounds = _root(model)
        fixings.clear()
        ref = run_diving_reference(kind, lp, tree, bounds, DIVE, np.random.default_rng(seed))
        assert got == (list(fixings), *ref), (kind, model.name, seed)
        total += len(fixings)
        batched += out.nodes_used > len(lps)
    assert total > 100 and batched > 0
