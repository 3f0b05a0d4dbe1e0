"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
"""

import csv
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from banditmip.bnb import SolveStatus, SolverSettings, solve
from banditmip.cli import main as cli_main, summarize_runs, format_summary
from banditmip.heuristics import (
    DEFAULT_ORDER,
    HeurOutcome,
    adapt_limit,
    portfolio_limits,
)
from banditmip.model import generate_instance
from banditmip.scheduler import (
    Policy,
    RewardContext,
    Scheduler,
    compute_reward,
    compute_skip_count,
    epsilon_t,
)

from oracles import brute_force_binary, with_rows


SETTINGS = SolverSettings()
LIMITS = portfolio_limits(SETTINGS)


def _bandit():
    return Scheduler(SETTINGS, np.random.default_rng(0))


def _pull(sched, h, reward):
    """Charge one pull of h with the given reward, as ``Scheduler.record`` charges it."""
    Policy.record(sched, h, HeurOutcome(heuristic=h), None)  # the tally both policies share
    sched.update(h, reward)


def _report(num, desc, ok):
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


# ---------------------------------------------------------------------------
# 1. correctness oracle
# ---------------------------------------------------------------------------

def _small_suite(count=50):
    sizes = {
        "knapsack": [(10, 1), (12, 2), (14, 1), (13, 3), (11, 2)],
        "set_cover": [(10, 6), (12, 7), (14, 8), (11, 6), (13, 9)],
        "gap": [(12, 3), (12, 4), (14, 2), (12, 6), (8, 2)],
    }
    fams = ("knapsack", "set_cover", "gap")
    out = []
    for i in range(count):
        fam = fams[i % 3]
        out.append((fam, sizes[fam][i % 5], i))
    return out


def test_acceptance_1_correctness_oracle():
    t0 = time.time()
    checked = 0
    for fam, size, seed in _small_suite(50):
        model = generate_instance(fam, size, seed)
        assert model.n <= 14
        best, _ = brute_force_binary(model)
        assert best is not None
        for mode in ("default", "scheduler"):
            res = solve(model, SolverSettings(mode=mode, seed=seed))
            assert res.status is SolveStatus.OPTIMAL, (fam, size, seed, mode)
            assert abs(res.objective - best) <= 1e-9, (fam, size, seed, mode)
        checked += 1
    elapsed = time.time() - t0
    _report(1, f"both modes match brute force on {checked} instances "
               f"(<=14 binaries) in {elapsed:.1f}s (< 60s)",
            checked == 50 and elapsed < 60.0)


# ---------------------------------------------------------------------------
# 2. formula oracles
# ---------------------------------------------------------------------------

def test_acceptance_2_formula_oracles():
    rng = np.random.default_rng(42)
    n = 10_000

    for _ in range(n):
        k = int(rng.integers(0, 300))
        assert compute_skip_count(k, SETTINGS.beta) == math.floor(math.exp(0.1 * k)) - 1

    lns = replace(LIMITS["rens"], value=float(rng.uniform(0.3, 0.9)))
    for _ in range(n):
        out = HeurOutcome(
            heuristic="rens",
            found_incumbent=bool(rng.random() < 0.3),
            sub_mip_infeasible=bool(rng.random() < 0.2),
        )
        new = adapt_limit(lns, out)
        if out.found_incumbent or out.sub_mip_infeasible:
            want = max(0.9 * lns.value, 0.3)
        else:
            want = min(1.1 * lns.value, 0.9)
        assert abs(new.value - want) <= 1e-9
        lns = new

    dive = replace(LIMITS["frac_dive"], value=float(rng.uniform(0.05, 0.3)))
    for _ in range(n):
        out = HeurOutcome(heuristic="frac_dive",
                          found_incumbent=bool(rng.random() < 0.3))
        new = adapt_limit(dive, out)
        want = (min(1.1 * dive.value, 0.3) if out.found_incumbent
                else max(0.9 * dive.value, 0.05))
        assert abs(new.value - want) <= 1e-9
        dive = new

    sched = _bandit()  # its record charges each reward against its running v_max
    for _ in range(n):
        h = DEFAULT_ORDER[int(rng.integers(6))]
        is_lns = h in ("rens", "rins", "mutation")
        found = bool(rng.random() < 0.3)
        first = found and bool(rng.random() < 0.3)
        obj_lp = float(rng.normal())
        obj_old = obj_lp + float(rng.uniform(-0.5, 4.0))
        obj_new = obj_old - float(rng.uniform(0.0, 3.0))
        out = HeurOutcome(
            heuristic=h,
            found_incumbent=found,
            nodes_used=int(rng.integers(0, 700)),
            conflicts_found=int(rng.integers(0, 4)),
        )
        ctx = RewardContext(
            is_first_incumbent=first,
            obj_old=None if (not found or first) else obj_old,
            obj_new=None if (not found or first) else obj_new,
            obj_lp=obj_lp,
        )
        v_before = sched.v_max
        sched.record(h, out, ctx)
        bd = sched.reward_log[-1]
        assert bd["n_max"] == LIMITS[h].budget
        # independent recomputation
        r_sol = 1.0 if found else 0.0
        if not found:
            r_gap = 0.0
        elif first:
            r_gap = 1.0
        else:
            den = obj_old - obj_lp
            impr = obj_old - obj_new
            if den <= 1e-9:
                r_gap = 1.0 if impr > 0 else 0.0
            else:
                r_gap = min(max(impr / den, 0.0), 1.0)
        r_eff = min(max(1.0 - out.nodes_used / (500 if is_lns else 100), 0.0), 1.0)
        r_conf = 0.0 if v_before == 0 else min(out.conflicts_found / v_before, 1.0)
        want = 0.3 * r_sol + 0.3 * r_gap + 0.2 * r_eff + 0.2 * r_conf
        assert abs(bd["r_total"] - want) <= 1e-9
        assert sched.v_max == max(v_before, out.conflicts_found)

    for _ in range(n):
        eps = float(rng.uniform(0.0, 1.0))
        arms = int(rng.integers(1, 12))
        t = int(rng.integers(1, 10_000))
        assert abs(epsilon_t(eps, arms, t) - eps * math.sqrt(arms / t)) <= 1e-9

    bandit = _bandit()
    logged = {h: [] for h in DEFAULT_ORDER}
    for _ in range(n):
        h = DEFAULT_ORDER[int(rng.integers(6))]
        r = float(rng.random())
        logged[h].append(r)
        _pull(bandit, h, r)
        want = (1 / 6 + math.fsum(logged[h])) / (1 + len(logged[h]))
        assert abs(bandit.arms[h].weight - want) <= 1e-9

    _report(2, "skip count, f/q updates, reward, eps_t and weight maintenance "
               "match independent oracles on 10^4 fuzzed inputs each", True)


# ---------------------------------------------------------------------------
# 3. bandit convergence
# ---------------------------------------------------------------------------

def test_acceptance_3_bandit_convergence():
    means = dict(zip(DEFAULT_ORDER, [0.05, 0.1, 0.2, 0.3, 0.4, 0.5]))
    arms = set(DEFAULT_ORDER)
    t0 = time.time()
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        bandit = _bandit()
        for h in DEFAULT_ORDER:  # warmstart pass
            _pull(bandit, h, float(rng.random() < means[h]))
        bandit.rng = rng
        for _ in range(10_000 - 6):
            h = bandit.draw(arms)
            _pull(bandit, h, float(rng.random() < means[h]))
        best = bandit.arms["rand_dive"].pulls
        if best > max(bandit.arms[h].pulls for h in DEFAULT_ORDER[:-1]):
            wins += 1
    elapsed = time.time() - t0
    _report(3, f"best arm dominant in {wins}/20 seeds (need >= 18) "
               f"in {elapsed:.1f}s (< 10s)",
            wins >= 18 and elapsed < 10.0)


# ---------------------------------------------------------------------------
# 4. warmstart and skip semantics
# ---------------------------------------------------------------------------

def _fail_outcome(h):
    return HeurOutcome(heuristic=h)


def test_acceptance_4_warmstart_and_skip_semantics():
    every = set(DEFAULT_ORDER)

    # (a) first |H| applicable selections follow the default order
    sched = Scheduler(SolverSettings(), np.random.default_rng(0))
    first = []
    for _ in range(6):
        h = sched.select(every)
        first.append(h)
        sched.record(h, _fail_outcome(h), RewardContext(False, None, None, 0.0))
    ok_a = first == list(DEFAULT_ORDER)

    # (b) a streak of 23 failed calls skips exactly the next 8 invocations
    executed = 0
    while executed < 23:
        picked = sched.picks(0, every)
        if not picked:
            continue
        [h] = picked
        sched.record(h, _fail_outcome(h), RewardContext(False, None, None, 0.0))
        executed += 1
    assert sched.n_fail == 23
    skipped = 0
    while not sched.picks(0, every):
        skipped += 1
    ok_b = skipped == 8 == compute_skip_count(23, sched.settings.beta)

    # (c) skips are disabled during warmstart
    fresh = Scheduler(SolverSettings(), np.random.default_rng(1))
    fresh.skip_remaining = 5
    ok_c = all(fresh.picks(0, every) for _ in range(4)) and fresh.skip_remaining == 5

    _report(4, "warmstart order, 23-failure streak skips 8, skips frozen in "
               "warmstart", ok_a and ok_b and ok_c)


# ---------------------------------------------------------------------------
# 5. invariant suite
# ---------------------------------------------------------------------------

def test_acceptance_5_invariant_suite():
    rng = np.random.default_rng(99)

    # rewards stay in [0, 1] under 10^5 random outcomes
    v_max = 0
    for _ in range(100_000):
        h = DEFAULT_ORDER[int(rng.integers(6))]
        found = bool(rng.random() < 0.3)
        first = found and bool(rng.random() < 0.3)
        obj_lp = float(rng.normal())
        obj_old = obj_lp + float(rng.uniform(-1.0, 5.0))
        out = HeurOutcome(
            heuristic=h,
            found_incumbent=found,
            nodes_used=int(rng.integers(0, 800)),
            conflicts_found=int(rng.integers(0, 6)),
        )
        ctx = RewardContext(
            is_first_incumbent=first,
            obj_old=None if (not found or first) else obj_old,
            obj_new=None if (not found or first) else obj_old - float(rng.uniform(0, 4)),
            obj_lp=obj_lp,
        )
        bd = compute_reward(out, ctx, SETTINGS, v_max, LIMITS[h].budget)
        v_max = max(v_max, out.conflicts_found)  # as Scheduler.record keeps it
        assert -1e-12 <= bd.r_total <= 1.0 + 1e-12

    # f and q never leave their boxes under 10^5 random updates
    lns, dive = LIMITS["rens"], LIMITS["frac_dive"]
    for _ in range(100_000):
        found = bool(rng.random() < 0.25)
        infeas = bool(rng.random() < 0.1)
        lns = adapt_limit(
            lns, HeurOutcome("rens", found_incumbent=found,
                             sub_mip_infeasible=infeas))
        dive = adapt_limit(
            dive, HeurOutcome("frac_dive", found_incumbent=found))
        assert 0.3 - 1e-12 <= lns.value <= 0.9 + 1e-12
        assert 0.05 - 1e-12 <= dive.value <= 0.3 + 1e-12

    # solver-level invariants on a batch of real runs
    cuts_checked = 0
    lns_calls_checked = 0
    for fam, size, seed in [("gap", (24, 4), 1), ("gap", (30, 5), 2),
                            ("set_cover", (24, 12), 3), ("knapsack", (18, 4), 4),
                            ("gap", (16, 4), 5), ("set_cover", (20, 10), 6)]:
        model = generate_instance(fam, size, seed)
        res = solve(model, SolverSettings(mode="scheduler", seed=seed))
        objs = [o for _, o in res.incumbent_log]
        assert all(b < a - 1e-9 for a, b in zip(objs, objs[1:]))  # monotone
        n_int = len(model.integers)
        for rec in res.scheduler_log:
            assert -1e-12 <= rec["r_total"] <= 1.0 + 1e-12
            if rec["klass"] == "lns":
                want = min(math.ceil(rec["limit_before"] * n_int), n_int)
                assert rec["fixed_count"] == want
                lns_calls_checked += 1
        if res.conflict_pool.nogood_cuts:
            cuts_checked += 1
            again = solve(with_rows(model, res.conflict_pool.nogood_cuts),
                          SolverSettings(mode="default", seed=seed))
            assert again.status is SolveStatus.OPTIMAL
            assert abs(again.objective - res.objective) <= 1e-9
    assert cuts_checked >= 1 and lns_calls_checked >= 5

    _report(5, "reward/f/q ranges (10^5-step fuzz), monotone incumbents, "
               "no-good validity, LNS fixing counts", True)


# ---------------------------------------------------------------------------
# 6. comparative study (reported, with two gated checks)
# ---------------------------------------------------------------------------

def _study_suite():
    uris = []
    for i in range(10):
        uris.append(f"gen:gap:n={30 + 3 * (i % 4)},m={5 + (i % 2)},seed={i}")
    for i in range(10):
        uris.append(f"gen:set_cover:n={28 + (i % 5) * 3},m={14 + (i % 3) * 3},seed={i}")
    for i in range(10):
        uris.append(f"gen:knapsack:n={22 + (i % 4) * 2},m={4 + (i % 3)},seed={i}")
    return uris


def test_acceptance_6_comparative_study(tmp_path):
    manifest = tmp_path / "suite.txt"
    manifest.write_text("".join(u + "\n" for u in _study_suite()))
    out = tmp_path / "runs.csv"
    rc = cli_main(["bench", str(manifest), "--seeds", "1,2,3,4",
                   "--node-limit", "400", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 30 * 4 * 2

    with out.open() as fh:
        table = summarize_runs(fh, brackets=[0.1, 0.5], time_limit=60.0)
    print()
    print(format_summary(table))

    pairs = {}
    for r in rows:
        pairs.setdefault((r["instance"], r["seed"]), {})[r["mode"]] = r
    found_default = [k for k, v in pairs.items()
                     if int(v["default"]["heuristic_successes"]) >= 1]
    also = [k for k in found_default
            if int(pairs[k]["scheduler"]["heuristic_successes"]) >= 1]
    share_a = len(also) / max(1, len(found_default))

    ok_b_runs = 0
    b_total = 0
    for r in rows:
        if r["mode"] != "scheduler":
            continue
        pulls = {h: int(r[f"{h}_pulls"]) for h in DEFAULT_ORDER}
        total_pulls = sum(pulls.values())
        if total_pulls == 0:
            continue
        b_total += 1
        most = max(DEFAULT_ORDER,
                   key=lambda h: (pulls[h], -DEFAULT_ORDER.index(h)))
        rewards = {h: float(r[f"{h}_mean_reward"] or 0.0) for h in DEFAULT_ORDER}
        portfolio_mean = (
            sum(pulls[h] * rewards[h] for h in DEFAULT_ORDER) / total_pulls
        )
        if rewards[most] >= portfolio_mean - 1e-12:
            ok_b_runs += 1
    share_b = ok_b_runs / max(1, b_total)

    _report(6, f"study table emitted; scheduler matches default incumbents on "
               f"{share_a:.0%} of {len(found_default)} runs (>= 80%); "
               f"most-pulled arm >= portfolio mean on {share_b:.0%} of "
               f"{b_total} runs (>= 75%)",
            share_a >= 0.80 and share_b >= 0.75)


# ---------------------------------------------------------------------------
# 7. determinism
# ---------------------------------------------------------------------------

def test_acceptance_7_bench_determinism(tmp_path):
    manifest = tmp_path / "suite.txt"
    manifest.write_text(
        "gen:gap:n=24,m=4,seed=5\n"
        "gen:set_cover:n=18,m=9,seed=2\n"
        "gen:knapsack:n=14,m=3,seed=1\n"
        "gen:gap:n=12,m=3,seed=9\n"
    )

    def run(name):
        out = tmp_path / name
        assert cli_main(["bench", str(manifest), "--seeds", "1,2",
                         "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        for r in rows:
            r.pop("time_s"), r.pop("heurtime_s")
        return rows

    a, b = run("a.csv"), run("b.csv")
    _report(7, f"two bench sweeps identical on all {len(a)} rows excluding "
               "timing columns", a == b and len(a) == 16)
