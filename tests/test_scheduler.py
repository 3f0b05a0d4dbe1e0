import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from banditmip.bnb import SolverSettings
from banditmip.heuristics import DEFAULT_ORDER, HeurOutcome, portfolio_limits
from banditmip.scheduler import (
    ArmRecord,
    Policy,
    RewardContext,
    Scheduler,
    compute_reward,
    compute_skip_count,
    epsilon_t,
)

from oracles import FakeRng

ALL = set(DEFAULT_ORDER)
SETTINGS = SolverSettings()
BETA = SETTINGS.beta
LIMITS = portfolio_limits(SETTINGS)


def _bandit(arms=None, epsilon=SETTINGS.epsilon, mode=SETTINGS.bandit_mode,
            alpha=SETTINGS.recency_alpha):
    """A fresh scheduler; ``arms`` replaces its records with stand-ins under one limit."""
    settings = replace(SETTINGS, epsilon=epsilon, bandit_mode=mode, recency_alpha=alpha)
    sched = Scheduler(settings, np.random.default_rng(0))
    if arms is not None:
        sched.arms = {h: ArmRecord(LIMITS["rens"], 1.0 / len(arms)) for h in arms}
    return sched


def _draw(sched, cands, rng):
    """One bandit draw of ``sched`` over ``cands`` with the given generator."""
    sched.rng = rng
    return sched.draw(cands)


def _set_weights(sched, weights):
    for h, w in weights.items():
        sched.arms[h].weight = w


def _pull(sched, h, reward):
    """Charge one pull of h with the given reward, as ``Scheduler.record`` charges it."""
    Policy.record(sched, h, _outcome(h), None)  # the tally both policies share
    sched.update(h, reward)


def _pulls(sched):
    return {h: arm.pulls for h, arm in sched.arms.items()}


def _sched(rng=None):
    return Scheduler(SolverSettings(), rng if rng is not None else np.random.default_rng(0))


def _outcome(h, found=False, nodes=0, conflicts=0, subinf=False):
    return HeurOutcome(heuristic=h, found_incumbent=found, nodes_used=nodes,
                       conflicts_found=conflicts, sub_mip_infeasible=subinf)


def _ctx(found=False, first=False, obj_old=None, obj_new=None, obj_lp=0.0):
    return RewardContext(is_first_incumbent=first, obj_old=obj_old,
                         obj_new=obj_new, obj_lp=obj_lp)


def _drain_warmstart(sched, found=False):
    order = []
    while sched.warmstart_queue:
        h = sched.select(ALL)
        order.append(h)
        sched.record(h, _outcome(h, found=found), _ctx(found=found, first=found))
    return order


# ---------------------------------------------------------------------------
# skip schedule
# ---------------------------------------------------------------------------

def test_skip_count_examples():
    assert BETA == 0.1
    assert compute_skip_count(0, BETA) == 0
    assert compute_skip_count(10, BETA) == 1  # floor(e) - 1
    assert compute_skip_count(23, BETA) == 8  # floor(e^2.3) - 1


def test_skip_count_matches_formula_fuzz():
    for n_fail in range(0, 200):
        assert compute_skip_count(n_fail, BETA) == int(math.floor(math.exp(BETA * n_fail))) - 1


def test_skip_count_saturates_instead_of_overflowing():
    assert compute_skip_count(1, beta=1e6) == sys.maxsize  # exp(1e6) overflows a float
    assert compute_skip_count(10**5, BETA) == sys.maxsize
    counts = [compute_skip_count(n, beta=0.5) for n in range(200)]
    assert counts == sorted(counts) and counts[-1] == sys.maxsize
    assert counts[87] == int(math.floor(math.exp(43.5))) - 1  # just below the cap
    sched = Scheduler(SolverSettings(beta=1e6), np.random.default_rng(0))
    _drain_warmstart(sched)
    h = sched.select(ALL)
    sched.record(h, _outcome(h), _ctx())
    assert sched.n_fail == 1 and sched.skip_remaining == sys.maxsize
    assert sched.picks(0, ALL) == []


def test_picks_count_down_pending_skips():
    sched = _sched()
    _drain_warmstart(sched)
    sched.skip_remaining = 2
    assert sched.picks(0, ALL) == []
    assert sched.picks(0, ALL) == []
    assert sched.picks(0, ALL) != []


def test_skips_disabled_during_warmstart():
    sched = _sched()
    sched.skip_remaining = 5
    assert sched.warmstart_queue
    assert sched.picks(0, ALL) != []
    assert sched.skip_remaining == 5  # untouched while warmstart is pending


def test_three_failures_yield_no_skip_yet():
    sched = _sched()
    _drain_warmstart(sched)
    for _ in range(3):
        [h] = sched.picks(0, ALL)
        sched.record(h, _outcome(h), _ctx())
    assert sched.n_fail == 3
    assert sched.skip_remaining == 0  # floor(e^0.3) - 1


def test_skipped_invocations_match_skip_count_exactly():
    sched = _sched()
    _drain_warmstart(sched)
    skipped_since_exec = 0
    expected_next = 0
    for _ in range(600):
        picked = sched.picks(0, ALL)
        if not picked:
            skipped_since_exec += 1
            continue
        assert skipped_since_exec == expected_next
        [h] = picked
        sched.record(h, _outcome(h), _ctx())  # always fail
        expected_next = compute_skip_count(sched.n_fail, BETA)
        skipped_since_exec = 0


def test_success_resets_fail_streak():
    sched = _sched()
    _drain_warmstart(sched)
    for _ in range(30):
        for h in sched.picks(0, ALL):
            sched.record(h, _outcome(h), _ctx())
    assert sched.n_fail > 0
    picked = []
    while not picked:
        picked = sched.picks(0, ALL)
    [h] = picked
    sched.record(h, _outcome(h, found=True), _ctx(found=True, first=True))
    assert sched.n_fail == 0


# ---------------------------------------------------------------------------
# warmstart and selection
# ---------------------------------------------------------------------------

def test_warmstart_follows_default_order():
    sched = _sched(rng=np.random.default_rng(123))
    assert _drain_warmstart(sched, found=True) == list(DEFAULT_ORDER)


def test_seventh_selection_enters_bandit_phase():
    sched = _sched(rng=np.random.default_rng(123))
    _drain_warmstart(sched, found=True)
    assert not sched.warmstart_queue
    seventh = sched.select(ALL)
    assert seventh in DEFAULT_ORDER
    assert not sched._warm_call
    assert sched.t == 6  # six charged warmstart pulls behind us


def test_warmstart_defers_inapplicable_heuristics():
    sched = _sched()
    no_inc = {"rens", "frac_dive", "coef_dive", "rand_dive"}
    seen = [sched.select(no_inc) for _ in range(4)]
    for h in seen:
        sched.record(h, _outcome(h), _ctx())
    assert seen == ["rens", "frac_dive", "coef_dive", "rand_dive"]
    assert list(sched.warmstart_queue) == ["rins", "mutation"]
    h = sched.select(ALL)  # incumbent appeared: queued entries fire first
    assert h == "rins"
    sched.record(h, _outcome(h), _ctx())
    assert sched.select(ALL) == "mutation"


def test_stalled_warmstart_falls_back_to_seen_arms():
    sched = _sched()
    no_inc = {"rens", "frac_dive", "coef_dive", "rand_dive"}
    for _ in range(4):
        h = sched.select(no_inc)
        sched.record(h, _outcome(h), _ctx())
    h = sched.select(no_inc)  # queue holds only rins/mutation, both inapplicable
    assert h in no_inc
    assert list(sched.warmstart_queue) == ["rins", "mutation"]  # queue untouched


def test_epsilon_t_formula_and_decay():
    assert epsilon_t(0.7, 6, 6) == pytest.approx(0.7)
    prev = None
    for t in range(6, 600):
        e = epsilon_t(0.7, 6, t)
        assert e <= 0.7 + 1e-12
        if prev is not None:
            assert e < prev
        prev = e


def test_exploit_branch_takes_argmax():
    bandit = _bandit()
    bandit.t = 5  # next iteration is t = 6 = |H|, so eps_t = 0.7
    _set_weights(bandit, dict(zip(DEFAULT_ORDER, [0.1, 0.9, 0.3, 0.2, 0.0, 0.4])))
    pick = _draw(bandit, ALL, FakeRng(randoms=[0.9]))
    assert pick == "rins"


def test_exploit_tie_breaks_by_default_rank():
    bandit = _bandit()
    bandit.t = 5
    _set_weights(bandit, {h: 0.5 for h in DEFAULT_ORDER})
    pick = _draw(bandit, ALL, FakeRng(randoms=[0.99]))
    assert pick == "rens"


def test_weighted_draw_distribution_scripted():
    arms = ("a", "b", "c")
    bandit = _bandit(arms)
    _set_weights(bandit, {"a": 0.4, "b": 0.1, "c": 0.0})
    # rho below eps forces a draw; second value lands in an arm's weight slice
    assert _draw(bandit, set(arms), FakeRng(randoms=[0.0, 0.79])) == "a"
    assert _draw(bandit, set(arms), FakeRng(randoms=[0.0, 0.81])) == "b"
    assert _draw(bandit, set(arms), FakeRng(randoms=[0.0, 0.999])) == "b"


def test_weighted_draw_distribution_statistical():
    arms = ("a", "b", "c")
    bandit = _bandit(arms, epsilon=100.0)  # always draw from the weight distribution
    _set_weights(bandit, {"a": 0.4, "b": 0.1, "c": 0.0})
    rng = np.random.default_rng(5)
    counts = {h: 0 for h in arms}
    n = 20_000
    for _ in range(n):
        counts[_draw(bandit, set(arms), rng)] += 1
    assert counts["a"] / n == pytest.approx(0.8, abs=0.02)
    assert counts["b"] / n == pytest.approx(0.2, abs=0.02)
    assert counts["c"] == 0


def test_zero_weights_fall_back_to_uniform():
    arms = ("a", "b", "c")
    bandit = _bandit(arms)
    _set_weights(bandit, {h: 0.0 for h in arms})
    pick = _draw(bandit, set(arms), FakeRng(randoms=[0.0], ints=[2]))
    assert pick == "c"


def test_greedy_consistency_with_eps_zero():
    bandit = _bandit(epsilon=0.0)
    bandit.t = 100
    _set_weights(bandit, dict(zip(DEFAULT_ORDER, [0.1, 0.9, 0.3, 0.2, 0.0, 0.4])))
    rng = np.random.default_rng(0)
    picks = {_draw(bandit, ALL, rng) for _ in range(50)}
    assert picks == {"rins"}


def test_scaling_weights_changes_nothing():
    base = _bandit()
    base.t = 10
    _set_weights(base, dict(zip(DEFAULT_ORDER, [0.1, 0.9, 0.3, 0.2, 0.0, 0.4])))
    scaled = _bandit()
    scaled.t = 10
    _set_weights(scaled, {h: 5.0 * arm.weight for h, arm in base.arms.items()})
    seq_a = [_draw(base, ALL, np.random.default_rng(7)) for _ in range(200)]
    # a fresh generator with the same seed replays the identical draw sequence
    seq_b = [_draw(scaled, ALL, np.random.default_rng(7)) for _ in range(200)]
    assert seq_a == seq_b


def test_no_candidate_selects_none():
    bandit = _bandit()
    bandit.rng = FakeRng(randoms=[0.5])
    assert bandit.select(set()) is None  # warmstart pending, no arm pulled yet
    bandit.warmstart_queue.clear()
    assert bandit.select(set()) is None  # the bandit's turn
    assert bandit.picks(0, set()) == []


# ---------------------------------------------------------------------------
# weight maintenance
# ---------------------------------------------------------------------------

def test_first_pull_blends_with_prior():
    # the 1/|H| prior counts as one pseudo-observation so no arm's weight can
    # collapse to zero after a failed first pull
    bandit = _bandit()
    assert bandit.arms["rens"].weight == pytest.approx(1 / 6)
    _pull(bandit, "rens", 0.6)
    assert bandit.arms["rens"].weight == pytest.approx((1 / 6 + 0.6) / 2)


def test_weights_never_collapse_to_zero():
    bandit = _bandit()
    for _ in range(50):
        _pull(bandit, "rens", 0.0)
    assert bandit.arms["rens"].weight > 0


def test_average_weight_tracks_prior_smoothed_mean():
    bandit = _bandit()
    _pull(bandit, "rens", 0.6)
    _pull(bandit, "rens", 0.2)
    assert bandit.arms["rens"].weight == pytest.approx((1 / 6 + 0.8) / 3, abs=1e-12)


def test_average_weight_matches_mean_fuzz():
    rng = np.random.default_rng(3)
    bandit = _bandit()
    rewards = {h: [] for h in DEFAULT_ORDER}
    for _ in range(5000):
        h = DEFAULT_ORDER[int(rng.integers(6))]
        r = float(rng.random())
        rewards[h].append(r)
        _pull(bandit, h, r)
    for h in DEFAULT_ORDER:
        if rewards[h]:
            mean = (1 / 6 + math.fsum(rewards[h])) / (1 + len(rewards[h]))
            assert abs(bandit.arms[h].weight - mean) <= 1e-12
    assert sum(_pulls(bandit).values()) == bandit.t


def test_recency_mode_blends_exponentially():
    bandit = _bandit(("a", "b"), mode="recency", alpha=0.1)
    w0 = bandit.arms["a"].weight
    _pull(bandit, "a", 1.0)
    assert bandit.arms["a"].weight == pytest.approx(0.9 * w0 + 0.1)
    w1 = bandit.arms["a"].weight
    _pull(bandit, "a", 0.0)
    assert bandit.arms["a"].weight == pytest.approx(0.9 * w1)


# ---------------------------------------------------------------------------
# reward function
# ---------------------------------------------------------------------------

def test_reward_first_incumbent_example():
    out = _outcome("frac_dive", found=True, nodes=100)
    bd = compute_reward(out, _ctx(found=True, first=True, obj_lp=0.0), SETTINGS, 0, 400)
    assert bd.r_sol == 1.0 and bd.r_gap == 1.0
    assert bd.r_eff == pytest.approx(0.75)
    assert bd.r_conf == 0.0
    assert bd.r_total == pytest.approx(0.75)


def test_reward_failure_with_max_conflicts():
    out = _outcome("frac_dive", nodes=100, conflicts=3)
    bd = compute_reward(out, _ctx(), SETTINGS, 3, 100)
    assert bd.r_sol == 0.0 and bd.r_gap == 0.0 and bd.r_eff == 0.0
    assert bd.r_conf == 1.0
    assert bd.r_total == pytest.approx(0.2)


def test_reward_gap_ratio():
    out = _outcome("frac_dive", found=True, nodes=100)
    bd = compute_reward(
        out, _ctx(found=True, obj_old=10.0, obj_new=8.0, obj_lp=6.0), SETTINGS, 0, 100
    )
    assert bd.r_gap == pytest.approx(0.5)
    assert bd.r_total == pytest.approx(0.3 + 0.15 + 0.0 + 0.0)


def test_reward_gap_degenerate_denominator():
    out = _outcome("rens", found=True, nodes=0)
    bd = compute_reward(
        out, _ctx(found=True, obj_old=5.0, obj_new=4.0, obj_lp=5.0), SETTINGS, 0,
        LIMITS["rens"].budget,
    )
    assert bd.r_gap == 1.0


def test_first_conflict_rewarded_zero_then_normalized():
    sched = _sched()  # the scheduler keeps v_max across the calls it records

    def charge(conflicts):
        sched.record("frac_dive", _outcome("frac_dive", conflicts=conflicts), _ctx())
        rec = sched.reward_log[-1]
        assert rec["n_max"] == LIMITS["frac_dive"].budget
        return rec

    bd1 = charge(5)
    assert bd1["r_conf"] == 0.0  # v_max counts strictly past calls
    assert sched.v_max == 5
    bd2 = charge(5)
    assert bd2["r_conf"] == 1.0
    bd3 = charge(2)
    assert bd3["r_conf"] == pytest.approx(0.4)


def test_reward_fuzz_stays_in_unit_interval():
    rng = np.random.default_rng(17)
    v_max = 0
    for _ in range(20_000):
        h = DEFAULT_ORDER[int(rng.integers(6))]
        found = bool(rng.random() < 0.3)
        out = _outcome(
            h,
            found=found,
            nodes=int(rng.integers(0, 700)),
            conflicts=int(rng.integers(0, 5)),
            subinf=bool(rng.random() < 0.1),
        )
        if found:
            first = bool(rng.random() < 0.2)
            obj_lp = float(rng.normal())
            obj_old = obj_lp + float(rng.uniform(-1, 5))
            obj_new = obj_old - float(rng.uniform(0, 4))
            ctx = _ctx(found=True, first=first, obj_old=None if first else obj_old,
                       obj_new=None if first else obj_new, obj_lp=obj_lp)
        else:
            ctx = _ctx()
        bd = compute_reward(out, ctx, SETTINGS, v_max, LIMITS[h].budget)
        v_max = max(v_max, out.conflicts_found)  # as Scheduler.record keeps it
        for v in (bd.r_sol, bd.r_gap, bd.r_eff, bd.r_conf, bd.r_total):
            assert -1e-12 <= v <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# end-to-end bandit behavior
# ---------------------------------------------------------------------------

def test_bandit_prefers_better_arm_quickly():
    means = dict(zip(DEFAULT_ORDER, [0.05, 0.1, 0.2, 0.3, 0.4, 0.5]))
    wins = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        bandit = _bandit()
        for h in DEFAULT_ORDER:  # warmstart: one observation per arm
            _pull(bandit, h, float(rng.random() < means[h]))
        for _ in range(10_000 - 6):
            h = _draw(bandit, ALL, rng)
            _pull(bandit, h, float(rng.random() < means[h]))
        pulls = _pulls(bandit)
        if max(pulls, key=pulls.get) == "rand_dive":
            wins += 1
    assert wins >= 4


def test_scheduler_records_log_entries():
    sched = _sched()
    _drain_warmstart(sched)
    assert len(sched.reward_log) == 6
    entry = sched.reward_log[0]
    assert entry["h"] == "rens" and entry["warmstart"]
    assert entry["t"] == 1
    assert 0.0 <= entry["r_total"] <= 1.0
