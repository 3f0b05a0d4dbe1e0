"""Heuristic policies (the bandit and the static schedule) and their one call loop.

A policy holds one :class:`ArmRecord` per portfolio heuristic: its working
limit, weight, pulls, successes and reward sum.  It ``picks`` the heuristics
to run at a node and ``record``s each outcome, and both policies tally pulls
and successes in the same step; :func:`run_scheduled_heuristics` executes the
picks of either policy.  The static schedule learns nothing more.  The
:class:`Scheduler` also charges a reward, updates the arm's weight and adapts
its limit, and runs at most one heuristic per invocation.  Its first pass
executes every heuristic once in the default priority order (warmstart);
afterwards a modified epsilon-greedy bandit takes over: with probability
``1 - eps_t`` it exploits the arm with the best average reward, otherwise it
samples an arm proportionally to the weights.  Failed calls grow a skip
counter that suppresses whole invocations, so an unproductive portfolio is
consulted less and less often.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .heuristics import (
    DEFAULT_ORDER,
    HeurOutcome,
    NotApplicable,
    PORTFOLIO,
    SPEC_BY_ID,
    WorkingLimit,
    adapt_limit,
    execute,
    portfolio_limits,
)
from .simplex import LpResult

if TYPE_CHECKING:
    from .bnb import Node, TreeSearch


class NoApplicableHeuristic(Exception):
    """No candidate heuristic can run in the current solver state."""


def epsilon_t(epsilon: float, n_arms: int, t: int) -> float:
    """Exploration probability at iteration t: epsilon * sqrt(|H| / t)."""
    return epsilon * math.sqrt(n_arms / t)


def compute_skip_count(n_fail: int, beta: float) -> int:
    """Number of future invocations to skip after n_fail consecutive failures.

    ``floor(exp(beta * n_fail)) - 1``, saturated at ``sys.maxsize``: the float
    ``exp`` overflows once its argument passes about 709.8.
    """
    x = beta * n_fail
    if x >= math.log(sys.maxsize):
        return sys.maxsize
    return int(math.floor(math.exp(x))) - 1


@dataclass
class RewardBreakdown:
    r_sol: float
    r_gap: float
    r_eff: float
    r_conf: float
    r_total: float


@dataclass
class RewardConfig:
    lam_sol: float
    lam_gap: float
    lam_eff: float
    lam_conf: float
    v_max: int = 0  # running max of conflicts found by any call so far


@dataclass
class RewardContext:
    """Incumbent objectives around one heuristic call (minimize form)."""

    is_first_incumbent: bool
    obj_old: Optional[float]
    obj_new: Optional[float]
    obj_lp: float


def compute_reward(outcome: HeurOutcome, ctx: RewardContext, cfg: RewardConfig,
                   budget: int) -> RewardBreakdown:
    """Four-component reward in [0, 1]; updates cfg.v_max as a side effect.

    ``budget`` is that of the working limit the call ran under: the efficiency
    term pays for the share of it left unused.
    """
    r_sol = 1.0 if outcome.found_incumbent else 0.0
    if not outcome.found_incumbent:
        r_gap = 0.0
    elif ctx.is_first_incumbent:
        r_gap = 1.0
    else:
        improvement = ctx.obj_old - ctx.obj_new
        denom = ctx.obj_old - ctx.obj_lp
        if denom <= 1e-9:
            r_gap = 1.0 if improvement > 0 else 0.0
        else:
            r_gap = min(max(improvement / denom, 0.0), 1.0)
    r_eff = min(max(1.0 - outcome.nodes_used / budget, 0.0), 1.0)
    v = outcome.conflicts_found
    r_conf = 0.0 if cfg.v_max == 0 else min(v / cfg.v_max, 1.0)
    cfg.v_max = max(cfg.v_max, v)
    r_total = (cfg.lam_sol * r_sol + cfg.lam_gap * r_gap
               + cfg.lam_eff * r_eff + cfg.lam_conf * r_conf)
    return RewardBreakdown(r_sol, r_gap, r_eff, r_conf, r_total)


@dataclass
class ArmRecord:
    """One portfolio heuristic under a policy: its working limit, weight and tally."""

    limit: WorkingLimit
    weight: float
    pulls: int = 0
    successes: int = 0
    reward_sum: Optional[float] = None  # None until a reward is charged

    @property
    def mean_reward(self) -> Optional[float]:
        return self.reward_sum / self.pulls if self.reward_sum is not None else None


def bandit_select(sched: Scheduler, candidates, rng) -> str:
    """One epsilon-greedy draw over the candidate arms; does not advance t.

    Ties go to the arm that comes first in the records' order.
    """
    arms = sched.arms
    cands = [h for h in arms if h in candidates]
    if not cands:
        raise NoApplicableHeuristic("no candidate arm")
    eps = epsilon_t(sched.epsilon, len(arms), sched.t + 1)
    rho = float(rng.random())
    if rho > eps:
        return max(cands, key=lambda h: arms[h].weight)
    wsum = sum(arms[h].weight for h in cands)
    if wsum <= 1e-12:
        return cands[int(rng.integers(len(cands)))]
    r = float(rng.random()) * wsum
    acc = 0.0
    for h in cands:
        acc += arms[h].weight
        if r <= acc:
            return h
    return cands[-1]


def bandit_update(sched: Scheduler, h: str, reward: float) -> None:
    """Charge the reward of a pull of arm h, already tallied, and fold it into its weight.

    In average mode the initial 1/|H| weight stays in the running average as
    one pseudo-observation.  A plain replace-on-first-pull would pin an arm
    whose first reward is 0 at weight 0, and the weight-proportional
    exploration could then never select it again; the prior keeps every arm
    reachable while washing out as real observations accumulate.
    """
    sched.t += 1
    arm = sched.arms[h]
    arm.reward_sum = (arm.reward_sum or 0.0) + reward
    if sched.mode == "average":
        arm.weight = (sched.prior + arm.reward_sum) / (1 + arm.pulls)
    else:
        arm.weight = (1.0 - sched.alpha) * arm.weight + sched.alpha * reward


class Policy:
    """What both policies share: one ``ArmRecord`` per portfolio heuristic."""

    def __init__(self, settings):
        limits = portfolio_limits(settings)
        self.prior = 1.0 / len(limits)
        self.arms = {h: ArmRecord(limit, self.prior) for h, limit in limits.items()}
        self.reward_log = []  # one entry per call that computed a reward

    def record(self, h: str, outcome: HeurOutcome, ctx: RewardContext) -> None:
        """Tally one executed call of h; the base policy learns nothing from it."""
        arm = self.arms[h]
        arm.pulls += 1
        arm.successes += int(outcome.found_incumbent)


class StaticSchedule(Policy):
    """The ``default`` baseline: heuristic k runs at depths congruent to k * offset.

    Its limits and weights keep their initial values.
    """

    def __init__(self, settings):
        super().__init__(settings)
        self.freq = settings.default_freq
        self.offset = settings.default_offset

    def picks(self, depth: int, applicable) -> list:
        """Every heuristic whose depth slot this is, in the default order.

        ``applicable`` is not consulted: an earlier pick at the same node may
        install the incumbent a later one needs, so ``run_lns`` checks each.
        """
        return [h for k, h in enumerate(DEFAULT_ORDER, start=1)
                if depth % self.freq == (k * self.offset) % self.freq]


class Scheduler(Policy):
    """Mutable scheduler state owned by a single solve, configured by ``SolverSettings``."""

    def __init__(self, settings, rng: np.random.Generator):
        super().__init__(settings)
        self.epsilon = settings.epsilon
        self.mode = settings.bandit_mode  # "average" or "recency"
        self.alpha = settings.recency_alpha
        self.t = 0  # charged pulls so far
        self.cfg = RewardConfig(
            lam_sol=settings.lambda_sol, lam_gap=settings.lambda_gap,
            lam_eff=settings.lambda_eff, lam_conf=settings.lambda_conf,
        )
        self.beta = settings.beta
        self.n_fail = 0
        self.skip_remaining = 0
        self.warmstart_queue = deque(DEFAULT_ORDER)
        self.rng = rng
        self._warm_call = False

    def should_run(self) -> bool:
        """Skip-window gate; skips are disabled while warmstart is pending."""
        if self.warmstart_queue:
            return True
        if self.skip_remaining > 0:
            self.skip_remaining -= 1
            return False
        return True

    def select(self, applicable) -> str:
        """Next heuristic: warmstart queue first, then the bandit."""
        self._warm_call = False
        queue = self.warmstart_queue
        if queue:
            for _ in range(len(queue)):
                h = queue[0]
                if h in applicable:
                    queue.popleft()
                    self._warm_call = True
                    return h
                queue.rotate(-1)  # defer inapplicable entries to the end
            cands = {h for h in applicable if self.arms[h].pulls > 0}
        else:
            cands = set(applicable)
        if not cands:
            raise NoApplicableHeuristic("no applicable heuristic")
        return bandit_select(self, cands, self.rng)

    def picks(self, depth: int, applicable) -> list:
        """At most one heuristic; none inside a skip window or with no candidate."""
        if not self.should_run():
            return []
        try:
            return [self.select(applicable)]
        except NoApplicableHeuristic:
            return []

    def record(self, h: str, outcome: HeurOutcome, ctx: RewardContext) -> None:
        """Tally the call, then learn from it: reward, weight, working limit, fail streak."""
        super().record(h, outcome, ctx)
        arm = self.arms[h]
        before = arm.limit
        v_max_before = self.cfg.v_max
        breakdown = compute_reward(outcome, ctx, self.cfg, before.budget)
        bandit_update(self, h, breakdown.r_total)
        after = arm.limit = adapt_limit(before, outcome)
        if not self._warm_call:  # frozen during warmstart
            if outcome.found_incumbent:
                self.n_fail = 0
            else:
                self.n_fail += 1
                self.skip_remaining = compute_skip_count(self.n_fail, self.beta)
        self.reward_log.append({
            "t": self.t,
            "h": h,
            "klass": SPEC_BY_ID[h].klass,
            "warmstart": self._warm_call,
            **asdict(breakdown),
            "found_incumbent": outcome.found_incumbent,
            "sub_mip_infeasible": outcome.sub_mip_infeasible,
            "nodes_used": outcome.nodes_used,
            "conflicts_found": outcome.conflicts_found,
            "fixed_count": outcome.fixed_count,
            **asdict(ctx),
            "v_max_before": v_max_before,
            "n_max": before.budget,
            "limit_before": before.value,
            "limit_after": after.value,
            "n_fail": self.n_fail,
            "skip_remaining": self.skip_remaining,
        })


def run_scheduled_heuristics(tree: TreeSearch, node: Node, lp: LpResult) -> list:
    """Run the tree's policy's picks at a node; the one path of both modes.

    A pick that raises ``NotApplicable`` (such as an LNS kind that needs an
    incumbent while there is none) is skipped and not recorded.  Every
    executed heuristic is recorded by the policy; returns their outcomes.
    """
    policy = tree.policy
    applicable = {s.id for s in PORTFOLIO
                  if not s.requires_incumbent or tree.incumbent is not None}
    outcomes = []
    for h in policy.picks(node.depth, applicable):
        inc_before = tree.incumbent
        try:
            outcome = execute(h, lp, tree, node.bounds, policy.arms[h].limit, tree.exec_rngs[h])
        except NotApplicable:
            continue
        found = outcome.found_incumbent  # then the call installed the incumbent
        obj_old = inc_before.objective if inc_before is not None else None
        ctx = RewardContext(is_first_incumbent=found and obj_old is None, obj_old=obj_old,
                            obj_new=tree.incumbent.objective if found else None,
                            obj_lp=lp.objective)
        policy.record(h, outcome, ctx)
        outcomes.append(outcome)
    return outcomes
