"""Heuristic policies (the bandit and the static schedule) and their one call loop.

A policy holds the portfolio's working ``limits``, ``picks`` the heuristics
to run at a node and ``record``s each outcome; :func:`run_scheduled_heuristics`
executes the picks of either policy.  The :class:`Scheduler` runs at most one
heuristic per invocation.  Its first pass executes every heuristic once in the
default priority order (warmstart); afterwards a modified epsilon-greedy
bandit takes over: with probability ``1 - eps_t`` it exploits the arm with the
best average reward, otherwise it samples an arm proportionally to the
weights.  Failed calls grow a skip counter that suppresses whole invocations,
so an unproductive portfolio is consulted less and less often.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .heuristics import (
    DEFAULT_ORDER,
    HeurOutcome,
    NotApplicable,
    PORTFOLIO,
    SPEC_BY_ID,
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
class BanditState:
    """Weights and pull counts of the modified epsilon-greedy bandit."""

    arms: tuple
    rank: dict
    epsilon: float
    mode: str  # "average" or "recency"
    alpha: float
    prior: float = 0.0
    weights: dict = field(default_factory=dict)
    sums: dict = field(default_factory=dict)
    pull_counts: dict = field(default_factory=dict)
    t: int = 0

    @classmethod
    def create(cls, arms, epsilon: float, mode: str, alpha: float) -> "BanditState":
        arms = tuple(arms)
        prior = 1.0 / len(arms)
        return cls(
            arms=arms,
            rank={h: i for i, h in enumerate(arms)},
            epsilon=epsilon,
            mode=mode,
            alpha=alpha,
            prior=prior,
            weights={h: prior for h in arms},
            sums={h: 0.0 for h in arms},
            pull_counts={h: 0 for h in arms},
        )


def bandit_select(bandit: BanditState, candidates, rng) -> str:
    """One epsilon-greedy draw over the candidate arms; does not advance t."""
    cands = [h for h in bandit.arms if h in candidates]
    if not cands:
        raise NoApplicableHeuristic("no candidate arm")
    eps = epsilon_t(bandit.epsilon, len(bandit.arms), bandit.t + 1)
    rho = float(rng.random())
    if rho > eps:
        return max(cands, key=lambda h: (bandit.weights[h], -bandit.rank[h]))
    wsum = sum(bandit.weights[h] for h in cands)
    if wsum <= 1e-12:
        return cands[int(rng.integers(len(cands)))]
    r = float(rng.random()) * wsum
    acc = 0.0
    for h in cands:
        acc += bandit.weights[h]
        if r <= acc:
            return h
    return cands[-1]


def bandit_update(bandit: BanditState, h: str, reward: float) -> None:
    """Charge one pull of arm h and fold the reward into its weight.

    In average mode the initial 1/|H| weight stays in the running average as
    one pseudo-observation.  A plain replace-on-first-pull would pin an arm
    whose first reward is 0 at weight 0, and the weight-proportional
    exploration could then never select it again; the prior keeps every arm
    reachable while washing out as real observations accumulate.
    """
    bandit.t += 1
    bandit.pull_counts[h] += 1
    bandit.sums[h] += reward
    if bandit.mode == "average":
        bandit.weights[h] = ((bandit.prior + bandit.sums[h])
                             / (1 + bandit.pull_counts[h]))
    else:
        bandit.weights[h] = ((1.0 - bandit.alpha) * bandit.weights[h]
                             + bandit.alpha * reward)


class StaticSchedule:
    """The ``default`` baseline: heuristic k runs at depths congruent to k * offset."""

    def __init__(self, settings):
        self.limits = portfolio_limits(settings)  # never adapted
        self.freq = settings.default_freq
        self.offset = settings.default_offset
        self.reward_log = []  # stays empty: the schedule computes no reward

    def picks(self, depth: int, applicable) -> list:
        """Every heuristic whose depth slot this is, in the default order.

        ``applicable`` is not consulted: an earlier pick at the same node may
        install the incumbent a later one needs, so ``run_lns`` checks each.
        """
        return [h for k, h in enumerate(DEFAULT_ORDER, start=1)
                if depth % self.freq == (k * self.offset) % self.freq]

    def record(self, h: str, outcome: HeurOutcome, ctx: RewardContext) -> None:
        """The schedule is fixed: nothing to learn and no reward."""


class Scheduler:
    """Mutable scheduler state owned by a single solve, configured by ``SolverSettings``."""

    def __init__(self, settings, rng: np.random.Generator):
        self.bandit = BanditState.create(DEFAULT_ORDER, settings.epsilon,
                                         settings.bandit_mode, settings.recency_alpha)
        self.cfg = RewardConfig(
            lam_sol=settings.lambda_sol, lam_gap=settings.lambda_gap,
            lam_eff=settings.lambda_eff, lam_conf=settings.lambda_conf,
        )
        self.beta = settings.beta
        self.limits = portfolio_limits(settings)  # record() replaces entries in place
        self.n_fail = 0
        self.skip_remaining = 0
        self.warmstart_queue = deque(DEFAULT_ORDER)
        self.reward_log = []
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
            cands = {h for h in applicable if self.bandit.pull_counts[h] > 0}
        else:
            cands = set(applicable)
        if not cands:
            raise NoApplicableHeuristic("no applicable heuristic")
        return bandit_select(self.bandit, cands, self.rng)

    def picks(self, depth: int, applicable) -> list:
        """At most one heuristic; none inside a skip window or with no candidate."""
        if not self.should_run():
            return []
        try:
            return [self.select(applicable)]
        except NoApplicableHeuristic:
            return []

    def record(self, h: str, outcome: HeurOutcome,
               ctx: RewardContext) -> RewardBreakdown:
        """Observe the outcome: reward, weights, working limits, fail streak."""
        before = self.limits[h]
        v_max_before = self.cfg.v_max
        breakdown = compute_reward(outcome, ctx, self.cfg, before.budget)
        bandit_update(self.bandit, h, breakdown.r_total)
        after = self.limits[h] = adapt_limit(before, outcome)
        if not self._warm_call:  # frozen during warmstart
            if outcome.found_incumbent:
                self.n_fail = 0
            else:
                self.n_fail += 1
                self.skip_remaining = compute_skip_count(self.n_fail, self.beta)
        self.reward_log.append({
            "t": self.bandit.t,
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
        return breakdown


def run_scheduled_heuristics(tree: TreeSearch, node: Node, lp: LpResult) -> list:
    """Run the tree's policy's picks at a node; the one path of both modes.

    A pick that raises ``NotApplicable`` (such as an LNS kind that needs an
    incumbent while there is none) is skipped and not recorded.  Every
    executed heuristic is recorded by the policy; returns its
    ``(h, outcome, reward)`` triples, where the reward is None from a policy
    that computes none.
    """
    policy = tree.policy
    applicable = {s.id for s in PORTFOLIO
                  if not s.requires_incumbent or tree.incumbent is not None}
    charged = []
    for h in policy.picks(node.depth, applicable):
        inc_before = tree.incumbent
        try:
            outcome = execute(h, lp, tree, node.bounds, policy.limits[h], tree.exec_rngs[h])
        except NotApplicable:
            continue
        found = outcome.found_incumbent  # then the call installed the incumbent
        obj_old = inc_before.objective if inc_before is not None else None
        ctx = RewardContext(is_first_incumbent=found and obj_old is None, obj_old=obj_old,
                            obj_new=tree.incumbent.objective if found else None,
                            obj_lp=lp.objective)
        charged.append((h, outcome, policy.record(h, outcome, ctx)))
    return charged
