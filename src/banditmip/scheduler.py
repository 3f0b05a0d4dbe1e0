"""Heuristic policies (the bandit and the static schedule) and their one call loop.

A policy holds its ``settings`` and one :class:`ArmRecord` per portfolio
heuristic: its working limit, weight, pulls, successes and reward sum.  It
``picks`` the heuristics to run at a node and ``record``s each outcome, and
both policies tally pulls and successes in the same step;
:func:`run_scheduled_heuristics` is the one call loop of either policy: it
alone decides whether a pick runs (one that needs an incumbent waits for one),
and it times each call.  The static schedule learns nothing more.  The
:class:`Scheduler` is the one object that holds the bandit: it runs at most
one heuristic per invocation, and its ``record`` charges the pure
:func:`compute_reward` against the running ``v_max``, folds it into the arm's
weight (``update``), adapts the arm's limit and grows or resets the fail
streak.  Its first pass executes every heuristic once in the default priority
order (warmstart); afterwards its ``draw``, a modified epsilon-greedy bandit,
takes over: with probability ``1 - eps_t`` it exploits the arm with the best
average reward, otherwise it samples an arm proportionally to the weights.
Its step count ``t`` is the sum of the arms' pulls, and a warmstart call is an
arm's first pull (a draw while warmstart waits takes only arms already pulled).
Failed calls grow a skip counter that suppresses whole invocations, so an
unproductive portfolio is consulted less and less often.
"""

from __future__ import annotations

import math
import sys
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .heuristics import (
    DEFAULT_ORDER,
    HeurOutcome,
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
class RewardContext:
    """Incumbent objectives around one heuristic call (minimize form)."""

    is_first_incumbent: bool
    obj_old: Optional[float]
    obj_new: Optional[float]
    obj_lp: float


def compute_reward(outcome: HeurOutcome, ctx: RewardContext, settings, v_max: int,
                   budget: int) -> RewardBreakdown:
    """Four-component reward in [0, 1], weighted by the settings' ``lambda_*``.

    ``v_max`` is the most conflicts any earlier call found: the conflict term
    pays for the share of it this call found.  ``budget`` is that of the
    working limit the call ran under: the efficiency term pays for the share
    of it left unused.
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
    r_conf = 0.0 if v_max == 0 else min(v / v_max, 1.0)
    r_total = (settings.lambda_sol * r_sol + settings.lambda_gap * r_gap
               + settings.lambda_eff * r_eff + settings.lambda_conf * r_conf)
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


class Policy:
    """What both policies share: their settings and one ``ArmRecord`` per portfolio heuristic."""

    def __init__(self, settings):
        self.settings = settings
        limits = portfolio_limits(settings)
        self.arms = {h: ArmRecord(limit, 1.0 / len(limits)) for h, limit in limits.items()}
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

    def picks(self, depth: int, applicable) -> list:
        """Every heuristic whose depth slot this is, in the default order.

        ``applicable`` is not consulted: an earlier pick at the same node may
        install the incumbent a later one needs, so the call loop checks each
        pick as it comes up.
        """
        freq, offset = self.settings.default_freq, self.settings.default_offset
        return [h for k, h in enumerate(DEFAULT_ORDER, start=1)
                if depth % freq == (k * offset) % freq]


class Scheduler(Policy):
    """The bandit of a single solve: its arms, draw, update, reward state and skip window."""

    def __init__(self, settings, rng: np.random.Generator):
        super().__init__(settings)
        self.rng = rng
        self.v_max = 0  # the most conflicts any call has found so far
        self.n_fail = 0
        self.skip_remaining = 0
        self.warmstart_queue = deque(DEFAULT_ORDER)

    def draw(self, cands) -> str:
        """One epsilon-greedy draw over the candidate arms at step t = pulls so far + 1.

        Ties go to the arm that comes first in the records' order.
        """
        arms = self.arms
        cands = [h for h in arms if h in cands]
        eps = epsilon_t(self.settings.epsilon, len(arms), sum(a.pulls for a in arms.values()) + 1)
        rho = float(self.rng.random())
        if rho > eps:
            return max(cands, key=lambda h: arms[h].weight)
        wsum = sum(arms[h].weight for h in cands)
        if wsum <= 1e-12:
            return cands[int(self.rng.integers(len(cands)))]
        r = float(self.rng.random()) * wsum
        acc = 0.0
        for h in cands:
            acc += arms[h].weight
            if r <= acc:
                return h
        return cands[-1]

    def update(self, h: str, reward: float) -> None:
        """Charge the reward of a pull of arm h, already tallied, and fold it into its weight.

        In average mode the initial 1/|H| weight stays in the running average as
        one pseudo-observation.  A plain replace-on-first-pull would pin an arm
        whose first reward is 0 at weight 0, and the weight-proportional
        exploration could then never select it again; the prior keeps every arm
        reachable while washing out as real observations accumulate.
        """
        arm = self.arms[h]
        arm.reward_sum = (arm.reward_sum or 0.0) + reward
        if self.settings.bandit_mode == "average":
            arm.weight = (1.0 / len(self.arms) + arm.reward_sum) / (1 + arm.pulls)
        else:
            alpha = self.settings.recency_alpha
            arm.weight = (1.0 - alpha) * arm.weight + alpha * reward

    def select(self, applicable) -> Optional[str]:
        """Next heuristic: warmstart queue first, then the bandit; None with no candidate."""
        queue = self.warmstart_queue
        if queue:
            for _ in range(len(queue)):
                h = queue[0]
                if h in applicable:
                    queue.popleft()
                    return h
                queue.rotate(-1)  # defer inapplicable entries to the end
            cands = {h for h in applicable if self.arms[h].pulls > 0}
        else:
            cands = applicable
        return self.draw(cands) if cands else None

    def picks(self, depth: int, applicable) -> list:
        """At most one heuristic; none inside a skip window or with no candidate.

        A pending skip is spent here, once per invocation; skips wait while
        warmstart is pending.
        """
        if not self.warmstart_queue and self.skip_remaining > 0:
            self.skip_remaining -= 1
            return []
        h = self.select(applicable)
        return [] if h is None else [h]

    def record(self, h: str, outcome: HeurOutcome, ctx: RewardContext) -> None:
        """Tally the call, then learn from it: reward, weight, working limit, fail streak."""
        super().record(h, outcome, ctx)
        arm = self.arms[h]
        warm = arm.pulls == 1  # an arm's first pull is its warmstart call
        before = arm.limit
        v_max_before = self.v_max
        breakdown = compute_reward(outcome, ctx, self.settings, v_max_before, before.budget)
        self.v_max = max(v_max_before, outcome.conflicts_found)
        self.update(h, breakdown.r_total)
        after = arm.limit = adapt_limit(before, outcome)
        if not warm:  # frozen during warmstart
            if outcome.found_incumbent:
                self.n_fail = 0
            else:
                self.n_fail += 1
                self.skip_remaining = compute_skip_count(self.n_fail, self.settings.beta)
        self.reward_log.append({
            "t": sum(a.pulls for a in self.arms.values()),
            "h": h,
            "klass": SPEC_BY_ID[h].klass,
            "warmstart": warm,
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


def run_scheduled_heuristics(tree: TreeSearch, node: Node, lp: LpResult) -> None:
    """Run the tree's policy's picks at a node; the one path of both modes.

    A pick that needs an incumbent while the tree has none (only the static
    schedule makes one) is skipped untouched: it runs nothing and the policy
    records nothing.  Each executed pick is timed into ``tree.stats.heurtime_s``
    and recorded by the policy.
    """
    policy = tree.policy
    applicable = {s.id for s in PORTFOLIO
                  if not s.requires_incumbent or tree.incumbent is not None}
    for h in policy.picks(node.depth, applicable):
        inc_before = tree.incumbent
        if SPEC_BY_ID[h].requires_incumbent and inc_before is None:
            continue
        t0 = time.perf_counter()
        outcome = execute(h, lp, tree, node.bounds, policy.arms[h].limit, tree.exec_rng(h))
        tree.stats.heurtime_s += time.perf_counter() - t0
        found = outcome.found_incumbent  # then the call installed the incumbent
        obj_old = inc_before.objective if inc_before is not None else None
        ctx = RewardContext(is_first_incumbent=found and obj_old is None, obj_old=obj_old,
                            obj_new=tree.incumbent.objective if found else None,
                            obj_lp=lp.objective)
        policy.record(h, outcome, ctx)
