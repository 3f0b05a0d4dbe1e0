"""LP-based branch and bound with a pluggable primal heuristic layer.

Node selection is best-bound with depth-first plunging.  At every node the
solver re-optimizes the relaxation from its parent's optimal basis (the
simplex's dual warm start), prunes by bound or infeasibility, harvests
integral LP solutions, then runs the cheap rounding heuristic followed by the
controlled portfolio.  The tree holds one heuristic policy: the online
``Scheduler`` or the static depth-modulo ``StaticSchedule`` (the ``default``
baseline).  Both run their picks through ``run_scheduled_heuristics``, which
executes, records and returns each call for the tree to charge; only
scheduler calls carry a reward, and only the scheduler adapts its limits.
Conflicts reported by the heuristics are counted and, when they describe a
pure binary partial assignment proven infeasible, stored as no-good cuts that
all later node LPs (and LNS sub-MIPs) include.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Optional

import numpy as np

from .model import DEFAULT_FEAS_TOL, DEFAULT_INT_TOL, Assignment, MipModel, evaluate_solution
from .simplex import (
    DEFAULT_ITER_LIMIT,
    BoundState,
    INF,
    LpResult,
    LpStatus,
    SimplexContext,
)
from . import heuristics as heur
from .heuristics import DEFAULT_ORDER, HeurEnv, PORTFOLIO, SPEC_BY_ID
from .scheduler import Scheduler, StaticSchedule, run_scheduled_heuristics


class NoFractionalVariable(Exception):
    """Branching was asked for on an integral LP solution."""


class InvalidSettings(ValueError):
    """A ``SolverSettings`` field holds a value the solver cannot run with."""


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NODE_LIMIT = "node_limit"
    TIME_LIMIT = "time_limit"
    ITER_LIMIT = "iter_limit"  # a node LP ran out of simplex iterations


@dataclass
class SolverSettings:
    """All knobs of one solve; scheduler constants default to the usual values."""

    mode: str = "scheduler"  # or "default"
    seed: int = 0
    node_limit: Optional[int] = None
    time_limit_s: Optional[float] = 60.0  # desk-scale default; None disables
    int_tol: float = DEFAULT_INT_TOL
    feas_tol: float = DEFAULT_FEAS_TOL
    # bandit
    epsilon: float = 0.7
    bandit_mode: str = "average"  # or "recency"
    recency_alpha: float = 0.05
    beta: float = 0.1
    lambda_sol: float = 0.3
    lambda_gap: float = 0.3
    lambda_eff: float = 0.2
    lambda_conf: float = 0.2
    # LNS working limits
    f_init: float = 0.9
    f_min: float = 0.3
    f_max: float = 0.9
    gamma: float = 0.1
    lns_node_budget: int = 500
    # diving working limits
    q_init: float = 0.05
    q_min: float = 0.05
    q_max: float = 0.3
    eta: float = 0.1
    dive_max_depth: int = 100
    # static baseline schedule
    default_freq: int = 10
    default_offset: int = 1
    # tree search
    plunge_depth: int = 8
    lp_iter_limit: int = DEFAULT_ITER_LIMIT
    shadow_lp_check: bool = False

    def __post_init__(self):
        for f in fields(self):  # a NaN or infinite float fails deep in the solve otherwise
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidSettings(f"{f.name} must be finite, got {value!r}")
        if self.mode not in ("scheduler", "default"):
            raise InvalidSettings(f"mode must be 'scheduler' or 'default', got {self.mode!r}")
        if self.bandit_mode not in ("average", "recency"):
            raise InvalidSettings(
                f"bandit_mode must be 'average' or 'recency', got {self.bandit_mode!r}")
        # every value is within 0.5 of an integer: from there on any LP point counts as integral
        if not 0 <= self.int_tol < 0.5:
            raise InvalidSettings(f"int_tol must be in [0, 0.5), got {self.int_tol!r}")
        if not self.feas_tol >= 0:  # below 0 no row activity, and so no solution, passes
            raise InvalidSettings(f"feas_tol must be >= 0, got {self.feas_tol!r}")
        if not self.epsilon >= 0:
            raise InvalidSettings(f"epsilon must be >= 0, got {self.epsilon!r}")
        if not self.f_init >= 0:
            raise InvalidSettings(f"f_init must be >= 0, got {self.f_init!r}")
        if not self.f_min <= self.f_max:
            raise InvalidSettings(f"f_min {self.f_min!r} exceeds f_max {self.f_max!r}")
        if not self.q_min <= self.q_max:
            raise InvalidSettings(f"q_min {self.q_min!r} exceeds q_max {self.q_max!r}")
        # q sets the dive's forced re-solve period 1/q, and a failed dive shrinks it
        # toward q_min; the budgets scale rewards
        if not self.q_init > 0:
            raise InvalidSettings(f"q_init must be > 0, got {self.q_init!r}")
        if not self.q_min > 0:
            raise InvalidSettings(f"q_min must be > 0, got {self.q_min!r}")
        if self.lns_node_budget < 1:
            raise InvalidSettings(
                f"lns_node_budget must be >= 1, got {self.lns_node_budget!r}")
        if self.dive_max_depth < 1:
            raise InvalidSettings(f"dive_max_depth must be >= 1, got {self.dive_max_depth!r}")
        if self.default_freq < 1:
            raise InvalidSettings(f"default_freq must be >= 1, got {self.default_freq!r}")


@dataclass
class Node:
    id: int
    depth: int
    bounds: BoundState
    parent_dualbound: float
    basis: Optional[tuple] = None  # the parent's optimal LP basis, the warm start


@dataclass
class ConflictPool:
    count_by_heuristic: dict = field(default_factory=dict)
    nogood_cuts: list = field(default_factory=list)  # (cols, vals, sense, rhs)


def add_conflict(pool: ConflictPool, model: MipModel, h: str, fixing: dict,
                 cut_ok: bool = True) -> bool:
    """Count a proven-infeasible partial fixing; store a no-good if it is all-binary.

    The stored cut sum(x_j, j fixed to 0) + sum(1 - x_j, j fixed to 1) >= 1
    excludes exactly the assignments extending the fixing.  Returns True when
    a cut was stored.
    """
    if not fixing:
        return False
    pool.count_by_heuristic[h] = pool.count_by_heuristic.get(h, 0) + 1
    if not cut_ok:
        return False
    if not all(model.is_binary(j) for j in fixing):
        return False
    cols = np.array(sorted(fixing), dtype=np.int64)
    vals = np.array([-1.0 if fixing[int(j)] > 0.5 else 1.0 for j in cols])
    ones = int(sum(1 for j in cols if fixing[int(j)] > 0.5))
    pool.nogood_cuts.append((cols, vals, "G", 1.0 - ones))
    return True


@dataclass
class HeurStat:
    pulls: int = 0
    successes: int = 0
    reward_sum: Optional[float] = None  # None until a scheduler reward is charged
    final_limit: Optional[float] = None

    @property
    def mean_reward(self) -> Optional[float]:
        return self.reward_sum / self.pulls if self.reward_sum is not None else None


@dataclass
class RunStats:
    instance: str = ""
    seed: int = 0
    mode: str = ""
    status: str = ""
    time_s: float = 0.0
    nodes: int = 0
    objective: Optional[float] = None
    incumbents_found_by_heuristics: int = 0
    heuristic_calls: int = 0
    heuristic_successes: int = 0
    heurtime_s: float = 0.0
    per_heuristic: dict = field(default_factory=dict)
    # largest violation of any row by any optimal LP, over the row's size, sub-MIPs included
    max_row_residual: float = 0.0


@dataclass
class SolveResult:
    status: SolveStatus
    incumbent: Optional[Assignment]
    dual_bound: float
    nodes_processed: int
    stats: RunStats
    scheduler_log: list = field(default_factory=list)
    conflict_pool: Optional[ConflictPool] = None
    cutoff_pruned: bool = False
    incumbent_log: list = field(default_factory=list)  # (source, objective)

    @property
    def objective(self) -> Optional[float]:
        return self.incumbent.objective if self.incumbent is not None else None


def select_branch_variable(lp: LpResult, model: MipModel, int_tol: float) -> int:
    """Most fractional integer variable, ties broken by lowest index.

    Fractionalities within 1e-9 count as tied so that values like 0.3 and 0.7
    compare equal despite binary representation dust.
    """
    ints = model.integers
    v = lp.x[ints]
    fracs = np.minimum(v - np.floor(v), np.ceil(v) - v)
    best_j, best_frac = -1, int_tol
    # only a fractionality above int_tol + 1e-9 can ever replace the running best
    for k in np.flatnonzero(fracs > int_tol + 1e-9):
        if fracs[k] > best_frac + 1e-9:
            best_j, best_frac = int(ints[k]), fracs[k]
    if best_j < 0:
        raise NoFractionalVariable("LP solution is integral on all integer variables")
    return best_j


class TreeSearch:
    """Mutable state of one branch-and-bound run."""

    def __init__(self, model: MipModel, settings: SolverSettings, *,
                 root_bounds: Optional[BoundState] = None,
                 cutoff: Optional[float] = None,
                 extra_cuts=(),
                 heur_layer: str = "auto",
                 deadline: Optional[float] = None):
        self.model = model
        self.settings = settings
        self.root_bounds = (root_bounds if root_bounds is not None
                            else BoundState.from_model(model))
        self.inherited_cutoff = cutoff if cutoff is not None else INF
        self.heur_layer = heur_layer  # "auto" or "rounding_only"
        self.ctx = SimplexContext(model, cuts=extra_cuts,
                                  shadow_check=settings.shadow_lp_check)
        self.pool = ConflictPool()
        self.locks = heur.variable_locks(model)
        self.incumbent: Optional[Assignment] = None
        self.incumbent_log = []
        self.nodes_processed = 0
        self.next_id = 0
        self.heap = []  # (parent_dualbound, id, Node)
        self.pending: Optional[Node] = None
        self.plunge_streak = 0
        self.bound_prunes_blind = 0  # bound prunes before any own incumbent
        self.deadline = deadline
        if settings.time_limit_s is not None:
            own = time.perf_counter() + settings.time_limit_s
            self.deadline = own if deadline is None else min(deadline, own)
        self.stats = RunStats(mode=settings.mode, seed=settings.seed)
        self.stats.per_heuristic = {h: HeurStat() for h in DEFAULT_ORDER}
        self.exec_rngs = {
            s.id: np.random.default_rng(
                np.random.SeedSequence([settings.seed % 2**32, 100 + s.rank])
            )
            for s in PORTFOLIO
        }
        if settings.mode == "scheduler" and heur_layer == "auto":
            self.policy = Scheduler(settings, np.random.default_rng(
                np.random.SeedSequence([settings.seed % 2**32, 7])))
        else:  # and every rounding-only sub-MIP tree, whatever its mode: frozen limits
            self.policy = StaticSchedule(settings)

    # ------------------------------------------------------------------
    # incumbent and cutoff handling
    # ------------------------------------------------------------------

    def effective_cutoff(self) -> float:
        own = self.incumbent.objective if self.incumbent is not None else INF
        return min(own, self.inherited_cutoff)

    def update_incumbent(self, x: Assignment, source: str = "lp") -> bool:
        """Accept x if integral-feasible and strictly improving; tightens the cutoff."""
        ev = evaluate_solution(self.model, x, int_tol=self.settings.int_tol,
                               feas_tol=self.settings.feas_tol)
        if not (ev.feasible and ev.integral):
            return False
        if ev.objective >= self.effective_cutoff() - 1e-9:
            return False
        self.incumbent = x
        self.incumbent_log.append((source, ev.objective))
        if source in SPEC_BY_ID:
            self.stats.incumbents_found_by_heuristics += 1
        return True

    def _note_bound_prune(self):
        if self.incumbent is None and self.inherited_cutoff < INF:
            self.bound_prunes_blind += 1

    def _on_conflict(self, h: str, fixing: dict, cut_ok: bool):
        stored = add_conflict(self.pool, self.model, h, fixing, cut_ok)
        if stored:
            cols, vals, sense, rhs = self.pool.nogood_cuts[-1]
            self.ctx.add_cut_row(cols, vals, sense, rhs)

    def _sub_solve(self, bounds: BoundState, node_limit: int,
                   cutoff: Optional[float]):
        sub_settings = replace(self.settings, node_limit=node_limit, time_limit_s=None)
        res = solve(
            self.model, sub_settings,
            root_bounds=bounds,
            cutoff=cutoff,
            extra_cuts=list(self.pool.nogood_cuts),
            heur_layer="rounding_only",
            deadline=self.deadline,
        )
        self.stats.max_row_residual = max(self.stats.max_row_residual,
                                          res.stats.max_row_residual)
        return res

    def _make_env(self, node: Node) -> HeurEnv:
        return HeurEnv(
            model=self.model,
            lp_ctx=self.ctx,
            node_bounds=node.bounds,
            root_bounds=self.root_bounds,
            locks=self.locks,
            int_tol=self.settings.int_tol,
            feas_tol=self.settings.feas_tol,
            cutoff=self.effective_cutoff,
            incumbent=lambda: self.incumbent,
            accept=lambda sol, src: self.update_incumbent(sol, src),
            conflict=self._on_conflict,
            sub_solve=self._sub_solve,
            lp_iter_limit=self.settings.lp_iter_limit,
            deadline=self.deadline,
        )

    # ------------------------------------------------------------------
    # heuristic layer
    # ------------------------------------------------------------------

    def _run_heuristics(self, node: Node, lp: LpResult):
        heur.run_rounding(
            lp, self.model, locks=self.locks,
            accept=lambda sol, src: self.update_incumbent(sol, src),
            int_tol=self.settings.int_tol, feas_tol=self.settings.feas_tol,
        )
        if self.heur_layer == "rounding_only":
            return
        charged = run_scheduled_heuristics(self.policy, lp, self._make_env(node),
                                           self.exec_rngs, node.depth)
        for h, outcome, reward in charged:
            st = self.stats.per_heuristic[h]
            st.pulls += 1
            if reward is not None:
                st.reward_sum = (st.reward_sum or 0.0) + reward.r_total
            if outcome.found_incumbent:
                st.successes += 1
                self.stats.heuristic_successes += 1
            self.stats.heuristic_calls += 1
            self.stats.heurtime_s += outcome.wall_time_s

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def _push(self, node: Node):
        heapq.heappush(self.heap, (node.parent_dualbound, node.id, node))

    def _next_node(self) -> Optional[Node]:
        if self.pending is not None:
            node = self.pending
            self.pending = None
            return node
        if not self.heap:
            return None
        self.plunge_streak = 0
        return heapq.heappop(self.heap)[2]

    def _open_bound(self) -> float:
        bounds = [key for key, _, _ in self.heap]
        if self.pending is not None:
            bounds.append(self.pending.parent_dualbound)
        return min(bounds) if bounds else INF

    def run(self) -> SolveResult:
        t0 = time.perf_counter()
        settings = self.settings
        root = Node(id=self.next_id, depth=0, bounds=self.root_bounds,
                    parent_dualbound=-INF)
        self.next_id += 1
        self._push(root)
        status = None

        while True:
            if (settings.node_limit is not None
                    and self.nodes_processed >= settings.node_limit
                    and (self.pending is not None or self.heap)):
                status = SolveStatus.NODE_LIMIT
                break
            if self.deadline is not None and time.perf_counter() > self.deadline:
                status = SolveStatus.TIME_LIMIT
                break
            node = self._next_node()
            if node is None:
                break  # tree exhausted
            cut = self.effective_cutoff()
            if node.parent_dualbound >= cut - 1e-9:
                self._note_bound_prune()
                continue
            lp = self.ctx.solve(node.bounds, iter_limit=settings.lp_iter_limit,
                                basis=node.basis)
            self.nodes_processed += 1
            if lp.status is LpStatus.INFEASIBLE:
                continue
            if lp.status is LpStatus.UNBOUNDED:
                raise ValueError("relaxation is unbounded; model is not solvable here")
            if lp.status is LpStatus.ITER_LIMIT:
                # resource exhaustion, never a pruning argument: keep the
                # subtree open so the reported dual bound stays valid
                self._push(node)
                status = SolveStatus.ITER_LIMIT
                break
            if lp.objective >= cut - 1e-9:
                self._note_bound_prune()
                continue
            xi = lp.x[self.model.integers]
            if len(xi) == 0 or np.all(np.abs(xi - np.round(xi)) <= settings.int_tol):
                snapped = lp.x.copy()
                if len(self.model.integers):
                    snapped[self.model.integers] = np.round(xi)
                accepted = self.update_incumbent(
                    Assignment.from_values(self.model, snapped), "lp"
                )
                if not accepted:
                    self._note_bound_prune()
                continue
            self._run_heuristics(node, lp)
            cut = self.effective_cutoff()
            if lp.objective >= cut - 1e-9:
                self._note_bound_prune()
                continue
            j = select_branch_variable(lp, self.model, settings.int_tol)
            v = lp.x[j]
            down = Node(self.next_id, node.depth + 1,
                        node.bounds.tightened(j, hi=math.floor(v)), lp.objective, lp.basis)
            self.next_id += 1
            up = Node(self.next_id, node.depth + 1,
                      node.bounds.tightened(j, lo=math.ceil(v)), lp.objective, lp.basis)
            self.next_id += 1
            prefer, other = (down, up) if v - math.floor(v) <= 0.5 else (up, down)
            if self.plunge_streak < settings.plunge_depth:
                self.pending = prefer
                self._push(other)
                self.plunge_streak += 1
            else:
                self._push(prefer)
                self._push(other)
                self.plunge_streak = 0

        open_bound = self._open_bound()
        if status is None:
            if self.incumbent is not None:
                status = SolveStatus.OPTIMAL
                dual = self.incumbent.objective
            else:
                status = SolveStatus.INFEASIBLE
                dual = INF
        else:
            dual = open_bound
            if self.incumbent is not None:
                dual = min(dual, self.incumbent.objective)

        self.stats.status = status.value
        self.stats.nodes = self.nodes_processed
        self.stats.time_s = time.perf_counter() - t0
        self.stats.max_row_residual = max(self.stats.max_row_residual,
                                          self.ctx.max_row_residual)
        self.stats.objective = (self.incumbent.objective
                                if self.incumbent is not None else None)
        for h, st in self.stats.per_heuristic.items():
            st.final_limit = self.policy.limits[h].value

        return SolveResult(
            status=status,
            incumbent=self.incumbent,
            dual_bound=dual,
            nodes_processed=self.nodes_processed,
            stats=self.stats,
            scheduler_log=list(self.policy.reward_log),
            conflict_pool=self.pool,
            cutoff_pruned=self.bound_prunes_blind > 0,
            incumbent_log=list(self.incumbent_log),
        )


def solve(model: MipModel, settings: SolverSettings, *,
          root_bounds: Optional[BoundState] = None,
          cutoff: Optional[float] = None,
          extra_cuts=(),
          heur_layer: str = "auto",
          deadline: Optional[float] = None) -> SolveResult:
    """Branch-and-bound solve of a model under the given settings.

    ``cutoff`` installs an objective limit (only strictly better solutions are
    accepted); with a cutoff and no improving solution the result status is
    INFEASIBLE, with ``cutoff_pruned`` telling whether the proof relied on the
    cutoff.  ``root_bounds`` restricts the search box (used by LNS sub-MIPs).
    """
    tree = TreeSearch(
        model, settings,
        root_bounds=root_bounds,
        cutoff=cutoff,
        extra_cuts=extra_cuts,
        heur_layer=heur_layer,
        deadline=deadline,
    )
    return tree.run()
