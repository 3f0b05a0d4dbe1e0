"""LP-based branch and bound with a pluggable primal heuristic layer.

A top-level solve searches ``model.presolve``'s reduced model: integer
singleton rows become bounds and rows the bounds imply are dropped, with
every column kept, so incumbents and no-goods need no translation back.
Node selection is best-bound with depth-first plunging.  At every node the
solver re-optimizes the relaxation from its parent's optimal basis (the
simplex's dual warm start), prunes by bound or infeasibility, harvests
integral LP solutions, then runs the cheap rounding heuristic followed by the
controlled portfolio.  The tree holds one heuristic policy: the online
``Scheduler`` or the static depth-modulo ``StaticSchedule`` (the ``default``
baseline).  Both run their picks through ``run_scheduled_heuristics``: it
skips a pick that needs an incumbent while there is none, times every other
call into ``RunStats.heurtime_s`` and has the policy record it in that
heuristic's ``ArmRecord``.  ``RunStats.per_heuristic`` is the top-level
policy's record dict, and the tree keeps no call bookkeeping of its own.  Only
the scheduler charges a reward, updates weights and adapts limits.
The tree alone decides what a failed search proves.  ``beats_cutoff`` is the
one cutoff test: the incumbent check, the prunes, the dives and reduced-cost
fixing use it.  When the model's ``integral_objective`` holds, every
incumbent (its integer columns integral) is worth an integer and no point is
worth between ``ceil(cutoff) - 1`` and the cutoff, so the test keeps only
objectives below ``ceil(cutoff) - 1 + INTEGRAL_CUTOFF_TOL`` (Achterberg 2007,
ch. 7): a search no longer looks for improvements that cannot exist.  For
the same reason, a solve that stops early reports the least open LP bound
rounded up, ``ceil(bound - INTEGRAL_CUTOFF_TOL)``, as its dual bound.  On
such a model, before branching and after the node's heuristics, the tree
also fixes each nonbasic integer column at the integral bound it sits on when
the LP objective plus its reduced cost's magnitude fails the test (ch. 8),
and both children inherit those bounds.  Any other model keeps the plain
test and fixes nothing, and nothing of this acts before a tree has a
cutoff.  A prune or
fixing that relied on a cutoff inherited from the calling tree marks the
result ``cutoff_pruned``, so an LNS sub-MIP closed by it proves no no-good.
A heuristic hands ``record_conflict`` the bounds it proved infeasible; when
they differ from the root's only by fixed binaries, the no-good cut excluding
that assignment becomes a row of the search's one ``SimplexContext``, which
every later node LP and each LNS sub-MIP (``ctx=``) solves on: its cut rows
are the one no-good store and its counters count each LP once, so a sub-MIP's
result reports the whole search's.  A dive's no-good stays valid below fixed
nodes: it excludes only the box the dive proved LP-infeasible, and fixings
only make that box smaller.
"""

from __future__ import annotations

import heapq
import math
import numbers
import operator
import time
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import NamedTuple, Optional, get_args, get_type_hints

import numpy as np

from .model import (DEFAULT_FEAS_TOL, DEFAULT_INT_TOL, Assignment, MipModel,
                    evaluate_solution, fractionality, presolve, round_half_down,
                    snap_integral)
from .simplex import (
    AT_LOWER,
    AT_UPPER,
    DEFAULT_ITER_LIMIT,
    BoundState,
    INF,
    LpResult,
    LpStatus,
    SimplexContext,
)
from . import heuristics as heur
from .scheduler import Scheduler, StaticSchedule, run_scheduled_heuristics


# On a model whose objective is integral, an objective counts as below the integer
# ceil(cutoff) - 1 up to this margin.  Every candidate reaches update_incumbent
# with its integer columns snapped or rounded to exact integers, so an incumbent's
# objective is an exact sum of integers; an LP bound may sit above the best integer point it covers by
# round-off and the simplex's tolerances (FEAS_TOL 1e-7 on each bound and row),
# far below 1e-6, and the margin is far below the whole unit the test gains.
INTEGRAL_CUTOFF_TOL = 1e-6


class NoFractionalVariable(Exception):
    """Branching was asked for on an integral LP solution."""


class InvalidSettings(ValueError):
    """A ``SolverSettings`` field holds a value the solver cannot run with."""


class InvalidSearch(ValueError):
    """A ``TreeSearch`` keyword holds a value the search cannot run with."""


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NODE_LIMIT = "node_limit"
    TIME_LIMIT = "time_limit"
    ITER_LIMIT = "iter_limit"  # a node LP ran out of simplex iterations


_BOOLS = (bool, np.bool_)
# each setting type: the values that have it, and its name in messages
_KINDS = {bool: (_BOOLS, "a bool"), int: (numbers.Integral, "an integer"),
          float: (numbers.Real, "a number"), str: (str, "a string")}
_BOUNDS = {"ge": (">=", operator.ge), "gt": (">", operator.gt),
           "le": ("<=", operator.le), "lt": ("<", operator.lt)}


class SettingSpec(NamedTuple):
    """What one ``SolverSettings`` field admits, read from its declaration: a finite
    value of ``kind`` (or ``None`` when ``optional``) within ``bounds`` and any ``choices``."""

    kind: type
    optional: bool
    bounds: dict  # "ge", "gt", "le" or "lt" -> the bound
    choices: Optional[tuple]

    def check(self, name: str, value) -> None:
        """Raise ``InvalidSettings`` naming field ``name`` unless ``value`` is admitted."""
        if value is None and self.optional:
            return
        accepted, noun = _KINDS[self.kind]
        # a bool is not a number (True would run as 1), and an np.bool_ is a bool
        if not isinstance(value, accepted) or (self.kind is not bool and isinstance(value, _BOOLS)):
            none = " or None" if self.optional else ""
            raise InvalidSettings(f"{name} must be {noun}{none}, got {value!r}")
        if isinstance(value, (float, np.floating)) and not math.isfinite(value):
            raise InvalidSettings(f"{name} must be finite, got {value!r}")
        if self.choices is not None and value not in self.choices:
            raise InvalidSettings(
                f"{name} must be {' or '.join(map(repr, self.choices))}, got {value!r}")
        if not all(_BOUNDS[op][1](value, bound) for op, bound in self.bounds.items()):
            domain = " and ".join(f"{_BOUNDS[op][0]} {bound}" for op, bound in self.bounds.items())
            raise InvalidSettings(f"{name} must be {domain}, got {value!r}")


def _setting(default, choices: Optional[tuple] = None, **bounds):
    """A ``SolverSettings`` field with its domain: ``choices``, or bounds like ``ge=0, lt=0.5``."""
    return field(default=default, metadata={"bounds": bounds, "choices": choices})


@dataclass(frozen=True)
class SolverSettings:
    """All knobs of one solve; scheduler constants default to the usual values.

    Each field declares its type (``Optional`` admits ``None``), default and domain
    once; ``SETTING_SPECS`` reads them for ``__post_init__`` and the config reader.
    Frozen, so every change goes through ``dataclasses.replace`` and is checked.
    """

    # "default" is the static depth-modulo baseline schedule
    mode: str = _setting("scheduler", choices=("default", "scheduler"))
    seed: int = 0  # any integer: the RNG streams take it mod 2**32
    node_limit: Optional[int] = _setting(None, ge=0)  # None: no node limit
    time_limit_s: Optional[float] = _setting(60.0, ge=0)  # desk-scale default; None disables
    # every value is within 0.5 of an integer: from there on any LP point counts as integral
    int_tol: float = _setting(DEFAULT_INT_TOL, ge=0, lt=0.5)
    feas_tol: float = _setting(DEFAULT_FEAS_TOL, ge=0)  # below 0 no row activity passes
    # bandit; epsilon_t = epsilon * sqrt(|H| / t) is a scale, not a probability
    epsilon: float = _setting(0.7, ge=0)
    bandit_mode: str = _setting("average", choices=("average", "recency"))
    # the recency update mixes old weight and reward; outside [0, 1] weights go negative
    recency_alpha: float = _setting(0.05, ge=0, le=1)
    beta: float = _setting(0.1, ge=0)  # n failures skip floor(exp(beta n)) - 1 calls: -1 below 0
    # the reward is a weighted sum in [0, 1]; a negative weight leaves that range
    lambda_sol: float = _setting(0.3, ge=0)
    lambda_gap: float = _setting(0.3, ge=0)
    lambda_eff: float = _setting(0.2, ge=0)
    lambda_conf: float = _setting(0.2, ge=0)
    # LNS working limits (f_min <= f_init <= f_max); f is the share of the integers a call fixes
    f_init: float = _setting(0.9, ge=0)
    f_min: float = 0.3
    f_max: float = 0.9
    # a call scales f (gamma) or q (eta) by 1 -/+ rate: above 1 a shrink turns it negative
    gamma: float = _setting(0.1, ge=0, le=1)
    lns_node_budget: int = _setting(500, ge=1)  # the reward divides by the budget
    # diving working limits (q_min <= q_init <= q_max); q sets the dive's forced re-solve period
    # 1/q, and a failed dive shrinks it toward q_min
    q_init: float = _setting(0.05, gt=0)
    q_min: float = _setting(0.05, gt=0)
    q_max: float = 0.3
    eta: float = _setting(0.1, ge=0, le=1)
    dive_max_depth: int = _setting(100, ge=1)  # the dive's budget, which the reward divides by
    # static baseline schedule: a pick runs where depth % freq matches its offset
    default_freq: int = _setting(10, ge=1)
    default_offset: int = 1
    # tree search
    plunge_depth: int = 8
    # below one pivot no node LP can be solved: the search would stop at the root
    lp_iter_limit: int = _setting(DEFAULT_ITER_LIMIT, ge=1)
    shadow_lp_check: bool = False  # a bool, so that the string "no" cannot turn it on

    def __post_init__(self):
        for name, spec in SETTING_SPECS.items():
            spec.check(name, getattr(self, name))
        # a working limit starts inside the range it adapts in
        for init, lo, hi in (("f_init", "f_min", "f_max"), ("q_init", "q_min", "q_max")):
            start, low, high = getattr(self, init), getattr(self, lo), getattr(self, hi)
            if not low <= high:
                raise InvalidSettings(f"{lo} {low!r} exceeds {hi} {high!r}")
            if not low <= start <= high:
                raise InvalidSettings(
                    f"{init} must be within [{lo}, {hi}] = [{low!r}, {high!r}], got {start!r}")


def _spec(hint, domain) -> SettingSpec:
    args = get_args(hint)  # Optional[X] is Union[X, None]
    optional = type(None) in args
    kind = next(a for a in args if a is not type(None)) if optional else hint
    return SettingSpec(kind, optional, domain.get("bounds", {}), domain.get("choices"))


# every SolverSettings field's spec, read once from the declarations above
_HINTS = get_type_hints(SolverSettings)
SETTING_SPECS = {f.name: _spec(_HINTS[f.name], f.metadata) for f in fields(SolverSettings)}


@dataclass
class Node:
    id: int
    depth: int
    bounds: BoundState
    parent_dualbound: float
    basis: Optional[tuple] = None  # the parent's optimal LP basis, the warm start


@dataclass
class ConflictPool:
    nogood_cuts: list = field(default_factory=list)  # (cols, vals, sense, rhs)


@dataclass
class RunStats:
    """What a run measured that its ``SolveResult`` and settings do not already say."""

    time_s: float = 0.0  # wall time since ``solve`` was entered: the interval its deadline bounds
    heurtime_s: float = 0.0  # wall time of the executed portfolio calls, timed by the call loop
    per_heuristic: dict = field(default_factory=dict)  # the policy's ArmRecord per heuristic
    # largest violation of any row by any optimal LP of the search, over the row's size
    max_row_residual: float = 0.0
    # the model the search ran on: its row count, and how many bounds presolve changed
    searched_rows: int = 0
    tightened_bounds: int = 0
    reduced_cost_fixings: int = 0  # columns this tree fixed by reduced cost, sub-MIPs aside
    # bases the search's LP context inverted from scratch, and warm starts that reused a
    # cached factor instead; like max_row_residual, a sub-MIP reports the whole search's
    lp_inversions: int = 0
    factor_reuses: int = 0

    @property
    def heuristic_calls(self) -> int:
        return sum(arm.pulls for arm in self.per_heuristic.values())

    @property
    def heuristic_successes(self) -> int:
        """A portfolio call succeeds exactly when the tree accepted its candidate."""
        return sum(arm.successes for arm in self.per_heuristic.values())


@dataclass
class SolveResult:
    status: SolveStatus
    incumbent: Optional[Assignment]
    dual_bound: float
    nodes_processed: int
    stats: RunStats
    scheduler_log: list = field(default_factory=list)
    conflict_pool: ConflictPool = field(default_factory=ConflictPool)
    cutoff_pruned: bool = False
    incumbent_log: list = field(default_factory=list)  # (source, objective)

    @property
    def objective(self) -> Optional[float]:
        return self.incumbent.objective if self.incumbent is not None else None


def select_branch_variable(lp: LpResult, model: MipModel, int_tol: float) -> int:
    """Most fractional integer variable, ties broken by lowest index.

    The candidates are exactly the variables whose ``fractionality`` exceeds
    ``int_tol``, the ones ``snap_integral`` rejects.  Fractionalities within
    1e-9 of the running best count as tied, so that values like 0.3 and 0.7
    compare equal despite binary representation dust.
    """
    fracs = fractionality(lp.x[model.integers])
    best_j, best_frac = -1, -INF
    for k in np.flatnonzero(fracs > int_tol):
        if fracs[k] > best_frac + 1e-9:
            best_j, best_frac = int(model.integers[k]), fracs[k]
    if best_j < 0:
        raise NoFractionalVariable("LP solution is integral on all integer variables")
    return best_j


class TreeSearch:
    """Mutable state of one branch-and-bound run; ``deadline`` (a ``time.perf_counter``
    reading) is its one time input, which ``solve`` sets from ``settings.time_limit_s``."""

    def __init__(self, model: MipModel, settings: SolverSettings, *,
                 root_bounds: Optional[BoundState] = None,
                 cutoff: Optional[float] = None,
                 ctx: Optional[SimplexContext] = None,
                 heur_layer: str = "auto",
                 deadline: Optional[float] = None):
        if heur_layer not in ("auto", "rounding_only"):
            raise InvalidSearch(f"heur_layer must be 'auto' or 'rounding_only', got {heur_layer!r}")
        sides = () if root_bounds is None else (root_bounds.lower, root_bounds.upper)
        if any(np.shape(side) != (model.n,) for side in sides):
            raise InvalidSearch(f"root_bounds must hold {model.n} values a side, "
                                f"got shapes {[np.shape(side) for side in sides]}")
        if cutoff is not None and not cutoff > -INF:  # NaN or -inf
            raise InvalidSearch(f"cutoff must be a number above -inf, got {cutoff!r}")
        if deadline is not None and math.isnan(deadline):
            raise InvalidSearch(f"deadline must be a number or None, got {deadline!r}")
        if ctx is not None and ctx.model is not model:
            raise InvalidSearch("ctx must be an LP context of the model searched")
        self.model = model
        self.settings = settings
        self.root_bounds = (root_bounds if root_bounds is not None
                            else BoundState.from_model(model))
        self.inherited_cutoff = cutoff if cutoff is not None else INF
        self.heur_layer = heur_layer
        self.ctx = ctx if ctx is not None else SimplexContext(
            model, shadow_check=settings.shadow_lp_check)
        self.incumbent: Optional[Assignment] = None
        self.incumbent_log = []
        self.nodes_processed = 0
        self.next_id = 0
        self.heap = []  # (parent_dualbound, id, Node)
        self.pending: Optional[Node] = None
        self.plunge_streak = 0
        self.cutoff_pruned = False  # a prune relied on the inherited cutoff
        self.deadline = deadline
        self.stats = RunStats()
        self.exec_rngs = {}  # each heuristic's own generator, made on first use
        if settings.mode == "scheduler" and heur_layer == "auto":
            self.policy = Scheduler(settings, np.random.default_rng(
                np.random.SeedSequence([settings.seed % 2**32, 7])))
        else:  # and every rounding-only sub-MIP tree, whatever its mode: frozen limits
            self.policy = StaticSchedule(settings)
        self.stats.per_heuristic = self.policy.arms

    def exec_rng(self, h: str) -> np.random.Generator:
        """Heuristic ``h``'s generator, seeded from the solver seed and its ``PORTFOLIO`` index."""
        rng = self.exec_rngs.get(h)
        if rng is None:
            rng = self.exec_rngs[h] = np.random.default_rng(np.random.SeedSequence(
                [self.settings.seed % 2**32, 100 + heur.DEFAULT_ORDER.index(h)]))
        return rng

    # ------------------------------------------------------------------
    # incumbent and cutoff handling
    # ------------------------------------------------------------------

    def effective_cutoff(self) -> float:
        own = self.incumbent.objective if self.incumbent is not None else INF
        return min(own, self.inherited_cutoff)

    def beats_cutoff(self, objective):
        """The one cutoff test: only an objective strictly below the cutoff is worth having.

        When the model's ``integral_objective`` holds, no integral point is worth
        between ceil(cutoff) - 1 and the cutoff, so only objectives below
        ceil(cutoff) - 1 + ``INTEGRAL_CUTOFF_TOL`` pass (the cutoff itself is an
        integer once an incumbent sets it).  ``objective`` may be an array.
        """
        cutoff = self.effective_cutoff()
        if self.model.integral_objective and cutoff < INF:
            return objective < math.ceil(cutoff - INTEGRAL_CUTOFF_TOL) - 1 + INTEGRAL_CUTOFF_TOL
        return objective < cutoff - 1e-9

    def update_incumbent(self, x: np.ndarray, source: str = "lp") -> bool:
        """The one check of every candidate: keep x if integral-feasible and strictly improving."""
        ev = evaluate_solution(self.model, x, int_tol=self.settings.int_tol,
                               feas_tol=self.settings.feas_tol)
        if not (ev.feasible and ev.integral and self.beats_cutoff(ev.objective)):
            return False
        self.incumbent = Assignment.from_values(self.model, x)
        self.incumbent_log.append((source, ev.objective))
        return True

    def _pruned(self, bound: float) -> bool:
        """Whether a node with this bound is pruned; notes one that needed the inherited cutoff."""
        if self.beats_cutoff(bound):
            return False
        self._note_cutoff_use()
        return True

    def _note_cutoff_use(self):
        """Mark the result ``cutoff_pruned`` when the cutoff just used was inherited."""
        if self.incumbent is None and self.inherited_cutoff < INF:
            self.cutoff_pruned = True

    def _fix_by_reduced_cost(self, bounds: BoundState, lp: LpResult) -> BoundState:
        """``bounds`` with each nonbasic integer column of ``lp`` fixed at the bound it sits on
        when ``lp.objective + |d_j|`` fails ``beats_cutoff``; ``bounds`` itself unless the
        model's ``integral_objective`` holds.

        By LP duality that sum bounds the objective of every point of the box
        with x_j one unit or more off its (integral) bound, so the fixing drops
        no point worth having.  A fixing that needed the inherited cutoff
        marks the result ``cutoff_pruned``, as ``_pruned`` does.
        """
        if (lp.basis is None or self.effective_cutoff() == INF
                or not self.model.integral_objective):
            return bounds
        ints = self.model.integers
        cols = ints[~self.beats_cutoff(lp.objective + np.abs(lp.reduced_costs[ints]))]
        status = lp.basis[1][cols]
        lo, up = bounds.lower[cols], bounds.upper[cols]
        at = np.where(status == AT_LOWER, lo, up)
        fix = ((status == AT_LOWER) | (status == AT_UPPER)) & (lo < up) & (at == np.floor(at))
        if not fix.any():
            return bounds
        cols = cols[fix]
        lower, upper = bounds.lower.copy(), bounds.upper.copy()
        lower[cols] = upper[cols] = at[fix]
        self.stats.reduced_cost_fixings += len(cols)
        self._note_cutoff_use()
        return BoundState(lower=lower, upper=upper)

    def record_conflict(self, bounds: BoundState, free: Optional[int] = None):
        """Store the no-good of ``bounds``, proven infeasible, for every later LP.

        Only bounds that differ from ``root_bounds`` by fixing binaries (variable
        ``free`` aside) describe a partial assignment; the cut
        sum(x_j, j fixed to 0) + sum(1 - x_j, j fixed to 1) >= 1 excludes exactly
        the assignments extending it.  Other bounds store nothing.
        """
        root = self.root_bounds
        differs = (bounds.lower != root.lower) | (bounds.upper != root.upper)
        if free is not None:
            differs[free] = False
        cols = np.flatnonzero(differs)
        if (not len(cols) or np.any(bounds.lower[cols] != bounds.upper[cols])
                or not self.model.binary[cols].all()):
            return
        ones = bounds.lower[cols] > 0.5
        self.ctx.add_cut_row(cols, np.where(ones, -1.0, 1.0), "G", 1.0 - int(ones.sum()))

    def sub_solve(self, bounds: BoundState, node_limit: int):
        """Solve an LNS sub-MIP on ``bounds`` on this tree's LP context, under its cutoff,
        deadline and settings (``time_limit_s`` from the sub-MIP's later start ends no sooner)."""
        return solve(self.model, replace(self.settings, node_limit=node_limit),
                     root_bounds=bounds, cutoff=self.effective_cutoff(), ctx=self.ctx,
                     heur_layer="rounding_only", deadline=self.deadline)

    # ------------------------------------------------------------------
    # heuristic layer
    # ------------------------------------------------------------------

    def _run_heuristics(self, node: Node, lp: LpResult):
        heur.run_rounding(lp, self)
        if self.heur_layer == "rounding_only":
            return
        run_scheduled_heuristics(self, node, lp)

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
            if self._pruned(node.parent_dualbound):
                continue
            lp = self.ctx.solve(node.bounds, iter_limit=settings.lp_iter_limit,
                                basis=node.basis, deadline=self.deadline)
            self.nodes_processed += 1
            if lp.status is LpStatus.INFEASIBLE:
                continue
            if lp.status is LpStatus.UNBOUNDED:
                raise ValueError("relaxation is unbounded; model is not solvable here")
            if lp.status in (LpStatus.ITER_LIMIT, LpStatus.TIME_LIMIT):
                # resource exhaustion, never a pruning argument: keep the
                # subtree open so the reported dual bound stays valid
                self._push(node)
                status = SolveStatus(lp.status.value)
                break
            if self._pruned(lp.objective):
                continue
            snapped = snap_integral(self.model, lp.x, settings.int_tol)
            if snapped is None:
                self._run_heuristics(node, lp)
                if self._pruned(lp.objective):
                    continue
                tol = settings.int_tol
            elif self.update_incumbent(snapped, "lp") or self._pruned(self.model.c @ snapped):
                continue
            else:  # the rounded point breaks a row: branch on the integer rounding moved furthest
                tol = 0.0
            try:
                j = select_branch_variable(lp, self.model, tol)
            except NoFractionalVariable:  # the LP point itself breaks a row: no proof either way
                self.cutoff_pruned = True
                continue
            v = lp.x[j]
            bounds = self._fix_by_reduced_cost(node.bounds, lp)  # j is basic: never fixed
            down = Node(self.next_id, node.depth + 1,
                        bounds.tightened(j, hi=math.floor(v)), lp.objective, lp.basis)
            self.next_id += 1
            up = Node(self.next_id, node.depth + 1,
                      bounds.tightened(j, lo=math.ceil(v)), lp.objective, lp.basis)
            self.next_id += 1
            prefer, other = (down, up) if round_half_down(v) < v else (up, down)
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
            if self.model.integral_objective and abs(dual) < INF:
                dual = float(math.ceil(dual - INTEGRAL_CUTOFF_TOL))  # no point is worth less
            if self.incumbent is not None:
                dual = min(dual, self.incumbent.objective)

        self.stats.max_row_residual = self.ctx.max_row_residual
        self.stats.lp_inversions = self.ctx.inversions
        self.stats.factor_reuses = self.ctx.factor_reuses
        return SolveResult(status, self.incumbent, dual, self.nodes_processed, self.stats,
                           scheduler_log=list(self.policy.reward_log),
                           conflict_pool=ConflictPool(self.ctx.cut_rows),
                           cutoff_pruned=self.cutoff_pruned, incumbent_log=list(self.incumbent_log))


def solve(model: MipModel, settings: SolverSettings, *,
          root_bounds: Optional[BoundState] = None,
          cutoff: Optional[float] = None,
          ctx: Optional[SimplexContext] = None,
          heur_layer: str = "auto",
          deadline: Optional[float] = None) -> SolveResult:
    """Branch-and-bound solve of a model under the given settings.

    ``cutoff`` installs an objective limit (only strictly better solutions are
    accepted); with a cutoff and no improving solution the result status is
    INFEASIBLE, with ``cutoff_pruned`` telling whether the proof relied on the
    cutoff (or dropped a node whose own LP point breaks a row, which proves
    nothing).  ``root_bounds`` restricts the search box (used by LNS sub-MIPs).
    Without it the search runs on ``presolve(model, settings.feas_tol)``: the
    same columns, fewer rows and tighter bounds, so the incumbent is a point of
    ``model``.  With it the model is taken as given, as a sub-MIP already gets
    its tree's presolved model.  ``ctx`` is the LP context to solve on, the
    calling tree's for a sub-MIP: its cut rows, and so the result's
    ``conflict_pool``, and its counters are the whole search's.
    The search's one deadline, which its trees, dives, LPs and sub-MIPs all
    read, is ``settings.time_limit_s`` from this call's entry, before presolve,
    or ``deadline`` when that comes first; ``RunStats.time_s`` spans the same.
    """
    start = time.perf_counter()
    if settings.time_limit_s is not None:
        own = start + settings.time_limit_s
        deadline = own if deadline is None else min(deadline, own)  # a NaN stays for TreeSearch
    searched = model if root_bounds is not None else presolve(model, settings.feas_tol)
    tree = TreeSearch(searched, settings, root_bounds=root_bounds, cutoff=cutoff, ctx=ctx,
                      heur_layer=heur_layer, deadline=deadline)
    tree.stats.searched_rows = searched.m
    tree.stats.tightened_bounds = int(np.count_nonzero(searched.lower != model.lower)
                                      + np.count_nonzero(searched.upper != model.upper))
    result = tree.run()
    result.stats.time_s = time.perf_counter() - start
    return result
