"""Primal heuristic portfolio: three diving and three LNS heuristics plus rounding.

Diving heuristics walk a single probing path of variable fixings, re-solving
the LP only when the share of integer variables touched since the last solve
exceeds the adaptive threshold ``q`` (with a forced checkpoint every
``ceil(1/q)`` fixings), backtracking once on infeasibility and recording a
conflict when both directions die.  LNS heuristics fix ``ceil(f * |I|)``
integer variables around a reference point and solve the restricted sub-MIP
with a node budget and the incumbent as cutoff.  Both working limits are
adapted multiplicatively after every call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .model import Assignment, MipModel
from .simplex import INF, BoundState, LpResult, LpStatus, SimplexContext


class NotApplicable(Exception):
    """The heuristic cannot run in the current state (e.g. no incumbent yet)."""


@dataclass(frozen=True)
class HeuristicSpec:
    id: str
    klass: str  # "lns" or "diving"
    rank: int  # position in the default priority order
    requires_incumbent: bool


PORTFOLIO = (
    HeuristicSpec("rens", "lns", 0, False),
    HeuristicSpec("rins", "lns", 1, True),
    HeuristicSpec("mutation", "lns", 2, True),
    HeuristicSpec("frac_dive", "diving", 3, False),
    HeuristicSpec("coef_dive", "diving", 4, False),
    HeuristicSpec("rand_dive", "diving", 5, False),
)
SPEC_BY_ID = {spec.id: spec for spec in PORTFOLIO}
DEFAULT_ORDER = tuple(spec.id for spec in PORTFOLIO)
LNS_KINDS = tuple(s.id for s in PORTFOLIO if s.klass == "lns")
DIVE_KINDS = tuple(s.id for s in PORTFOLIO if s.klass == "diving")


@dataclass(frozen=True)
class LnsLimits:
    f: float = 0.9
    f_min: float = 0.3
    f_max: float = 0.9
    gamma: float = 0.1
    node_budget: int = 500


@dataclass(frozen=True)
class DivingLimits:
    q: float = 0.05
    q_min: float = 0.05
    q_max: float = 0.3
    eta: float = 0.1
    max_depth: int = 100


def portfolio_limits(settings) -> dict:
    """Initial working limits of every portfolio heuristic, from ``SolverSettings``."""
    lns = LnsLimits(f=settings.f_init, f_min=settings.f_min, f_max=settings.f_max,
                    gamma=settings.gamma, node_budget=settings.lns_node_budget)
    dive = DivingLimits(q=settings.q_init, q_min=settings.q_min, q_max=settings.q_max,
                        eta=settings.eta, max_depth=settings.dive_max_depth)
    return {s.id: (lns if s.klass == "lns" else dive) for s in PORTFOLIO}


@dataclass
class HeurOutcome:
    heuristic: str
    solution: Optional[Assignment] = None
    found_incumbent: bool = False
    nodes_used: int = 0
    conflicts_found: int = 0
    sub_mip_infeasible: bool = False
    wall_time_s: float = 0.0
    fixed_count: int = 0


def update_fixing_rate(limits: LnsLimits, outcome: HeurOutcome) -> LnsLimits:
    """Shrink f on success or an infeasible sub-MIP, grow it otherwise."""
    if outcome.found_incumbent or outcome.sub_mip_infeasible:
        f = max((1.0 - limits.gamma) * limits.f, limits.f_min)
    else:
        f = min((1.0 + limits.gamma) * limits.f, limits.f_max)
    return replace(limits, f=f)


def update_lp_resolve_threshold(limits: DivingLimits,
                                outcome: HeurOutcome) -> DivingLimits:
    """Shrink q after a failed dive (solve more often), grow it on success."""
    if not outcome.found_incumbent:
        q = max((1.0 - limits.eta) * limits.q, limits.q_min)
    else:
        q = min((1.0 + limits.eta) * limits.q, limits.q_max)
    return replace(limits, q=q)


def variable_locks(model: MipModel):
    """Count rows that can be violated by rounding each variable down / up."""
    sense = np.asarray(model.row_senses, dtype="U1")[model.entry_rows]
    pos = model.data > 0
    # a positive entry locks rounding up in an L or E row and down in a G or E row
    up = np.where(pos, sense != "G", sense != "L")
    down = np.where(pos, sense != "L", sense != "G")
    return (np.bincount(model.indices[down], minlength=model.n),
            np.bincount(model.indices[up], minlength=model.n))


@dataclass
class HeurEnv:
    """Ambient solver state a heuristic call needs, supplied by the tree search."""

    model: MipModel
    lp_ctx: SimplexContext
    node_bounds: BoundState
    root_bounds: BoundState
    locks: tuple
    int_tol: float
    feas_tol: float
    cutoff: Callable[[], float]
    incumbent: Callable[[], Optional[Assignment]]
    accept: Callable[[Assignment, str], bool]
    conflict: Callable[[str, dict, bool], None]
    sub_solve: Optional[Callable] = None
    lp_iter_limit: int = 20_000
    deadline: Optional[float] = None  # time.perf_counter() value after which dives stop


def _round_nearest(x: float) -> float:
    r = math.floor(x)
    return r if x - r <= 0.5 else r + 1.0


def _frac(v: float) -> float:
    f = v - math.floor(v)
    return min(f, 1.0 - f)


def _open_fractional(ints: np.ndarray, x: np.ndarray, bounds, int_tol: float) -> list:
    """The integer variables, in the order of ``ints``, with an open domain and fractional x."""
    f = x[ints] - np.floor(x[ints])
    keep = ((bounds.upper[ints] - bounds.lower[ints] > 1e-9)
            & (np.minimum(f, 1.0 - f) > int_tol))
    return ints[keep].tolist()


def _snap_assignment(model: MipModel, x: np.ndarray) -> np.ndarray:
    out = x.copy()
    ints = model.integers
    out[ints] = np.round(out[ints])
    return out


def run_rounding(lp: LpResult, model: MipModel, locks=None,
                 accept=None, int_tol: float = 1e-6,
                 feas_tol: float = 1e-6) -> HeurOutcome:
    """Round every fractional integer variable to its lock-preferred side.

    Costs no nodes; feasibility is checked once and the candidate is handed to
    ``accept`` (the incumbent update) when it passes.
    """
    from .model import evaluate_solution

    t0 = time.perf_counter()
    out = HeurOutcome(heuristic="rounding")
    if locks is None:
        locks = variable_locks(model)
    ints = model.integers
    down, up = locks[0][ints], locks[1][ints]
    x = lp.x.copy()
    v = x[ints]
    near, below, above = np.round(v), np.floor(v), np.ceil(v)
    nearest = np.where(v - below <= 0.5, below, below + 1.0)  # _round_nearest
    t = np.where(down < up, below, np.where(up < down, above, nearest))
    t = np.minimum(np.maximum(t, model.lower[ints]), model.upper[ints])
    x[ints] = np.where(np.abs(v - near) <= int_tol, near, t)
    ev = evaluate_solution(model, x, int_tol=int_tol, feas_tol=feas_tol)
    if ev.feasible and ev.integral:
        sol = Assignment.from_values(model, x)
        out.solution = sol
        if accept is not None:
            out.found_incumbent = bool(accept(sol, "rounding"))
    out.wall_time_s = time.perf_counter() - t0
    return out


def _fixed_difference(bounds: BoundState, root: BoundState, exclude=()):
    """Fixings that distinguish ``bounds`` from the root domain.

    Returns (fixing dict, pure) where ``pure`` is False if any differing
    variable is tightened without being fixed, in which case the difference
    does not describe a plain partial assignment.
    """
    fix = {}
    pure = True
    diff = np.nonzero(
        (bounds.lower != root.lower) | (bounds.upper != root.upper)
    )[0]
    for j in diff:
        j = int(j)
        if j in exclude:
            continue
        if bounds.lower[j] == bounds.upper[j]:
            fix[j] = float(bounds.lower[j])
        else:
            pure = False
    return fix, pure


def run_diving(kind: str, lp: LpResult, env: HeurEnv, limits: DivingLimits,
               rng: np.random.Generator) -> HeurOutcome:
    """Probe one path of fixings with sparse LP re-solves and one-level backtracking."""
    from .model import evaluate_solution

    if kind not in DIVE_KINDS:
        raise ValueError(f"unknown diving kind {kind!r}")
    t0 = time.perf_counter()
    out = HeurOutcome(heuristic=kind)
    model = env.model
    ints = model.integers
    n_int = len(ints)
    if n_int == 0:
        raise NotApplicable(f"{kind}: model has no integer variables")
    down_locks, up_locks = env.locks
    q = limits.q
    force_every = math.ceil(1.0 / q)

    bounds = env.node_bounds
    x_ref = lp.x
    steps = 0
    changed = 0
    since_solve = 0
    last_fix = None  # (j, value, bounds before the fix, reference LP value)

    def finish(solution=None, accepted=False):
        out.solution = solution
        out.found_incumbent = accepted
        out.nodes_used = steps
        out.wall_time_s = time.perf_counter() - t0
        return out

    while True:
        if env.deadline is not None and time.perf_counter() > env.deadline:
            return finish()
        cands = _open_fractional(ints, x_ref, bounds, env.int_tol)
        must_solve = False
        if not cands:
            if changed == 0 and since_solve == 0:
                return finish()  # LP is fresh and nothing is left to fix
            must_solve = True  # confirm integrality on a fresh LP
        else:
            if kind == "frac_dive":
                j = min(cands, key=lambda jj: (_frac(x_ref[jj]), jj))
                target = _round_nearest(x_ref[j])
            elif kind == "coef_dive":
                j = min(cands, key=lambda jj: (min(down_locks[jj], up_locks[jj]), jj))
                if down_locks[j] < up_locks[j]:
                    target = math.floor(x_ref[j])
                elif up_locks[j] < down_locks[j]:
                    target = math.ceil(x_ref[j])
                else:
                    target = _round_nearest(x_ref[j])
            else:  # rand_dive
                j = int(rng.choice(np.array(cands)))
                target = (math.floor(x_ref[j]) if rng.random() < 0.5
                          else math.ceil(x_ref[j]))
            target = min(max(float(target), math.ceil(bounds.lower[j] - 1e-9)),
                         math.floor(bounds.upper[j] + 1e-9))
            prev = bounds
            bounds = bounds.fixed(j, target)
            last_fix = (j, target, prev, float(x_ref[j]))
            steps += 1
            changed += 1
            since_solve += 1
            must_solve = (
                changed / n_int > q
                or since_solve >= force_every
                or steps >= limits.max_depth
            )
        if not must_solve:
            continue

        res = env.lp_ctx.solve(bounds, iter_limit=env.lp_iter_limit)
        if res.status is LpStatus.INFEASIBLE and last_fix is not None:
            j, tgt, prev, xj = last_fix
            opp = math.ceil(xj) if tgt == math.floor(xj) else math.floor(xj)
            retry = None
            if prev.lower[j] - 1e-9 <= opp <= prev.upper[j] + 1e-9:
                bounds = prev.fixed(j, float(opp))
                retry = env.lp_ctx.solve(bounds, iter_limit=env.lp_iter_limit)
            if retry is None or retry.status is LpStatus.INFEASIBLE:
                out.conflicts_found = 1
                fix, pure = _fixed_difference(prev, env.root_bounds, exclude=(j,))
                # the cut only excludes the prior fixings, so it needs both
                # directions of a binary variable actually proven dead
                cut_ok = (pure and model.is_binary(j)
                          and retry is not None
                          and retry.status is LpStatus.INFEASIBLE)
                env.conflict(kind, fix, cut_ok)
                return finish()
            last_fix = (j, float(opp), prev, xj)
            res = retry
        if res.status is not LpStatus.OPTIMAL:
            return finish()
        if res.objective >= env.cutoff() - 1e-9:
            return finish()
        x_ref = res.x
        changed = 0
        since_solve = 0
        xi = x_ref[ints]
        if np.all(np.abs(xi - np.round(xi)) <= env.int_tol):
            x = _snap_assignment(model, x_ref)
            ev = evaluate_solution(model, x, int_tol=env.int_tol,
                                   feas_tol=env.feas_tol)
            if ev.feasible and ev.integral:
                sol = Assignment.from_values(model, x)
                return finish(sol, bool(env.accept(sol, kind)))
            return finish()
        if steps >= limits.max_depth:
            return finish()


def run_lns(kind: str, lp: LpResult, env: HeurEnv, limits: LnsLimits,
            rng: np.random.Generator) -> HeurOutcome:
    """Fix ceil(f * |I|) integer variables around a reference point, solve the sub-MIP."""
    if kind not in LNS_KINDS:
        raise ValueError(f"unknown LNS kind {kind!r}")
    spec = SPEC_BY_ID[kind]
    incumbent = env.incumbent()
    if spec.requires_incumbent and incumbent is None:
        raise NotApplicable(f"{kind} needs an incumbent")
    model = env.model
    ints = [int(j) for j in model.integers]
    if not ints:
        raise NotApplicable(f"{kind}: model has no integer variables")
    t0 = time.perf_counter()
    out = HeurOutcome(heuristic=kind)
    k = min(math.ceil(limits.f * len(ints)), len(ints))
    xlp = lp.x
    frac = {j: _frac(float(xlp[j])) for j in ints}

    fixings = []  # (var, integer value)
    boxes = []  # (var, lo, hi)
    if kind == "rens":
        order = sorted(ints, key=lambda j: (frac[j], j))
        chosen = order[:k]
        for j in chosen:
            fixings.append((j, _round_nearest(float(xlp[j]))))
        for j in order[k:]:
            boxes.append((j, math.floor(xlp[j]), math.ceil(xlp[j])))
    elif kind == "rins":
        inc = incumbent.values
        agree = [j for j in ints if abs(xlp[j] - round(inc[j])) <= env.int_tol]
        agree.sort(key=lambda j: (abs(xlp[j] - round(inc[j])), j))
        chosen = agree[:k]
        if len(chosen) < k:
            chosen_set = set(chosen)
            rest = [j for j in ints if j not in chosen_set]
            rest.sort(key=lambda j: (frac[j], j))
            chosen = chosen + rest[: k - len(chosen)]
        for j in chosen:
            fixings.append((j, float(round(inc[j]))))
    else:  # mutation
        inc = incumbent.values
        pick = rng.choice(len(ints), size=k, replace=False)
        for idx in sorted(int(i) for i in pick):
            j = ints[idx]
            fixings.append((j, float(round(inc[j]))))

    bounds = env.root_bounds
    for j, blo, bhi in boxes:
        bounds = bounds.tightened(j, lo=blo, hi=bhi)
    for j, v in fixings:
        v = min(max(v, env.root_bounds.lower[j]), env.root_bounds.upper[j])
        bounds = bounds.fixed(j, v)
    out.fixed_count = k

    cutoff = env.cutoff()
    sub = env.sub_solve(
        bounds=bounds,
        node_limit=limits.node_budget,
        cutoff=None if cutoff == INF else cutoff,
    )
    out.nodes_used = sub.nodes_processed
    if sub.status.value == "infeasible":
        out.sub_mip_infeasible = True
        if not sub.cutoff_pruned:
            out.conflicts_found = 1
            fix, pure = _fixed_difference(bounds, env.root_bounds)
            env.conflict(kind, fix, pure)
    elif sub.incumbent is not None:
        out.solution = sub.incumbent
        out.found_incumbent = bool(env.accept(sub.incumbent, kind))
    out.wall_time_s = time.perf_counter() - t0
    return out


def execute(h: str, lp: LpResult, env: HeurEnv, limits,
            rng: np.random.Generator) -> HeurOutcome:
    """Dispatch one portfolio heuristic by id."""
    spec = SPEC_BY_ID[h]
    if spec.klass == "lns":
        return run_lns(h, lp, env, limits, rng)
    return run_diving(h, lp, env, limits, rng)
