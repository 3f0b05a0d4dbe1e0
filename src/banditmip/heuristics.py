"""Primal heuristic portfolio: three diving and three LNS heuristics plus rounding.

Diving heuristics walk a single probing path of variable fixings, re-solving
the LP only when the share of integer variables touched since the last solve
exceeds the adaptive threshold ``q`` (with a forced checkpoint every
``ceil(1/q)`` fixings), backtracking once on infeasibility and recording a
conflict when both directions die.  A dive lists the open fractional integers
of each LP point once, in the order it takes them (``frac_dive`` by
fractionality, ``coef_dive`` by locks, ties by index), and each fixing takes
its column off the list; the fixings before the next LP solve change no
other bound and not the point, so the list is what a fresh scan would give
(``rand_dive`` draws from it in index order).  LNS heuristics fix
``ceil(f * |I|)`` integer variables around a reference point and solve the
restricted sub-MIP with a node budget and the incumbent as cutoff.  Both
classes run under one :class:`WorkingLimit` type: its ``value`` is the fixing
rate ``f`` of an LNS heuristic or the re-solve threshold ``q`` of a dive, and
its ``budget`` is the sub-MIP node budget or the dive's maximum depth.
:func:`adapt_limit` adapts either multiplicatively after every call.

Every heuristic reads the :class:`~banditmip.bnb.TreeSearch` it serves: its
model (and its rounding ``locks``), LP context, root bounds, settings,
deadline, incumbent and cutoff.  No heuristic judges its own candidates: each
hands the point it found to ``tree.update_incumbent``, which checks feasibility, integrality and
improvement and reports whether it was taken.  Nor does one judge what its
failure proves: a dive asks ``tree.beats_cutoff`` whether an LP is still worth
following, and a dive or LNS call hands the bounds it proved infeasible to
``tree.record_conflict``, which decides whether they make a no-good cut.
Nor does one decide whether it may run or time itself: the call loop,
:func:`~banditmip.scheduler.run_scheduled_heuristics`, does both.

Rounding, dives and LNS, like the tree's branching, judge integrality with
:func:`~banditmip.model.fractionality` and round to the nearest integer with
:func:`~banditmip.model.round_half_down`, the one rule ``model.py`` defines;
only directed roundings (bounds, dive directions) call ``floor`` or ``ceil``.
Rounding and ``coef_dive`` choose their direction by one lock rule,
:func:`lock_round`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .model import fractionality, round_half_down, snap_integral
from .simplex import BoundState, LpResult, LpStatus

if TYPE_CHECKING:
    from .bnb import TreeSearch


@dataclass(frozen=True)
class HeuristicSpec:
    id: str
    klass: str  # "lns" or "diving"
    requires_incumbent: bool


# in the default priority order; a heuristic's position here seeds its generator
PORTFOLIO = (
    HeuristicSpec("rens", "lns", False),
    HeuristicSpec("rins", "lns", True),
    HeuristicSpec("mutation", "lns", True),
    HeuristicSpec("frac_dive", "diving", False),
    HeuristicSpec("coef_dive", "diving", False),
    HeuristicSpec("rand_dive", "diving", False),
)
SPEC_BY_ID = {spec.id: spec for spec in PORTFOLIO}
DEFAULT_ORDER = tuple(spec.id for spec in PORTFOLIO)
LNS_KINDS = tuple(s.id for s in PORTFOLIO if s.klass == "lns")
DIVE_KINDS = tuple(s.id for s in PORTFOLIO if s.klass == "diving")


@dataclass(frozen=True)
class WorkingLimit:
    """A heuristic's adaptive limit ``value`` in ``[lo, hi]``, scaled by ``1 -/+ rate``."""

    value: float
    lo: float
    hi: float
    rate: float
    budget: int  # LNS sub-MIP node budget or dive depth limit; scales the reward


def portfolio_limits(settings) -> dict:
    """Initial working limits of every portfolio heuristic, from ``SolverSettings``."""
    lns = WorkingLimit(settings.f_init, settings.f_min, settings.f_max,
                       settings.gamma, settings.lns_node_budget)
    dive = WorkingLimit(settings.q_init, settings.q_min, settings.q_max,
                        settings.eta, settings.dive_max_depth)
    return {s.id: (lns if s.klass == "lns" else dive) for s in PORTFOLIO}


@dataclass
class HeurOutcome:
    heuristic: str
    found_incumbent: bool = False
    nodes_used: int = 0
    conflicts_found: int = 0
    sub_mip_infeasible: bool = False
    fixed_count: int = 0


def adapt_limit(limit: WorkingLimit, outcome: HeurOutcome) -> WorkingLimit:
    """The limit after one call: shrunk by ``1 - rate`` down to ``lo`` or grown to ``hi``.

    An LNS fixing rate f shrinks on success or an infeasible sub-MIP and grows
    otherwise; a dive's threshold q shrinks after a failed dive (re-solve more
    often) and grows on success.
    """
    if SPEC_BY_ID[outcome.heuristic].klass == "lns":
        shrink = outcome.found_incumbent or outcome.sub_mip_infeasible
    else:
        shrink = not outcome.found_incumbent
    if shrink:
        value = max((1.0 - limit.rate) * limit.value, limit.lo)
    else:
        value = min((1.0 + limit.rate) * limit.value, limit.hi)
    return replace(limit, value=value)


def _open_fractional(ints: np.ndarray, x: np.ndarray, bounds, int_tol: float) -> list:
    """The integer variables, in the order of ``ints``, with an open domain and fractional x."""
    keep = ((bounds.upper[ints] - bounds.lower[ints] > 1e-9)
            & (fractionality(x[ints]) > int_tol))
    return ints[keep].tolist()


def lock_round(v, down, up):
    """Round ``v`` (a number or an array) to the side with fewer locks, to the nearest on a tie.

    Floor where ``down`` (the rows rounding down may violate) is smaller, ceil
    where ``up`` is, and ``round_half_down`` where they are equal.
    """
    return np.where(down < up, np.floor(v), np.where(up < down, np.ceil(v), round_half_down(v)))


def run_rounding(lp: LpResult, tree: TreeSearch) -> HeurOutcome:
    """Round every fractional integer variable to its lock-preferred side.

    Costs no nodes.  The rounded point goes to ``tree.update_incumbent``,
    which checks it; the outcome records whether it was taken.
    """
    model = tree.model
    ints = model.integers
    down, up = model.locks[0][ints], model.locks[1][ints]
    x = lp.x.copy()
    v = x[ints]
    t = np.minimum(np.maximum(lock_round(v, down, up), model.lower[ints]), model.upper[ints])
    x[ints] = np.where(fractionality(v) <= tree.settings.int_tol, round_half_down(v), t)
    return HeurOutcome(heuristic="rounding",
                       found_incumbent=bool(tree.update_incumbent(x, "rounding")))


def run_diving(kind: str, lp: LpResult, tree: TreeSearch, bounds: BoundState,
               limit: WorkingLimit, rng: np.random.Generator) -> HeurOutcome:
    """Probe one path of fixings below node ``bounds``: sparse LP re-solves, one-level backtracking."""
    if kind not in DIVE_KINDS:
        raise ValueError(f"unknown diving kind {kind!r}")
    out = HeurOutcome(heuristic=kind)
    model, settings = tree.model, tree.settings
    ints = model.integers
    n_int = len(ints)
    down_locks, up_locks = model.locks
    q = limit.value
    force_every = math.ceil(1.0 / q)

    x_ref = lp.x
    basis = lp.basis  # each LP starts from the basis of the dive's last optimal one
    cands = None  # x_ref's open fractional integers, in the order the dive takes them
    steps = 0
    changed = 0  # fixings since the last LP solve
    last_fix = None  # (j, value, bounds before the fix, reference LP value)

    def finish(accepted=False):
        out.found_incumbent = accepted
        out.nodes_used = steps
        return out

    while True:
        if tree.deadline is not None and time.perf_counter() > tree.deadline:
            return finish()
        if cands is None:  # a new LP point; each fixing below takes its column out
            cands = _open_fractional(ints, x_ref, bounds, settings.int_tol)
            if kind != "rand_dive":  # ties keep ascending index, as argmin's first would
                key = (fractionality(x_ref[cands]) if kind == "frac_dive"
                       else np.minimum(down_locks[cands], up_locks[cands]))
                cands = [cands[k] for k in np.argsort(key, kind="stable")]
        must_solve = False
        if not cands:
            if changed == 0:
                return finish()  # LP is fresh and nothing is left to fix
            must_solve = True  # confirm integrality on a fresh LP
        else:
            if kind == "rand_dive":
                j = int(rng.choice(np.array(cands)))
                cands.remove(j)
                target = (math.floor(x_ref[j]) if rng.random() < 0.5
                          else math.ceil(x_ref[j]))
            else:
                j = cands.pop(0)
                target = (round_half_down(x_ref[j]) if kind == "frac_dive"
                          else lock_round(x_ref[j], down_locks[j], up_locks[j]))
            target = min(max(float(target), math.ceil(bounds.lower[j] - 1e-9)),
                         math.floor(bounds.upper[j] + 1e-9))
            prev = bounds
            bounds = bounds.fixed(j, target)
            last_fix = (j, target, prev, float(x_ref[j]))
            steps += 1
            changed += 1
            must_solve = (
                changed / n_int > q
                or changed >= force_every
                or steps >= limit.budget
            )
        if not must_solve:
            continue

        res = tree.ctx.solve(bounds, iter_limit=settings.lp_iter_limit, basis=basis,
                             deadline=tree.deadline)
        if res.status is LpStatus.INFEASIBLE and last_fix is not None:
            j, tgt, prev, xj = last_fix
            opp = math.ceil(xj) if tgt == math.floor(xj) else math.floor(xj)
            retry = None
            if prev.lower[j] - 1e-9 <= opp <= prev.upper[j] + 1e-9:
                bounds = prev.fixed(j, float(opp))
                retry = tree.ctx.solve(bounds, iter_limit=settings.lp_iter_limit, basis=basis,
                                       deadline=tree.deadline)
            if retry is None or retry.status is LpStatus.INFEASIBLE:
                out.conflicts_found = 1
                # both values of a binary j dead prove the bounds before its fixing infeasible
                if retry is not None and model.binary[j]:
                    tree.record_conflict(prev, free=j)
                return finish()
            last_fix = (j, float(opp), prev, xj)
            res = retry
        if res.status is not LpStatus.OPTIMAL:
            return finish()
        if not tree.beats_cutoff(res.objective):
            return finish()
        x_ref, basis, cands = res.x, res.basis, None
        changed = 0
        x = snap_integral(model, x_ref, settings.int_tol)
        if x is not None:
            return finish(bool(tree.update_incumbent(x, kind)))
        if steps >= limit.budget:
            return finish()


def run_lns(kind: str, lp: LpResult, tree: TreeSearch, limit: WorkingLimit,
            rng: np.random.Generator) -> HeurOutcome:
    """Fix ceil(f * |I|) integer variables around a reference point, solve the sub-MIP.

    ``rins`` and ``mutation`` fix around the incumbent: the tree must have one
    (``run_scheduled_heuristics`` runs no such pick before it does).
    """
    if kind not in LNS_KINDS:
        raise ValueError(f"unknown LNS kind {kind!r}")
    ints = tree.model.integers
    out = HeurOutcome(heuristic=kind)
    k = min(math.ceil(limit.value * len(ints)), len(ints))
    xi = lp.x[ints]
    by_frac = np.argsort(fractionality(xi), kind="stable")  # (frac, j) order: ints ascend
    lower, upper = tree.root_bounds.lower.copy(), tree.root_bounds.upper.copy()

    # chosen: positions in ints to fix to values; rens boxes the others to [floor, ceil]
    if kind == "rens":
        chosen, box = by_frac[:k], ints[by_frac[k:]]
        values = round_half_down(xi[chosen])
        lower[box] = np.maximum(lower[box], np.floor(lp.x[box]))
        upper[box] = np.minimum(upper[box], np.ceil(lp.x[box]))
    else:
        inc = round_half_down(tree.incumbent.values[ints])
        if kind == "rins":
            dist = np.abs(xi - inc)
            agree = np.flatnonzero(dist <= tree.settings.int_tol)
            agree = agree[np.argsort(dist[agree], kind="stable")]
            chosen = np.concatenate([agree, by_frac[~np.isin(by_frac, agree)]])[:k]
        else:  # mutation
            chosen = np.sort(rng.choice(len(ints), size=k, replace=False))
        values = inc[chosen]
    cols = ints[chosen]
    lower[cols] = upper[cols] = np.minimum(np.maximum(values, lower[cols]), upper[cols])
    bounds = BoundState(lower=lower, upper=upper)
    out.fixed_count = k

    sub = tree.sub_solve(bounds, node_limit=limit.budget)
    out.nodes_used = sub.nodes_processed
    if sub.status.value == "infeasible":
        out.sub_mip_infeasible = True
        if not sub.cutoff_pruned:
            out.conflicts_found = 1
            tree.record_conflict(bounds)
    elif sub.incumbent is not None:
        out.found_incumbent = bool(tree.update_incumbent(sub.incumbent.values, kind))
    return out


def execute(h: str, lp: LpResult, tree: TreeSearch, bounds: BoundState,
            limit: WorkingLimit, rng: np.random.Generator) -> HeurOutcome:
    """Dispatch one portfolio heuristic by id at a node with the given ``bounds``."""
    if SPEC_BY_ID[h].klass == "lns":
        return run_lns(h, lp, tree, limit, rng)
    return run_diving(h, lp, tree, bounds, limit, rng)
