"""Primal heuristic portfolio: three diving and three LNS heuristics plus rounding.

Diving heuristics walk a single probing path of variable fixings, re-solving
the LP only when the share of integer variables touched since the last solve
exceeds the adaptive threshold ``q`` (with a forced checkpoint every
``ceil(1/q)`` fixings), backtracking once on infeasibility and recording a
conflict when both directions die.  LNS heuristics fix ``ceil(f * |I|)``
integer variables around a reference point and solve the restricted sub-MIP
with a node budget and the incumbent as cutoff.  Both classes run under one
:class:`WorkingLimit` type: its ``value`` is the fixing rate ``f`` of an LNS
heuristic or the re-solve threshold ``q`` of a dive, and its ``budget`` is the
sub-MIP node budget or the dive's maximum depth.  :func:`adapt_limit` adapts
either multiplicatively after every call.

Every heuristic reads the :class:`~banditmip.bnb.TreeSearch` it serves: its
model, LP context, root bounds, locks, settings, deadline, incumbent and
cutoff.  No heuristic judges its own candidates: each hands the point it
found to ``tree.update_incumbent``, which checks feasibility, integrality and
improvement and reports whether it was taken.  Nor does one judge what its
failure proves: a dive asks ``tree.beats_cutoff`` whether an LP is still worth
following, and a dive or LNS call hands the bounds it proved infeasible to
``tree.record_conflict``, which decides whether they make a no-good cut.

Rounding, dives and LNS, like the tree's branching, judge integrality with
:func:`~banditmip.model.fractionality` and round to the nearest integer with
:func:`~banditmip.model.round_half_down`, the one rule ``model.py`` defines;
only directed roundings (bounds, dive directions) call ``floor`` or ``ceil``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .model import MipModel, fractionality, round_half_down, snap_integral
from .simplex import BoundState, LpResult, LpStatus

if TYPE_CHECKING:
    from .bnb import TreeSearch


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
    wall_time_s: float = 0.0
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


def variable_locks(model: MipModel):
    """Count rows that can be violated by rounding each variable down / up."""
    sense = model.senses[model.entry_rows]
    pos = model.data > 0
    # a positive entry locks rounding up in an L or E row and down in a G or E row
    up = np.where(pos, sense != "G", sense != "L")
    down = np.where(pos, sense != "L", sense != "G")
    return (np.bincount(model.indices[down], minlength=model.n),
            np.bincount(model.indices[up], minlength=model.n))


def _open_fractional(ints: np.ndarray, x: np.ndarray, bounds, int_tol: float) -> list:
    """The integer variables, in the order of ``ints``, with an open domain and fractional x."""
    keep = ((bounds.upper[ints] - bounds.lower[ints] > 1e-9)
            & (fractionality(x[ints]) > int_tol))
    return ints[keep].tolist()


def run_rounding(lp: LpResult, tree: TreeSearch) -> HeurOutcome:
    """Round every fractional integer variable to its lock-preferred side.

    Costs no nodes.  The rounded point goes to ``tree.update_incumbent``,
    which checks it; the outcome records whether it was taken.
    """
    model = tree.model
    ints = model.integers
    down, up = tree.locks[0][ints], tree.locks[1][ints]
    x = lp.x.copy()
    v = x[ints]
    nearest = round_half_down(v)
    t = np.where(down < up, np.floor(v), np.where(up < down, np.ceil(v), nearest))
    t = np.minimum(np.maximum(t, model.lower[ints]), model.upper[ints])
    x[ints] = np.where(fractionality(v) <= tree.settings.int_tol, nearest, t)
    return HeurOutcome(heuristic="rounding",
                       found_incumbent=bool(tree.update_incumbent(x, "rounding")))


def run_diving(kind: str, lp: LpResult, tree: TreeSearch, bounds: BoundState,
               limit: WorkingLimit, rng: np.random.Generator) -> HeurOutcome:
    """Probe one path of fixings below node ``bounds``: sparse LP re-solves, one-level backtracking."""
    if kind not in DIVE_KINDS:
        raise ValueError(f"unknown diving kind {kind!r}")
    t0 = time.perf_counter()
    out = HeurOutcome(heuristic=kind)
    model, settings = tree.model, tree.settings
    ints = model.integers
    n_int = len(ints)
    if n_int == 0:
        raise NotApplicable(f"{kind}: model has no integer variables")
    down_locks, up_locks = tree.locks
    q = limit.value
    force_every = math.ceil(1.0 / q)

    x_ref = lp.x
    basis = lp.basis  # each LP starts from the basis of the dive's last optimal one
    steps = 0
    changed = 0  # fixings since the last LP solve
    last_fix = None  # (j, value, bounds before the fix, reference LP value)

    def finish(accepted=False):
        out.found_incumbent = accepted
        out.nodes_used = steps
        out.wall_time_s = time.perf_counter() - t0
        return out

    while True:
        if tree.deadline is not None and time.perf_counter() > tree.deadline:
            return finish()
        cands = _open_fractional(ints, x_ref, bounds, settings.int_tol)
        must_solve = False
        if not cands:
            if changed == 0:
                return finish()  # LP is fresh and nothing is left to fix
            must_solve = True  # confirm integrality on a fresh LP
        else:
            # argmin takes the first of tied candidates, which ascend: the lowest index
            if kind == "frac_dive":
                j = cands[np.argmin(fractionality(x_ref[cands]))]
                target = round_half_down(x_ref[j])
            elif kind == "coef_dive":
                j = cands[np.argmin(np.minimum(down_locks[cands], up_locks[cands]))]
                if down_locks[j] < up_locks[j]:
                    target = math.floor(x_ref[j])
                elif up_locks[j] < down_locks[j]:
                    target = math.ceil(x_ref[j])
                else:
                    target = round_half_down(x_ref[j])
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
                if retry is not None and model.is_binary(j):
                    tree.record_conflict(prev, free=j)
                return finish()
            last_fix = (j, float(opp), prev, xj)
            res = retry
        if res.status is not LpStatus.OPTIMAL:
            return finish()
        if not tree.beats_cutoff(res.objective):
            return finish()
        x_ref, basis = res.x, res.basis
        changed = 0
        x = snap_integral(model, x_ref, settings.int_tol)
        if x is not None:
            return finish(bool(tree.update_incumbent(x, kind)))
        if steps >= limit.budget:
            return finish()


def run_lns(kind: str, lp: LpResult, tree: TreeSearch, limit: WorkingLimit,
            rng: np.random.Generator) -> HeurOutcome:
    """Fix ceil(f * |I|) integer variables around a reference point, solve the sub-MIP.

    Raises ``NotApplicable`` for a kind that needs an incumbent while the tree
    has none: the one place that rule is enforced for a pick.
    """
    if kind not in LNS_KINDS:
        raise ValueError(f"unknown LNS kind {kind!r}")
    spec = SPEC_BY_ID[kind]
    incumbent = tree.incumbent
    if spec.requires_incumbent and incumbent is None:
        raise NotApplicable(f"{kind} needs an incumbent")
    ints = tree.model.integers
    if not len(ints):
        raise NotApplicable(f"{kind}: model has no integer variables")
    t0 = time.perf_counter()
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
        inc = round_half_down(incumbent.values[ints])
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
    out.wall_time_s = time.perf_counter() - t0
    return out


def execute(h: str, lp: LpResult, tree: TreeSearch, bounds: BoundState,
            limit: WorkingLimit, rng: np.random.Generator) -> HeurOutcome:
    """Dispatch one portfolio heuristic by id at a node with the given ``bounds``."""
    if SPEC_BY_ID[h].klass == "lns":
        return run_lns(h, lp, tree, limit, rng)
    return run_diving(h, lp, tree, bounds, limit, rng)
