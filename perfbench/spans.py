"""Spans around banditmip's layers, patched in from the benchmark's own files.

Each wrapped entry point records a span: a name, start and end, the span that
was open when it was called, and the id of the benchmark solve it belongs to.
Spans stay in memory; the benchmark writes them out when the run ends.  A
layer's self time is the duration of its spans minus the part their child
spans cover.

Layers and what is wrapped (the package binds some names at import time, so
each is patched where its caller looks it up):

- ``model``: ``parse_mps``; ``evaluate_solution`` on ``banditmip.bnb`` (bound
  by name) and on ``banditmip.model`` (the heuristics import it from there
  inside their functions).
- ``simplex``: ``SimplexContext.solve``, named by its caller: ``simplex.sub``
  inside an LNS sub-MIP, ``simplex.dive`` inside a dive, ``simplex.node``
  otherwise; ``SimplexContext.__init__`` (context builds) and ``add_cut_row``.
- ``bnb``: ``banditmip.bnb.solve``.  LNS sub-MIPs re-enter it with
  ``heur_layer="rounding_only"`` and become ``bnb.sub_mip`` spans.
- ``heuristics``: ``run_rounding``, ``run_diving`` and ``run_lns`` on
  ``banditmip.heuristics``; ``execute`` dispatches through those globals.
- ``scheduler``: the heuristic policy of a top-level node,
  ``TreeSearch._run_heuristics`` (the bandit in ``scheduler`` mode, the
  depth-modulo schedule in ``default`` mode), plus ``run_scheduled_heuristics``
  on ``banditmip.bnb`` and ``Scheduler.select`` and ``Scheduler.record``.

``cli`` only formats output; the benchmark calls the library directly, so
that layer is not measured.
"""

from __future__ import annotations

import functools
import json
import time

DIVES = ("frac_dive", "coef_dive", "rand_dive")
PORTFOLIO = ("rens", "rins", "mutation") + DIVES
HEURISTICS = PORTFOLIO + ("rounding",)
LAYERS = ("simplex", "bnb", "heuristics", "scheduler", "model")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "solve", "attrs")

    def __init__(self, id, name, start, parent, solve):
        self.id, self.name, self.start, self.parent, self.solve = id, name, start, parent, solve
        self.end = None
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "solve": self.solve,
                "attrs": self.attrs}


class Tracer:
    """Installs the wrappers, collects spans and restores the package on exit."""

    def __init__(self, bm):
        self.bm = bm  # the imported banditmip package
        self.spans = []
        self.stack = []
        self.solve_id = None
        self._saved = []

    # -- span bookkeeping ------------------------------------------------
    def _open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.solve_id)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def _lp_caller(self) -> str:
        for span in reversed(self.stack):
            if span.name == "bnb.sub_mip":
                return "simplex.sub"
            if span.name.startswith("heuristics.") and span.name[11:] in DIVES:
                return "simplex.dive"
        return "simplex.node"

    # -- patching -----------------------------------------------------------
    def _patch(self, owner, attr, name_of, after=None):
        """Wrap ``owner.attr``; ``name_of(args, kwargs)`` names the span or returns None."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            if name is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                span.attrs = after(args, result)
            return result

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        bm = self.bm
        model, simplex, bnb = bm.model, bm.simplex, bm.bnb
        heuristics, scheduler = bm.heuristics, bm.scheduler

        def fixed(name):
            return lambda args, kwargs: name

        self._patch(model, "parse_mps", fixed("model.parse"))
        self._patch(model, "evaluate_solution", fixed("model.evaluate"))
        self._patch(bnb, "evaluate_solution", fixed("model.evaluate"))

        ctx = simplex.SimplexContext
        self._patch(ctx, "solve", lambda a, k: self._lp_caller(),
                    lambda a, r: {"pivots": r.iterations, "status": r.status.value})
        self._patch(ctx, "__init__", fixed("simplex.context"))
        self._patch(ctx, "add_cut_row", fixed("simplex.cut_row"))

        def bnb_name(args, kwargs):
            sub = kwargs.get("heur_layer", "auto") == "rounding_only"
            return "bnb.sub_mip" if sub else "bnb.solve"

        def bnb_after(args, r):
            pool = r.conflict_pool
            return {"nodes": r.nodes_processed, "incumbents": len(r.incumbent_log),
                    "nogoods": len(pool.nogood_cuts) if pool is not None else 0}

        self._patch(bnb, "solve", bnb_name, bnb_after)

        def heur_after(args, out):
            return {"found": bool(out.found_incumbent), "steps": out.nodes_used,
                    "conflicts": out.conflicts_found}

        self._patch(heuristics, "run_rounding", fixed("heuristics.rounding"), heur_after)
        for attr in ("run_diving", "run_lns"):
            self._patch(heuristics, attr, lambda a, k: "heuristics." + a[0], heur_after)

        def policy_name(args, kwargs):
            return "scheduler.policy" if args[0].heur_layer == "auto" else None

        self._patch(bnb.TreeSearch, "_run_heuristics", policy_name)
        self._patch(bnb, "run_scheduled_heuristics", fixed("scheduler.invoke"))
        self._patch(scheduler.Scheduler, "select", fixed("scheduler.select"))
        self._patch(scheduler.Scheduler, "record", fixed("scheduler.record"))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[k]


def layer_metrics(spans) -> tuple[dict, dict]:
    """Per-layer counts and seconds of the spans of one traced sweep.

    Returns (counts, times): counts must repeat exactly on every sweep of the
    same code and inputs; times are measured.
    """
    by_id = {s.id: s for s in spans}
    cover = {}
    for s in spans:
        if s.parent in by_id:
            cover[s.parent] = cover.get(s.parent, 0.0) + s.duration
    self_s = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        self_s[s.name.split(".", 1)[0]] += s.duration - cover.get(s.id, 0.0)

    counts, times = {}, {}

    def named(name):
        return [s for s in spans if s.name == name]

    lp_ms, lp_pivots, lp_s = [], 0, 0.0
    infeasible = iter_limit = 0
    for caller in ("node", "dive", "sub"):
        group = named("simplex." + caller)
        pivots = sum(s.attrs["pivots"] for s in group)
        counts[f"simplex.{caller}.calls"] = len(group)
        counts[f"simplex.{caller}.pivots"] = pivots
        times[f"simplex.{caller}.s"] = sum(s.duration for s in group)
        if caller == "node":
            counts["simplex.node.pivots_per_call"] = pivots / len(group) if group else 0.0
        lp_ms += [s.duration * 1e3 for s in group]
        lp_pivots += pivots
        lp_s += times[f"simplex.{caller}.s"]
        infeasible += sum(s.attrs["status"] == "infeasible" for s in group)
        iter_limit += sum(s.attrs["status"] == "iter_limit" for s in group)
    times["simplex.us_per_pivot"] = lp_s / lp_pivots * 1e6 if lp_pivots else 0.0
    times["simplex.solve_ms.p50"] = _quantile(lp_ms, 0.50)
    times["simplex.solve_ms.p99"] = _quantile(lp_ms, 0.99)
    counts["simplex.infeasible"] = infeasible
    counts["simplex.iter_limit"] = iter_limit
    for key, name in (("contexts", "simplex.context"), ("cut_rows", "simplex.cut_row")):
        group = named(name)
        counts[f"simplex.{key}"] = len(group)
        times[f"simplex.{key}.s"] = sum(s.duration for s in group)

    tops, subs = named("bnb.solve"), named("bnb.sub_mip")
    counts["bnb.nodes"] = sum(s.attrs["nodes"] for s in tops)
    counts["bnb.incumbents"] = sum(s.attrs["incumbents"] for s in tops)
    counts["bnb.nogoods"] = sum(s.attrs["nogoods"] for s in tops)
    counts["bnb.sub_mips"] = len(subs)
    counts["bnb.sub_mip.nodes"] = sum(s.attrs["nodes"] for s in subs)
    times["bnb.sub_mip.s"] = sum(s.duration for s in subs)
    times["bnb.self_s"] = self_s["bnb"]

    calls = found = steps = conflicts = 0
    for h in HEURISTICS:
        group = named("heuristics." + h)
        done = [s for s in group if s.attrs is not None]  # NotApplicable raises
        counts[f"heuristics.{h}.calls"] = len(done)
        counts[f"heuristics.{h}.found"] = sum(s.attrs["found"] for s in done)
        times[f"heuristics.{h}.s"] = sum(s.duration for s in group)
        if h in PORTFOLIO:
            calls += len(done)
            found += counts[f"heuristics.{h}.found"]
            conflicts += sum(s.attrs["conflicts"] for s in done)
        if h in DIVES:
            steps += sum(s.attrs["steps"] for s in done)
    counts["heuristics.found_ratio"] = found / calls if calls else 0.0
    counts["heuristics.dive.steps"] = steps
    counts["heuristics.conflicts"] = conflicts
    times["heuristics.self_s"] = self_s["heuristics"]

    policies = {s.id for s in named("scheduler.policy")}
    ran = set()
    for s in spans:
        if s.name[11:] in PORTFOLIO and s.name.startswith("heuristics.") and s.attrs:
            p = s.parent
            while p is not None and p not in policies:
                p = by_id[p].parent
            ran.add(p)
    counts["scheduler.invocations"] = len(policies)
    counts["scheduler.skipped"] = len(policies - ran)
    times["scheduler.self_s"] = self_s["scheduler"]

    evals = named("model.evaluate")
    counts["model.evaluate.calls"] = len(evals)
    times["model.evaluate.s"] = sum(s.duration for s in evals)  # model's self time
    return counts, times
