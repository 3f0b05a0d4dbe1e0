"""The four workloads: which instances are solved, in which mode, with which budget.

A workload is fixed by its name and a workload seed, which picks every
instance seed and every solver seed.  Seed 1 is the benchmark's; seed 2 is
the recorded second seed on which later claims are re-checked.  Every solve
runs without a time limit and under a node budget, so its work is the same
on every repeat.
"""

from __future__ import annotations

from dataclasses import dataclass

from instances import FAMILIES

WORKLOAD_SEED = 1
SECOND_WORKLOAD_SEED = 2

GAP_BANDIT_NODES = 100
GAP_STATIC_NODES = 120
EASY_NODE_CAP = 400  # the node cap of acceptance test 6, the comparative study


@dataclass(frozen=True)
class Solve:
    instance: int  # index into the workload's instances
    mode: str  # "scheduler" (bandit) or "default" (static schedule)
    solver_seed: int
    node_budget: int


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple  # Instance per model the workload parses
    solves: tuple  # Solve per solve of one sweep


def _easy_shapes(wseed: int):
    """The comparative study's 30 shapes; workload seed 1 gives its seeds 0..9."""
    base = 10 * (wseed - 1)
    for i in range(10):
        yield "gap", 30 + 3 * (i % 4), 5 + (i % 2), base + i
    for i in range(10):
        yield "set_cover", 28 + (i % 5) * 3, 14 + (i % 3) * 3, base + i
    for i in range(10):
        yield "knapsack", 22 + (i % 4) * 2, 4 + (i % 3), base + i


def build(name: str, wseed: int = WORKLOAD_SEED) -> Workload:
    if name in ("gap_bandit", "gap_static"):
        instances = (FAMILIES["gap"](300, 10, wseed),)
        if name == "gap_bandit":
            solves = (Solve(0, "scheduler", wseed, GAP_BANDIT_NODES),)
        else:
            solves = (Solve(0, "default", wseed, GAP_STATIC_NODES),)
    elif name == "cover_root":
        instances = (FAMILIES["set_cover"](800, 400, wseed),)
        solves = (Solve(0, "default", wseed, 1),)
    elif name == "easy_suite":
        instances = tuple(FAMILIES[f](n, m, s) for f, n, m, s in _easy_shapes(wseed))
        solves = tuple(Solve(k, mode, wseed, EASY_NODE_CAP)
                       for mode in ("default", "scheduler")
                       for k in range(len(instances)))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return Workload(name, instances, solves)


NAMES = ("gap_bandit", "gap_static", "cover_root", "easy_suite")
