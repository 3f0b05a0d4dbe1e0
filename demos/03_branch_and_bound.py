"""Branch and bound under both heuristic regimes.

The tree search is identical in both modes: best-bound node selection with
depth-first plunging, LP pruning, rounding at every node.  They differ only
in how the six controlled heuristics are invoked: a static depth-modulo
schedule (default) or the online bandit scheduler.
"""

import itertools

import numpy as np

from banditmip import SolverSettings, generate_instance, solve

model = generate_instance("gap", (30, 5), seed=3)
print(f"instance {model.name}: n={model.n}, m={model.m}")

results = {}
for mode in ("default", "scheduler"):
    res = solve(model, SolverSettings(mode=mode, seed=1))
    results[mode] = res
    st = res.stats
    print(f"{mode:>9}: {res.status.value}, objective {res.objective:g}, "
          f"{res.nodes_processed} nodes, {st.heuristic_calls} heuristic calls, "
          f"{st.heuristic_successes} heuristic incumbents")

assert results["default"].objective == results["scheduler"].objective

# how the incumbent improved over the run
print("\nincumbent trail (scheduler mode):")
for source, obj in results["scheduler"].incumbent_log:
    print(f"  {obj:8.1f}  found by {source}")

# conflicts recorded by failed dives / infeasible sub-MIPs become no-good cuts
conflicts = {}
for rec in results["scheduler"].scheduler_log:
    conflicts[rec["h"]] = conflicts.get(rec["h"], 0) + rec["conflicts_found"]
print(f"\nconflicts by heuristic: {conflicts}")
print(f"stored no-good cuts: {len(results['scheduler'].conflict_pool.nogood_cuts)}")

# a tiny instance can be checked against complete enumeration
small = generate_instance("knapsack", (12, 2), seed=9)
best = min(
    float(small.c @ np.array(x))
    for x in itertools.product((0.0, 1.0), repeat=small.n)
    if all(v @ np.array(x)[idx] <= b
           for idx, v, b in zip(small.row_cols, small.row_vals, small.rhs))
)
res = solve(small, SolverSettings(seed=0))
print(f"\nenumeration check on {small.name}: "
      f"solver {res.objective:g} vs brute force {best:g}")
