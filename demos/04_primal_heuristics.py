"""Running the portfolio heuristics by hand at a root node.

Each heuristic consumes the node LP plus an environment handed over by the
tree search (bounds, simplex context, incumbent hooks).  Diving fixes one
variable at a time and re-solves the LP sparsely; LNS fixes ceil(f*|I|)
variables around a reference point and solves the restricted sub-MIP.
"""

import numpy as np

from banditmip import SolverSettings, generate_instance
from banditmip.bnb import Node, TreeSearch
from banditmip.heuristics import (
    adapt_limit,
    portfolio_limits,
    run_diving,
    run_lns,
    run_rounding,
)
from banditmip.simplex import BoundState

model = generate_instance("gap", (24, 4), seed=5)
settings = SolverSettings(seed=0)
tree = TreeSearch(model, settings)
bounds = BoundState.from_model(model)
lp = tree.ctx.solve(bounds)
env = tree._make_env(Node(0, 0, bounds, -np.inf))
print(f"root LP objective {lp.objective:.3f} "
      f"({sum(abs(v - round(v)) > 1e-6 for v in lp.x[model.integers])} fractional)")

out = run_rounding(lp, model, locks=env.locks, accept=env.accept,
                   int_tol=env.int_tol, feas_tol=env.feas_tol)
print(f"rounding: solution={'yes' if out.solution is not None else 'no'}, "
      f"accepted={out.found_incumbent}")

limits = portfolio_limits(settings)
dive_limit = limits["frac_dive"]  # value is q, from settings.q_init
for kind in ("frac_dive", "coef_dive", "rand_dive"):
    out = run_diving(kind, lp, env, dive_limit, np.random.default_rng(4))
    print(f"{kind}: steps={out.nodes_used} conflicts={out.conflicts_found} "
          f"found={out.found_incumbent}")
    dive_limit = adapt_limit(dive_limit, out)
    print(f"   q -> {dive_limit.value:.4f}")

lns_limit = limits["rens"]  # value is f, from settings.f_init
for kind in ("rens", "rins", "mutation"):
    out = run_lns(kind, lp, env, lns_limit, np.random.default_rng(4))
    print(f"{kind}: fixed {out.fixed_count}/{len(model.integers)} vars, "
          f"sub-MIP nodes={out.nodes_used}, "
          f"infeasible={out.sub_mip_infeasible}, found={out.found_incumbent}")
    lns_limit = adapt_limit(lns_limit, out)
    print(f"   f -> {lns_limit.value:.4f}")

print(f"\nincumbent after the tour: {tree.incumbent.objective:g} "
      f"(cutoff for later calls)")
