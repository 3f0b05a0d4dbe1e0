"""The bounded-variable simplex engine behind every node and dive.

A SimplexContext keeps the expanded matrix; every optimal result carries its
basis, and a solve given one with ``basis=`` warm starts from it.  Repeated
solves under changed variable bounds (exactly what a dive does) hand on the
basis of the last optimal LP: a fixing that leaves it primal infeasible is
repaired by a few dual simplex pivots instead of a cold solve.  Warm results
always agree with a cold solve; flip shadow_check=True to have the context
assert that on every call.
"""

from banditmip import BoundState, SimplexContext, generate_instance, solve_lp

model = generate_instance("gap", (24, 4), seed=5)
bounds = BoundState.from_model(model)

ctx = SimplexContext(model, shadow_check=True)
root = ctx.solve(bounds)
print(f"root relaxation: {root.status.value}, objective {root.objective:.4f}, "
      f"{root.iterations} pivots")

# fix a few integer variables the way a dive would and re-solve warm from
# the last optimal basis
res = root
for j, value in [(0, 1.0), (7, 0.0), (13, 0.0)]:
    bounds = bounds.fixed(j, value)
    res = ctx.solve(bounds, basis=res.basis)
    print(f"  after fixing x{j}={value:g}: {res.status.value}, "
          f"objective {res.objective:.4f}, {res.iterations} pivots")

# crossing bounds are recognized without pivoting
dead = bounds.fixed(2, 1.0).fixed(2, 0.0)
res = ctx.solve(dead, basis=res.basis)
print(f"contradictory fixing: {res.status.value} after {res.iterations} pivots")

# one-shot interface without a reusable context
cold = solve_lp(model, BoundState.from_model(model))
print(f"cold solve agrees with the context: "
      f"{abs(cold.objective - root.objective) < 1e-9}")
