"""Watching the bandit schedule heuristics during a solve.

The first six executed calls warmstart every heuristic once in the default
order (rens, rins, mutation, frac_dive, coef_dive, rand_dive); inapplicable
ones are deferred until an incumbent exists.  Afterwards an epsilon-greedy
bandit selects by average reward, working limits adapt per call, and long
failure streaks make the scheduler skip whole invocations.
"""

from collections import Counter

from banditmip import SolverSettings, generate_instance, solve
from banditmip.scheduler import compute_skip_count, epsilon_t

model = generate_instance("gap", (36, 6), seed=2)
settings = SolverSettings(mode="scheduler", seed=2)
res = solve(model, settings)
log = res.scheduler_log
print(f"{res.status.value}, objective {res.objective:g}, "
      f"{res.nodes_processed} nodes, {len(log)} scheduler calls\n")

print("  t  heuristic   r_total  r_sol r_gap r_eff r_conf  limit->  n_fail skip")
for rec in log[:14]:
    tag = "*" if rec["warmstart"] else " "
    print(f"{tag}{rec['t']:>3}  {rec['h']:<10} {rec['r_total']:7.3f}  "
          f"{rec['r_sol']:5.2f} {rec['r_gap']:5.2f} {rec['r_eff']:5.2f} "
          f"{rec['r_conf']:6.2f}  {rec['limit_after']:7.4f} "
          f"{rec['n_fail']:6d} {rec['skip_remaining']:4d}")
if len(log) > 14:
    print(f"  ... {len(log) - 14} more calls")

pulls = Counter(rec["h"] for rec in log)
print("\npull counts:", dict(pulls))

arms = res.stats.per_heuristic  # the scheduler's own record of each heuristic
print("mean rewards:",
      {h: round(arm.mean_reward, 3) for h, arm in arms.items() if arm.pulls})
print("final limits:",
      {h: round(arm.limit.value, 3) for h, arm in arms.items()})

# the exploration probability decays with the iteration count
print("\neps_t:", ", ".join(f"t={t}: {epsilon_t(settings.epsilon, 6, t):.3f}"
                            for t in (6, 12, 50, 200, 1000)))
# and sustained failure grows the skip window
print("skips after n_fail:",
      {n: compute_skip_count(n, settings.beta) for n in (5, 10, 23, 40)})
