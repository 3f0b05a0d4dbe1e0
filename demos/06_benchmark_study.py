"""A small default-vs-scheduler benchmark with a shifted-geomean summary.

Every (instance, seed) pair is solved under both modes; the summary
aggregates solved counts, times and node counts with shifted geometric means
(shifts: 1s for time, 100 for nodes) and reports scheduler/default ratios,
overall, per time bracket and on the subset solved to optimality everywhere.

The same thing is available from the command line:

    banditmip bench suite.txt --seeds 1,2,3,4 --out runs.csv
    banditmip summarize runs.csv --brackets 1,10,30
"""

import io

from banditmip.bnb import SolverSettings
from banditmip.cli import bench_rows, format_summary, summarize_runs, write_csv

SUITE = [
    "gen:gap:n=30,m=5,seed=0",
    "gen:gap:n=33,m=6,seed=1",
    "gen:gap:n=36,m=5,seed=2",
    "gen:set_cover:n=30,m=15,seed=0",
    "gen:set_cover:n=34,m=17,seed=1",
    "gen:set_cover:n=38,m=14,seed=2",
    "gen:knapsack:n=24,m=4,seed=0",
    "gen:knapsack:n=26,m=5,seed=1",
]
SEEDS = [1, 2, 3, 4]

base = SolverSettings(node_limit=400)
buf = io.StringIO()
write_csv(bench_rows(SUITE, SEEDS, base), buf)
print(f"ran {len(SUITE)} instances x {len(SEEDS)} seeds x 2 modes")

buf.seek(0)
table = summarize_runs(buf, brackets=[0.05, 0.2])
print()
print(format_summary(table))
print()
print("relative nodes < 1 means the scheduler shrank the tree on this suite;"
      "\ntiny instances solve in milliseconds, so the time columns mostly show"
      "\nconstant per-call overhead rather than anything structural.")
