"""Reference optima from scipy's HiGHS, for the benchmark's correctness gate.

Runs as its own process so that scipy and HiGHS never load into the process
whose time and memory the benchmark measures.  Prints one JSON object:
``{"optima": [...]}`` in the order of the workload's instances.

    python3 perfbench/reference.py --workload gap_bandit --workload-seed 1
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

import workloads


def optimum(inst) -> float:
    from scipy.optimize import Bounds, LinearConstraint, milp

    senses = np.array(inst.senses)
    lo = np.where(senses == "L", -np.inf, inst.rhs)
    hi = np.where(senses == "G", np.inf, inst.rhs)
    res = milp(inst.c, constraints=LinearConstraint(inst.dense(), lo, hi),
               integrality=np.ones(inst.n), bounds=Bounds(0.0, 1.0),
               options={"time_limit": 120.0})
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove an optimum for {inst.name}: {res.message}")
    return float(res.fun)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--workload-seed", type=int, default=workloads.WORKLOAD_SEED)
    args = ap.parse_args(argv)
    wl = workloads.build(args.workload, args.workload_seed)
    print(json.dumps({"optima": [optimum(inst) for inst in wl.instances]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
