"""The banditmip benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload gap_bandit --seed 3 --seconds 30 --trace 0

Run from the root of a checkout.  The solver is imported from ``src/`` of that
checkout; without it the benchmark exits with status 2 and prints no result.

``--workload all`` runs every workload in turn, each in its own process.

The run parses the workload's MPS text with ``parse_mps`` (set-up), then
solves its instances with ``solve`` one at a time, a closed loop of sweeps,
while the next sweep still fits in ``--seconds`` and for at least three
sweeps.  ``--seed`` orders the solves of each sweep; the instances and solver
seeds come from the workload seed (see workloads.py), so every sweep does the
same work.  Each
solve passes a correctness gate against a HiGHS reference optimum, computed
in a separate process before anything is timed.  Counts must repeat exactly
on every sweep, and on every run of the same code in this checkout.

With ``--trace 0`` the last line of output carries the end-to-end metrics.
With ``--trace 1`` the run alternates untraced and traced sweeps and reports
the per-layer metrics of spans.py plus the tracing overhead.  Spans and the
full result are written under ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys


def _cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


NPROC = _cap_blas_threads()

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import instances  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 3  # set-ups before the first sweep and after each sweep
# On a 2-vCPU KVM guest (Xeon), identical work ran up to twice as slowly in
# the first 2-3 s of sustained load in a fresh process, so nothing is timed
# before the solver has run this long.
WARMUP_SECONDS = 3.0
TOL = 1e-6

E2E_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "first_incumbent_s": "s",
    "first_incumbent_node": "count",
    "primal_integral": "s",
    "peak_rss_mb": "MB",
}
# Printed and saved with every untraced run but not on the result line: with
# one solve per sweep they repeat solve_s and the run's slowest sweep.
LATENCY_UNITS = {"solve_ms.p50": "ms", "solve_ms.p90": "ms"}


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.startswith("simplex.solve_ms"):
        return "ms"
    if name == "simplex.us_per_pivot":
        return "us"
    if name in ("heuristics.found_ratio", "bnb.final_gap", "trace.overhead"):
        return "ratio"
    return "count"


def blas_threads():
    """Threads OpenBLAS reports, or None when the library cannot be asked."""
    import ctypes

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(str(ROOT / "src" / "banditmip" / "*.py"))
                       + glob.glob(str(HERE / "*.py"))):
        h.update(Path(path).read_bytes())
    return h.hexdigest()[:16]


def reference_optima(args) -> list:
    proc = subprocess.run(
        [sys.executable, str(HERE / "reference.py"), "--workload", args.workload,
         "--workload-seed", str(args.workload_seed)],
        capture_output=True, text=True, timeout=150, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"reference optimum failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["optima"]


# ---------------------------------------------------------------------------
# one solve
# ---------------------------------------------------------------------------

class IncumbentClock:
    """Stamps each incumbent the top-level tree accepts with time and node count."""

    def __init__(self, bnb):
        self.tree_cls = bnb.TreeSearch
        self.events = []

    def __enter__(self):
        orig = self.orig = self.tree_cls.update_incumbent
        events = self.events

        def update_incumbent(tree, x, source="lp"):
            accepted = orig(tree, x, source)
            if accepted and tree.heur_layer == "auto":
                events.append((time.perf_counter(), tree.nodes_processed,
                               tree.incumbent.objective))
            return accepted

        self.tree_cls.update_incumbent = update_incumbent
        return self

    def __exit__(self, *exc):
        self.tree_cls.update_incumbent = self.orig
        return False


def primal_gap(obj: float, opt: float) -> float:
    """Berthold's primal gap of an objective against the optimum."""
    if abs(obj - opt) <= TOL * max(1.0, abs(opt)):
        return 0.0
    if obj * opt < 0:
        return 1.0
    return abs(obj - opt) / max(abs(obj), abs(opt))


def primal_integral(t0: float, t_end: float, events, opt: float) -> float:
    total, t_prev, gap = 0.0, t0, 1.0
    for t, _, obj in events:
        total += gap * (t - t_prev)
        t_prev, gap = t, primal_gap(obj, opt)
    return total + gap * (t_end - t_prev)


def run_solve(bm, clock, model, inst, job, opt) -> dict:
    settings = bm.SolverSettings(mode=job.mode, seed=job.solver_seed,
                                 node_limit=job.node_budget, time_limit_s=None)
    clock.events.clear()
    t0 = time.perf_counter()
    try:
        res = bm.bnb.solve(model, settings)
    except Exception as exc:  # a solver crash is a failed solve, not a crashed run
        wall = time.perf_counter() - t0
        return {"wall": wall, "failures": [f"raised {type(exc).__name__}: {exc}"],
                "signature": ["raised", type(exc).__name__, str(exc)]}
    t_end = time.perf_counter()
    events = list(clock.events)
    status = res.status.value
    obj, dual = res.objective, float(res.dual_bound)
    failures = []
    if status != "optimal" and res.nodes_processed < job.node_budget:
        failures.append(f"stopped early: {status} after {res.nodes_processed} "
                        f"of {job.node_budget} nodes")
    if res.incumbent is not None:
        x = np.asarray(res.incumbent.values, dtype=float)
        viol = instances.violation(inst, x)
        if viol > TOL:
            failures.append(f"incumbent violates the model by {viol:.3g}")
        cx = float(inst.c @ x)
        if abs(cx - obj) > TOL * max(1.0, abs(cx)):
            failures.append(f"reported objective {obj!r} but c.x = {cx!r}")
    scale = TOL * max(1.0, abs(opt))
    if dual > opt + scale:
        failures.append(f"dual bound {dual!r} exceeds the reference optimum {opt!r}")
    if status == "optimal" and (obj is None or abs(obj - opt) > scale):
        failures.append(f"optimal with objective {obj!r}, reference {opt!r}")
    if obj is None:
        final_gap = 1.0
    else:
        final_gap = (obj - dual) / max(abs(obj), 1.0)
    first_t, first_node = (events[0][0], events[0][1]) if events else (t_end, res.nodes_processed)
    return {
        "wall": t_end - t0,
        "first_incumbent_s": first_t - t0,
        "first_incumbent_node": first_node,
        "primal_integral": primal_integral(t0, t_end, events, opt),
        "final_gap": final_gap,
        "failures": failures,
        "signature": [status, res.nodes_processed, obj, dual, first_node,
                      len(events), final_gap],
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def warm_up(bm, wl, models, seconds: float) -> None:
    """Run short, untimed solves of the workload's jobs for the given time."""
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        for job in wl.solves:
            settings = bm.SolverSettings(mode=job.mode, seed=job.solver_seed, node_limit=3,
                                         time_limit_s=None, lp_iter_limit=300)
            bm.bnb.solve(models[job.instance], settings)
            if time.perf_counter() - t0 >= seconds:
                return


def parse_all(bm, texts, tracer=None):
    """One set-up: parse every MPS text; returns the models and its seconds."""
    first = len(tracer.spans) if tracer else 0
    t0 = time.perf_counter()
    models = [bm.model.parse_mps(text) for text in texts]
    wall = time.perf_counter() - t0
    if tracer:  # the parse spans alone, without the loop around them
        wall = sum(s.duration for s in tracer.spans[first:] if s.name == "model.parse")
    return models, wall


def parse_failures(models, wl) -> list:
    out = []
    for model, inst in zip(models, wl.instances):
        nnz = sum(len(cols) for cols in model.row_cols)
        if (model.m, model.n, nnz) != (inst.m, inst.n, inst.nnz) or len(model.integers) != inst.n:
            out.append(f"{inst.name}: parsed {model.m}x{model.n} with {nnz} nnz and "
                       f"{len(model.integers)} integers, expected {inst.m}x{inst.n}, {inst.nnz}")
    return out


def sweep(bm, clock, wl, models, optima, order, tracer=None) -> dict:
    records = {}
    t0 = time.perf_counter()
    for idx in order:
        job = wl.solves[idx]
        if tracer:
            tracer.solve_id = idx
        records[idx] = run_solve(bm, clock, models[job.instance], wl.instances[job.instance],
                                 job, optima[job.instance])
    return {"solve_s": time.perf_counter() - t0, "records": records}


def check_cross_run(path: Path, code: str, sig: dict, failures: list) -> None:
    """Counts of this run must equal those of earlier runs of the same code here."""
    saved = json.loads(path.read_text()) if path.is_file() else None
    if saved is not None and saved.get("code") == code:
        for key, value in sig.items():
            if key in saved and saved[key] != value:
                failures.append(f"nondeterministic: {key} differs from an earlier run "
                                f"of the same code ({saved[key]} vs {value})")
        saved.update(sig)
    else:
        saved = dict(sig, code=code)
    path.write_text(json.dumps(saved, sort_keys=True))


def run_all(args) -> int:
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workload-seed", str(args.workload_seed)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with status {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def check_sweeps(wl, plain, traced, failures) -> tuple[int, int]:
    """Apply the gate to every solve; returns (attempted, failed) solves."""
    attempted, failed = 0, 0
    reference = plain[0]["records"]
    for k, sw in enumerate(plain + traced):
        for idx, rec in sw["records"].items():
            attempted += 1
            problems = list(rec["failures"])
            if rec["signature"] != reference[idx]["signature"]:
                problems.append(f"nondeterministic: {rec['signature']} vs "
                                f"{reference[idx]['signature']}")
            if problems:
                failed += 1
                job = wl.solves[idx]
                failures += [f"sweep {k} solve {idx} ({wl.instances[job.instance].name}, "
                             f"{job.mode}): {p}" for p in problems]
    for sw in traced[1:]:
        counts, first = sw["layers"][0], traced[0]["layers"][0]
        if counts != first:
            diff = {k: (v, first[k]) for k, v in counts.items() if v != first[k]}
            failures.append(f"nondeterministic layer counts: {diff}")
    return attempted, failed


def end_to_end(plain, setup_reps) -> dict:
    walls = [r["wall"] * 1e3 for sw in plain for r in sw["records"].values()]
    complete = [list(sw["records"].values()) for sw in plain
                if all("primal_integral" in r for r in sw["records"].values())]
    first_sweep = plain[0]["records"].values()
    return {
        "setup_s": statistics.median(setup_reps),
        "solve_s": statistics.median(sw["solve_s"] for sw in plain),
        "first_incumbent_s": statistics.median(
            statistics.median(r["first_incumbent_s"] for r in recs) for recs in complete),
        "first_incumbent_node": sum(r.get("first_incumbent_node", 0) for r in first_sweep),
        "primal_integral": statistics.median(
            sum(r["primal_integral"] for r in recs) for recs in complete),
        "solve_ms.p50": statistics.median(walls),
        "solve_ms.p90": statistics.quantiles(walls, n=10, method="inclusive")[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


COVERAGE = ("simplex.node.s", "simplex.dive.s", "simplex.sub.s", "simplex.contexts.s",
            "simplex.cut_rows.s", "bnb.self_s", "heuristics.self_s", "scheduler.self_s",
            "model.evaluate.s")


def per_layer(plain, traced, setup_reps, models) -> dict:
    counts = dict(traced[0]["layers"][0])
    times = {k: statistics.median(sw["layers"][1][k] for sw in traced)
             for k in traced[0]["layers"][1]}
    remainders = [sw["solve_s"] - sum(sw["layers"][1][k] for k in COVERAGE) for sw in traced]
    return {
        **counts,
        **times,
        "bnb.final_gap": statistics.mean(r.get("final_gap", 1.0)
                                         for r in plain[0]["records"].values()),
        "model.parse.s": statistics.median(setup_reps),
        "model.rows": sum(m.m for m in models),
        "model.cols": sum(m.n for m in models),
        "model.nnz": sum(sum(len(c) for c in m.row_cols) for m in models),
        "trace.overhead": (statistics.median(sw["solve_s"] for sw in traced)
                           / statistics.median(sw["solve_s"] for sw in plain)),
        "trace.remainder_s": statistics.median(remainders),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload-seed", type=int, default=workloads.WORKLOAD_SEED,
                    help=f"instance and solver seeds; {workloads.SECOND_WORKLOAD_SEED} "
                         "is the recorded second seed")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    src = ROOT / "src"
    if not (src / "banditmip" / "__init__.py").is_file():
        print(f"perfbench: no banditmip package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import banditmip as bm
    import banditmip.bnb  # noqa: F401  (submodules the tracer patches)
    import banditmip.heuristics  # noqa: F401
    import banditmip.scheduler  # noqa: F401
    import banditmip.simplex  # noqa: F401

    wl = workloads.build(args.workload, args.workload_seed)
    texts = [instances.to_mps(inst) for inst in wl.instances]
    optima = reference_optima(args)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-w{args.workload_seed}-s{args.seed}-t{args.trace}"

    tracer = spans.Tracer(bm) if args.trace else None
    setup_reps = []

    def set_up():
        # spread over the run, so that set-up time sees the same machine as the solves
        for _ in range(SETUP_REPS):
            if tracer:
                with tracer:
                    models, wall = parse_all(bm, texts, tracer)
            else:
                models, wall = parse_all(bm, texts)
            setup_reps.append(wall)
        return models

    warm_up(bm, wl, parse_all(bm, texts)[0], WARMUP_SECONDS)
    models = set_up()
    failures = parse_failures(models, wl)

    rng = random.Random(args.seed)
    order = list(range(len(wl.solves)))
    plain, traced = [], []
    min_sweeps = (2, 2) if tracer else (3, 0)
    t_start = time.perf_counter()
    with IncumbentClock(bm.bnb) as clock:
        while True:
            elapsed = time.perf_counter() - t_start
            typical = statistics.median(sw["solve_s"] for sw in plain + traced) if plain else 0.0
            if (len(plain) >= min_sweeps[0] and len(traced) >= min_sweeps[1]
                    and elapsed + typical > args.seconds):
                break
            rng.shuffle(order)
            if tracer and len(traced) < len(plain):
                first = len(tracer.spans)
                with tracer:
                    result = sweep(bm, clock, wl, models, optima, order, tracer)
                result["layers"] = spans.layer_metrics(tracer.spans[first:])
                traced.append(result)
            else:
                plain.append(sweep(bm, clock, wl, models, optima, order))
            set_up()

    attempted, failed = check_sweeps(wl, plain, traced, failures)
    code = code_hash()
    run_sig = {"solves": {str(i): r["signature"] for i, r in plain[0]["records"].items()}}
    if traced:
        run_sig["layers"] = traced[0]["layers"][0]
    # floating-point results, and so the search, depend on the BLAS thread count
    check_cross_run(OUT / f"counts-{args.workload}-w{args.workload_seed}.json",
                    f"{code}-blas{blas_threads()}", run_sig, failures)

    e2e = end_to_end(plain, setup_reps)
    if tracer:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in per_layer(plain, traced, setup_reps, models).items()}
        tracer.write(OUT / f"spans-{tag}.jsonl")
    else:
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in E2E_UNITS.items()}

    samples = sum(len(sw["records"]) for sw in plain)
    env = {"python": platform.python_version(), "numpy": np.__version__, "nproc": NPROC,
           "blas_threads": blas_threads(),
           "blas_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
           "code": code}
    summary = {
        "workload": args.workload, "workload_seed": args.workload_seed, "seed": args.seed,
        "trace": args.trace, "env": env, "instances": [i.name for i in wl.instances],
        "sweep_solve_s": {"plain": [sw["solve_s"] for sw in plain],
                          "traced": [sw["solve_s"] for sw in traced]},
        "solves_per_sweep": len(wl.solves), "latency_samples": samples,
        "reference_optima": optima, "failures": failures, "end_to_end": e2e,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps({**summary, "metrics": metrics}, indent=1))

    print(f"# {args.workload} (workload seed {args.workload_seed}, seed {args.seed}): "
          f"{len(plain)} sweeps + {len(traced)} traced of {len(wl.solves)} solves; "
          f"{samples} latency samples")
    print(f"# env {json.dumps(env)}")
    for line in failures:
        print(f"# FAIL {line}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    if not tracer:
        for name, unit in LATENCY_UNITS.items():
            print(f"{name:34s} {e2e[name]:>16.6g} {unit}  ({samples} solves)")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed if correct or failed else 1, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
