"""Command line front end: single solves, benchmark sweeps and summary tables.

``solve`` runs one instance and can dump a JSONL log with one record per
scheduler call plus a final run-stats record.  ``bench`` runs the cross
product of a manifest's instances, a seed list and both modes into a CSV
with a stable column schema.  ``summarize`` aggregates such a CSV with
shifted geometric means into a comparison table (overall, time brackets and
the subset solved to optimality everywhere).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

from .bnb import RunStats, SolverSettings, solve
from .heuristics import DEFAULT_ORDER
from .model import load_instance

TIME_SHIFT = 1.0
NODE_SHIFT = 100.0


class EmptyInput(ValueError):
    """An aggregate was requested over an empty value list."""


class SchemaMismatch(ValueError):
    """A stats CSV does not carry the expected columns."""


def shifted_geomean(values, shift: float) -> float:
    """exp(mean(ln(v + shift))) - shift over nonnegative values."""
    values = list(values)
    if not values:
        raise EmptyInput("shifted_geomean of an empty list")
    if shift <= 0:
        raise ValueError("shift must be positive")
    acc = sum(math.log(v + shift) for v in values)
    return math.exp(acc / len(values)) - shift


# ---------------------------------------------------------------------------
# runs and CSV schema
# ---------------------------------------------------------------------------

CSV_COLUMNS = [
    "instance", "seed", "mode", "status", "time_s", "nodes", "objective",
    "incumbents_found_by_heuristics", "heuristic_calls",
    "heuristic_successes", "heurtime_s",
] + [
    f"{h}_{suffix}"
    for h in DEFAULT_ORDER
    for suffix in ("pulls", "successes", "mean_reward", "final_limit")
]

TIME_COLUMNS = ("time_s", "heurtime_s")


def run_single(uri: str, settings: SolverSettings) -> tuple:
    """Solve one instance URI; returns (RunStats, SolveResult)."""
    model = load_instance(uri)
    result = solve(model, settings)
    stats = result.stats
    stats.instance = uri
    if stats.objective is not None and model.maximize:
        stats.objective = -stats.objective
    return stats, result


def stats_to_row(stats: RunStats) -> dict:
    row = {
        "instance": stats.instance,
        "seed": str(stats.seed),
        "mode": stats.mode,
        "status": stats.status,
        "time_s": repr(float(stats.time_s)),
        "nodes": str(stats.nodes),
        "objective": "" if stats.objective is None else repr(float(stats.objective)),
        "incumbents_found_by_heuristics": str(stats.incumbents_found_by_heuristics),
        "heuristic_calls": str(stats.heuristic_calls),
        "heuristic_successes": str(stats.heuristic_successes),
        "heurtime_s": repr(float(stats.heurtime_s)),
    }
    for h in DEFAULT_ORDER:
        st = stats.per_heuristic.get(h)
        row[f"{h}_pulls"] = str(st.pulls if st else 0)
        row[f"{h}_successes"] = str(st.successes if st else 0)
        mean = st.mean_reward if st else None
        row[f"{h}_mean_reward"] = "" if mean is None else repr(float(mean))
        lim = st.final_limit if st else None
        row[f"{h}_final_limit"] = "" if lim is None else repr(float(lim))
    return row


def error_row(uri: str, seed: int, mode: str) -> dict:
    row = {col: "" for col in CSV_COLUMNS}
    row.update(instance=uri, seed=str(seed), mode=mode, status="error")
    return row


def bench_rows(uris, seeds, base: SolverSettings, modes=("default", "scheduler")):
    """Cross product of instances x seeds x modes; failures become error rows.

    Each failure also prints its URI, seed, mode and exception to stderr.
    """
    for uri in uris:
        for seed in seeds:
            for mode in modes:
                settings = dataclasses.replace(base, seed=seed, mode=mode)
                try:
                    stats, _ = run_single(uri, settings)
                except Exception as exc:  # one failed run must not end the sweep
                    print(f"bench: error on {uri} seed={seed} mode={mode}: "
                          f"{type(exc).__name__}: {exc}", file=sys.stderr)
                    yield error_row(uri, seed, mode)
                else:
                    yield stats_to_row(stats)


def write_csv(rows, fh):
    writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


# ---------------------------------------------------------------------------
# summary table
# ---------------------------------------------------------------------------

@dataclass
class SummaryRow:
    label: str
    count: int
    solved_default: int = 0
    time_default: Optional[float] = None
    nodes_default: Optional[float] = None
    solved_scheduler: int = 0
    time_scheduler: Optional[float] = None
    nodes_scheduler: Optional[float] = None
    rel_time: Optional[float] = None
    rel_nodes: Optional[float] = None
    rel_heurtime: Optional[float] = None


def _read_runs(fh):
    reader = csv.DictReader(fh)
    missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or [])]
    if missing:
        raise SchemaMismatch(f"stats CSV lacks columns: {missing}")
    pairs = {}
    for row in reader:
        if row["status"] == "error":
            continue
        for col in ("time_s", "nodes", "heurtime_s"):  # the columns summarize aggregates
            try:
                float(row[col])
            except (TypeError, ValueError):
                raise SchemaMismatch(f"stats CSV line {reader.line_num}: column {col!r} "
                                     f"holds {row[col]!r}, not a number") from None
        key = (row["instance"], row["seed"])
        pairs.setdefault(key, {})[row["mode"]] = row
    return {k: v for k, v in pairs.items()
            if "default" in v and "scheduler" in v}


def _aggregate(label, pairs) -> SummaryRow:
    out = SummaryRow(label=label, count=len(pairs))
    if not pairs:
        return out
    per_mode = {}
    for mode in ("default", "scheduler"):
        rows = [v[mode] for v in pairs.values()]
        solved = sum(1 for r in rows if r["status"] == "optimal")
        times = [float(r["time_s"]) for r in rows]
        nodes = [float(r["nodes"]) for r in rows]
        heurtimes = [float(r["heurtime_s"]) for r in rows]
        per_mode[mode] = {
            "solved": solved,
            "time": shifted_geomean(times, TIME_SHIFT),
            "nodes": shifted_geomean(nodes, NODE_SHIFT),
            "heurtime": shifted_geomean(heurtimes, TIME_SHIFT),
        }
    out.solved_default = per_mode["default"]["solved"]
    out.time_default = per_mode["default"]["time"]
    out.nodes_default = per_mode["default"]["nodes"]
    out.solved_scheduler = per_mode["scheduler"]["solved"]
    out.time_scheduler = per_mode["scheduler"]["time"]
    out.nodes_scheduler = per_mode["scheduler"]["nodes"]

    def ratio(a, b):
        return a / b if b else None

    out.rel_time = ratio(per_mode["scheduler"]["time"], per_mode["default"]["time"])
    out.rel_nodes = ratio(per_mode["scheduler"]["nodes"], per_mode["default"]["nodes"])
    out.rel_heurtime = ratio(per_mode["scheduler"]["heurtime"],
                             per_mode["default"]["heurtime"])
    return out


def summarize_runs(fh, brackets=(), time_limit: float = 60.0):
    """Build the comparison table: all pairs, time brackets, all-optimal subset."""
    pairs = _read_runs(fh)
    rows = [_aggregate("all", pairs)]
    for t in brackets:
        subset = {
            k: v for k, v in pairs.items()
            if any(v[m]["status"] == "optimal" for m in ("default", "scheduler"))
            and max(float(v[m]["time_s"]) for m in ("default", "scheduler")) >= t
        }
        rows.append(_aggregate(f"[{t:g},{time_limit:g}]", subset))
    by_instance = {}
    for (inst, seed), v in pairs.items():
        by_instance.setdefault(inst, []).append(v)
    all_opt = {
        k: v for k, v in pairs.items()
        if all(r[m]["status"] == "optimal"
               for r in by_instance[k[0]] for m in ("default", "scheduler"))
    }
    rows.append(_aggregate("all-optimal", all_opt))
    return rows


def format_summary(rows) -> str:
    def fmt(v, nd=2):
        return "-" if v is None else f"{v:.{nd}f}"

    header = (
        f"{'subset':<14}{'n':>5} | {'solved':>6}{'time':>9}{'nodes':>9} | "
        f"{'solved':>6}{'time':>9}{'nodes':>9} | {'time':>6}{'nodes':>6}{'heurt':>6}"
    )
    lines = [
        f"{'':<14}{'':>5} | {'default':>24} | {'scheduler':>24} | {'relative':>18}",
        header,
        "-" * len(header),
    ]
    for r in rows:
        lines.append(
            f"{r.label:<14}{r.count:>5} | "
            f"{r.solved_default:>6}{fmt(r.time_default):>9}{fmt(r.nodes_default, 1):>9} | "
            f"{r.solved_scheduler:>6}{fmt(r.time_scheduler):>9}{fmt(r.nodes_scheduler, 1):>9} | "
            f"{fmt(r.rel_time):>6}{fmt(r.rel_nodes):>6}{fmt(r.rel_heurtime):>6}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

_OPTIONAL_INT_KEYS = {"node_limit"}
_OPTIONAL_FLOAT_KEYS = {"time_limit_s"}


def apply_config(settings: SolverSettings, text: str) -> SolverSettings:
    """Apply flat ``key = value`` overrides; unknown keys are an error."""
    valid = {f.name for f in dataclasses.fields(SolverSettings)}
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in valid:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            updates[key] = _coerce(settings, key, value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    return dataclasses.replace(settings, **updates)


def _coerce(settings, key, value):
    """``value`` as the type of setting ``key``; a ValueError names the key and the value."""
    current = getattr(settings, key)
    if key in _OPTIONAL_INT_KEYS or key in _OPTIONAL_FLOAT_KEYS:
        if value.lower() == "none":
            return None
        kind = int if key in _OPTIONAL_INT_KEYS else float
    elif isinstance(current, bool):
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"key {key!r}: expected a boolean, got {value!r}")
    elif isinstance(current, (int, float)):
        kind = int if isinstance(current, int) else float
    else:
        return value
    try:
        return kind(value)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ValueError(f"key {key!r}: expected {expected}, got {value!r}") from None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _number_list(text: str, kind, option: str) -> list:
    """A comma-separated option value as numbers; a ValueError names the option and its value."""
    try:
        return [kind(item) for item in text.split(",")]
    except ValueError:
        raise ValueError(f"{option}: expected comma-separated numbers, got {text!r}") from None


def _settings_from_args(args) -> SolverSettings:
    settings = SolverSettings()
    if getattr(args, "config", None):
        with open(args.config) as fh:
            settings = apply_config(settings, fh.read())
    if getattr(args, "mode", None):
        settings = dataclasses.replace(settings, mode=args.mode)
    if getattr(args, "seed", None) is not None:
        settings = dataclasses.replace(settings, seed=args.seed)
    if getattr(args, "time_limit", None) is not None:
        settings = dataclasses.replace(settings, time_limit_s=args.time_limit)
    if getattr(args, "node_limit", None) is not None:
        settings = dataclasses.replace(settings, node_limit=args.node_limit)
    return settings


def cmd_solve(args) -> int:
    try:
        settings = _settings_from_args(args)
        stats, result = run_single(args.instance, settings)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.log:
        with open(args.log, "w") as fh:
            for rec in result.scheduler_log:
                fh.write(json.dumps({"type": "call", **rec}, sort_keys=True) + "\n")
            fh.write(json.dumps(
                {"type": "run_stats", **stats_to_row(stats),
                 "max_row_residual": repr(float(stats.max_row_residual))},
                sort_keys=True,
            ) + "\n")
    obj = "-" if stats.objective is None else f"{stats.objective:.6g}"
    print(f"{args.instance}: status={stats.status} objective={obj} "
          f"nodes={stats.nodes} time={stats.time_s:.3f}s "
          f"heur_calls={stats.heuristic_calls} "
          f"heur_incumbents={stats.incumbents_found_by_heuristics}")
    return 0


def cmd_bench(args) -> int:
    try:
        with open(args.manifest) as fh:
            uris = [line.strip() for line in fh
                    if line.strip() and not line.strip().startswith("#")]
        base = _settings_from_args(args)
        seeds = _number_list(args.seeds, int, "--seeds") if args.seeds else [0]
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w", newline="") as fh:
        write_csv(bench_rows(uris, seeds, base), fh)
    print(f"wrote {args.out}")
    return 0


def cmd_summarize(args) -> int:
    try:
        brackets = _number_list(args.brackets, float, "--brackets") if args.brackets else []
        with open(args.csv) as fh:
            rows = summarize_runs(fh, brackets=brackets, time_limit=args.time_limit)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_summary(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="banditmip",
        description="Branch-and-bound MIP solver with bandit-scheduled heuristics",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a single instance")
    ps.add_argument("instance", help="gen:... URI or MPS file path")
    ps.add_argument("--mode", choices=("default", "scheduler"), default=None)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--time-limit", type=float, default=None)
    ps.add_argument("--node-limit", type=int, default=None)
    ps.add_argument("--config", default=None)
    ps.add_argument("--log", default=None, help="JSONL call log output path")
    ps.set_defaults(func=cmd_solve)

    pb = sub.add_parser("bench", help="run a manifest of instances")
    pb.add_argument("manifest", help="file with one instance URI per line")
    pb.add_argument("--seeds", default="1,2,3,4")
    pb.add_argument("--out", default="runs.csv")
    pb.add_argument("--time-limit", type=float, default=None)
    pb.add_argument("--node-limit", type=int, default=None)
    pb.add_argument("--config", default=None)
    pb.set_defaults(func=cmd_bench)

    pm = sub.add_parser("summarize", help="aggregate a bench CSV")
    pm.add_argument("csv")
    pm.add_argument("--brackets", default="")
    pm.add_argument("--time-limit", type=float, default=60.0,
                    help="nominal per-run limit used in bracket labels")
    pm.set_defaults(func=cmd_summarize)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    raise SystemExit(main())
