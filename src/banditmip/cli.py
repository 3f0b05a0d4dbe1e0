"""Command line front end: single solves, benchmark sweeps and summary tables.

``solve`` runs one instance and can dump a JSONL log with one record per
scheduler call plus a final run-stats record.  ``bench`` runs the cross
product of a manifest's instances, a seed list and every declared mode into a
CSV with a stable column schema.  ``summarize`` aggregates such a CSV with
shifted geometric means into a comparison table (overall, time brackets and
the subset solved to optimality everywhere).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field

from .bnb import SETTING_SPECS, SolverSettings, solve
from .heuristics import DEFAULT_ORDER
from .model import load_instance

TIME_SHIFT = 1.0
NODE_SHIFT = 100.0
# the modes bench runs and summarize compares; the first is the one the ratios are over
MODES = SETTING_SPECS["mode"].choices
# (CSV column, summary key, geomean shift): the cells summarize checks and aggregates
AGGREGATED = (("time_s", "time", TIME_SHIFT), ("nodes", "nodes", NODE_SHIFT),
              ("heurtime_s", "heurtime", TIME_SHIFT))


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
    "heuristic_calls", "heuristic_successes", "heurtime_s",
] + [
    f"{h}_{suffix}"
    for h in DEFAULT_ORDER
    for suffix in ("pulls", "successes", "mean_reward", "final_limit")
]


def run_single(uri: str, settings: SolverSettings) -> tuple:
    """Solve one instance URI; returns its CSV row and the SolveResult as the solver left it.

    The result is in minimize form; the row reports the objective in the input's own sense.
    """
    model = load_instance(uri)
    result = solve(model, settings)
    stats, objective = result.stats, result.objective
    if objective is not None and model.maximize:
        objective = -objective
    row = {
        "instance": uri,
        "seed": str(settings.seed),
        "mode": settings.mode,
        "status": result.status.value,
        "time_s": repr(float(stats.time_s)),
        "nodes": str(result.nodes_processed),
        "objective": "" if objective is None else repr(float(objective)),
        "heuristic_calls": str(stats.heuristic_calls),
        "heuristic_successes": str(stats.heuristic_successes),
        "heurtime_s": repr(float(stats.heurtime_s)),
    }
    for h in DEFAULT_ORDER:
        arm = stats.per_heuristic[h]
        row[f"{h}_pulls"] = str(arm.pulls)
        row[f"{h}_successes"] = str(arm.successes)
        mean = arm.mean_reward
        row[f"{h}_mean_reward"] = "" if mean is None else repr(float(mean))
        row[f"{h}_final_limit"] = repr(float(arm.limit.value))
    return row, result


def error_row(uri: str, seed: int, mode: str) -> dict:
    row = {col: "" for col in CSV_COLUMNS}
    row.update(instance=uri, seed=str(seed), mode=mode, status="error")
    return row


def bench_rows(uris, seeds, base: SolverSettings):
    """Cross product of instances x seeds x ``MODES``; failures become error rows.

    Each failure also prints its URI, seed, mode and exception to stderr.
    """
    for uri in uris:
        for seed in seeds:
            for mode in MODES:
                settings = dataclasses.replace(base, seed=seed, mode=mode)
                try:
                    row, _ = run_single(uri, settings)
                except Exception as exc:  # one failed run must not end the sweep
                    print(f"bench: error on {uri} seed={seed} mode={mode}: "
                          f"{type(exc).__name__}: {exc}", file=sys.stderr)
                    yield error_row(uri, seed, mode)
                else:
                    yield row


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
    """One subset of the table: ``per_mode`` holds each mode's solved count and ``AGGREGATED``
    geomeans (``None`` on an empty subset), ``relative`` each later mode's geomeans over the
    first mode's (``None`` where that one is 0 or missing)."""

    label: str
    count: int
    per_mode: dict = field(default_factory=dict)
    relative: dict = field(default_factory=dict)


def _read_runs(fh):
    """(instance, seed) -> {mode: row} for the pairs with a row in every mode; error rows
    are left out, and a run that appears twice is an error."""
    reader = csv.DictReader(fh)
    missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or [])]
    if missing:
        raise SchemaMismatch(f"stats CSV lacks columns: {missing}")
    pairs, lines = {}, {}
    for row in reader:
        run = (row["instance"], row["seed"], row["mode"])
        if run in lines:
            raise SchemaMismatch(f"stats CSV line {reader.line_num}: instance {run[0]!r} "
                                 f"seed {run[1]!r} mode {run[2]!r} repeats line {lines[run]}")
        lines[run] = reader.line_num
        if row["status"] == "error":
            continue
        for col, _, _ in AGGREGATED:
            try:
                usable = 0 <= float(row[col]) < math.inf  # NaN fails this too
            except (TypeError, ValueError):
                usable = False
            if not usable:
                raise SchemaMismatch(f"stats CSV line {reader.line_num}: column {col!r} "
                                     f"holds {row[col]!r}, not a finite number >= 0")
        pairs.setdefault(run[:2], {})[row["mode"]] = row
    return {k: v for k, v in pairs.items() if all(m in v for m in MODES)}


def _aggregate(label, pairs) -> SummaryRow:
    out = SummaryRow(label=label, count=len(pairs))
    for mode in MODES:
        runs = [v[mode] for v in pairs.values()]
        stats = out.per_mode[mode] = {"solved": sum(r["status"] == "optimal" for r in runs)}
        for col, key, shift in AGGREGATED:
            stats[key] = shifted_geomean([float(r[col]) for r in runs], shift) if runs else None
    first = out.per_mode[MODES[0]]
    for mode in MODES[1:]:
        out.relative[mode] = {key: out.per_mode[mode][key] / first[key] if first[key] else None
                              for _, key, _ in AGGREGATED}
    return out


def summarize_runs(fh, brackets=(), time_limit: float = 60.0):
    """Build the comparison table: all pairs, time brackets, all-optimal subset."""
    pairs = _read_runs(fh)
    rows = [_aggregate("all", pairs)]
    for t in brackets:
        subset = {k: v for k, v in pairs.items()
                  if any(v[m]["status"] == "optimal" for m in MODES)
                  and max(float(v[m]["time_s"]) for m in MODES) >= t}
        rows.append(_aggregate(f"[{t:g},{time_limit:g}]", subset))
    by_instance = {}
    for (inst, seed), v in pairs.items():
        by_instance.setdefault(inst, []).append(v)
    all_opt = {k: v for k, v in pairs.items()
               if all(r[m]["status"] == "optimal" for r in by_instance[k[0]] for m in MODES)}
    rows.append(_aggregate("all-optimal", all_opt))
    return rows


def format_summary(rows) -> str:
    """Each mode's block of solved count and time and node geomeans; after each later
    mode, its block of time, node and heuristic-time ratios over the first mode."""
    def fmt(v, nd=2):
        return "-" if v is None else f"{v:.{nd}f}"

    title, header = [f"{'':<14}{'':>5}"], [f"{'subset':<14}{'n':>5}"]
    for mode in MODES:
        title.append(f"{mode:>24}")
        header.append(f"{'solved':>6}{'time':>9}{'nodes':>9}")
        if mode != MODES[0]:
            title.append(f"{'relative':>18}")
            header.append(f"{'time':>6}{'nodes':>6}{'heurt':>6}")
    lines = [" | ".join(title), " | ".join(header), "-" * len(" | ".join(header))]
    for r in rows:
        cells = [f"{r.label:<14}{r.count:>5}"]
        for mode, s in r.per_mode.items():
            cells.append(f"{s['solved']:>6}{fmt(s['time']):>9}{fmt(s['nodes'], 1):>9}")
            if mode in r.relative:
                q = r.relative[mode]
                cells.append(f"{fmt(q['time']):>6}{fmt(q['nodes']):>6}{fmt(q['heurtime']):>6}")
        lines.append(" | ".join(cells))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def apply_config(settings: SolverSettings, text: str) -> SolverSettings:
    """Apply flat ``key = value`` overrides; an unknown or repeated key is an error."""
    updates, seen = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SETTING_SPECS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"config line {lineno}: key {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        try:
            updates[key] = _parse(key, value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    return dataclasses.replace(settings, **updates)


def _parse(key: str, value: str):
    """``value`` as the declared type of setting ``key``; a ValueError names both."""
    spec = SETTING_SPECS[key]
    if spec.optional and value.lower() == "none":
        return None
    if spec.kind is bool:
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"key {key!r}: expected a boolean, got {value!r}")
    if spec.kind is str:
        return value
    try:
        return spec.kind(value)
    except ValueError:
        expected = "an integer" if spec.kind is int else "a number"
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
    settings = _settings_from_args(args)
    # opened before the solve, so that an unusable path fails before the work
    with open(args.log, "w") if args.log else contextlib.nullcontext() as log:
        row, result = run_single(args.instance, settings)
        if log:
            for rec in result.scheduler_log:
                log.write(json.dumps({"type": "call", **rec}, sort_keys=True) + "\n")
            log.write(json.dumps(
                {"type": "run_stats", **row,
                 "max_row_residual": repr(float(result.stats.max_row_residual)),
                 "searched_rows": str(result.stats.searched_rows),
                 "lp_inversions": str(result.stats.lp_inversions),
                 "factor_reuses": str(result.stats.factor_reuses),
                 "tightened_bounds": str(result.stats.tightened_bounds),
                 "reduced_cost_fixings": str(result.stats.reduced_cost_fixings)},
                sort_keys=True,
            ) + "\n")
    obj = f"{float(row['objective']):.6g}" if row["objective"] else "-"
    print(f"{args.instance}: status={row['status']} objective={obj} "
          f"nodes={row['nodes']} time={result.stats.time_s:.3f}s "
          f"heur_calls={row['heuristic_calls']} "
          f"heur_incumbents={row['heuristic_successes']}")
    return 0


def cmd_bench(args) -> int:
    with open(args.manifest) as fh:
        uris = [line.strip() for line in fh
                if line.strip() and not line.strip().startswith("#")]
    base = _settings_from_args(args)
    seeds = _number_list(args.seeds, int, "--seeds") if args.seeds else [0]
    with open(args.out, "w", newline="") as fh:
        write_csv(bench_rows(uris, seeds, base), fh)
    print(f"wrote {args.out}")
    return 0


def cmd_summarize(args) -> int:
    brackets = _number_list(args.brackets, float, "--brackets") if args.brackets else []
    if not all(0 <= t < math.inf for t in brackets):  # NaN fails this too
        raise ValueError(f"--brackets: expected finite numbers >= 0, got {args.brackets!r}")
    if not 0 < args.time_limit < math.inf:
        raise ValueError(f"--time-limit: expected a finite number > 0, got {args.time_limit!r}")
    if any(t >= args.time_limit for t in brackets):
        raise ValueError(f"--brackets: each value must be below --time-limit "
                         f"{args.time_limit:g}, got {args.brackets!r}")
    with open(args.csv) as fh:
        rows = summarize_runs(fh, brackets=brackets, time_limit=args.time_limit)
    print(format_summary(rows))
    return 0


COMMANDS = {"solve": cmd_solve, "bench": cmd_bench, "summarize": cmd_summarize}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="banditmip",
        description="Branch-and-bound MIP solver with bandit-scheduled heuristics",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a single instance")
    ps.add_argument("instance", help="gen:... URI or MPS file path")
    ps.add_argument("--mode", choices=MODES, default=None)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--time-limit", type=float, default=None)
    ps.add_argument("--node-limit", type=int, default=None)
    ps.add_argument("--config", default=None)
    ps.add_argument("--log", default=None, help="JSONL call log output path")

    pb = sub.add_parser("bench", help="run a manifest of instances")
    pb.add_argument("manifest", help="file with one instance URI per line")
    pb.add_argument("--seeds", default="1,2,3,4")
    pb.add_argument("--out", default="runs.csv")
    pb.add_argument("--time-limit", type=float, default=None)
    pb.add_argument("--node-limit", type=int, default=None)
    pb.add_argument("--config", default=None)

    pm = sub.add_parser("summarize", help="aggregate a bench CSV")
    pm.add_argument("csv")
    pm.add_argument("--brackets", default="")
    pm.add_argument("--time-limit", type=float, default=60.0,
                    help="nominal per-run limit used in bracket labels")
    return p


def main(argv=None) -> int:
    """Run one command; an unusable input or path ends it with ``error: ...`` and status 2."""
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
