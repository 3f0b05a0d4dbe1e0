import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from banditmip import cli
from banditmip.cli import (
    CSV_COLUMNS,
    EmptyInput,
    SchemaMismatch,
    apply_config,
    format_summary,
    main,
    shifted_geomean,
    summarize_runs,
)
from banditmip.bnb import SolverSettings, solve
from banditmip.heuristics import DEFAULT_ORDER
from banditmip.model import parse_mps

GOLDEN_COLUMNS = [
    "instance", "seed", "mode", "status", "time_s", "nodes", "objective",
    "heuristic_calls", "heuristic_successes", "heurtime_s",
    "rens_pulls", "rens_successes", "rens_mean_reward", "rens_final_limit",
    "rins_pulls", "rins_successes", "rins_mean_reward", "rins_final_limit",
    "mutation_pulls", "mutation_successes", "mutation_mean_reward",
    "mutation_final_limit",
    "frac_dive_pulls", "frac_dive_successes", "frac_dive_mean_reward",
    "frac_dive_final_limit",
    "coef_dive_pulls", "coef_dive_successes", "coef_dive_mean_reward",
    "coef_dive_final_limit",
    "rand_dive_pulls", "rand_dive_successes", "rand_dive_mean_reward",
    "rand_dive_final_limit",
]


def test_csv_schema_is_stable():
    assert CSV_COLUMNS == GOLDEN_COLUMNS


# ---------------------------------------------------------------------------
# shifted geometric mean
# ---------------------------------------------------------------------------

def test_sgm_constant_list():
    assert shifted_geomean([5.0, 5.0, 5.0], 17.0) == pytest.approx(5.0)


def test_sgm_two_values():
    got = shifted_geomean([1.0, 100.0], 1.0)
    assert got == pytest.approx(math.sqrt(202.0) - 1.0, abs=1e-9)


def test_sgm_single_zero():
    assert shifted_geomean([0.0], 10.0) == pytest.approx(0.0)


def test_sgm_empty_raises():
    with pytest.raises(EmptyInput):
        shifted_geomean([], 1.0)


def test_sgm_requires_positive_shift():
    with pytest.raises(ValueError):
        shifted_geomean([1.0], 0.0)


# ---------------------------------------------------------------------------
# solve command
# ---------------------------------------------------------------------------

def test_solve_writes_jsonl_log(tmp_path):
    log = tmp_path / "calls.jsonl"
    rc = main(["solve", "gen:gap:n=24,m=4,seed=5", "--mode", "scheduler",
               "--seed", "3", "--log", str(log)])
    assert rc == 0
    records = [json.loads(line) for line in log.read_text().splitlines()]
    calls = [r for r in records if r["type"] == "call"]
    finals = [r for r in records if r["type"] == "run_stats"]
    assert len(finals) == 1 and calls
    for rec in calls:
        assert 0.0 <= rec["r_total"] <= 1.0
    assert finals[0]["status"] == "optimal"


def test_solve_log_reports_max_row_residual(tmp_path):
    log = tmp_path / "log.jsonl"
    assert main(["solve", "gen:set_cover:n=300,m=150,seed=0", "--node-limit", "1",
                 "--log", str(log)]) == 0
    final = [json.loads(line) for line in log.read_text().splitlines()][-1]
    assert final["type"] == "run_stats"
    assert 0.0 <= float(final["max_row_residual"]) <= 1e-7
    assert "max_row_residual" not in CSV_COLUMNS  # the bench CSV keeps its columns


@pytest.mark.parametrize("uri, rows, bounds", [
    ("gen:set_cover:n=800,m=400,seed=1", 225, 66),
    ("gen:set_cover:n=800,m=400,seed=2", 258, 60),
    ("gen:gap:n=300,m=10,seed=1", 40, 0),  # presolve leaves a gap model as it is
])
def test_solve_log_reports_what_presolve_removed(tmp_path, uri, rows, bounds):
    """The rows of the model the search ran on, and the bounds presolve changed."""
    log = tmp_path / "log.jsonl"
    assert main(["solve", uri, "--node-limit", "1", "--log", str(log)]) == 0
    final = [json.loads(line) for line in log.read_text().splitlines()][-1]
    assert final["type"] == "run_stats"
    assert (final["searched_rows"], final["tightened_bounds"]) == (str(rows), str(bounds))
    assert not {"searched_rows", "tightened_bounds"} & set(CSV_COLUMNS)


@pytest.mark.parametrize("uri, seed, nodes, fixed", [
    ("gen:gap:n=300,m=10,seed=1", 1, 1, False),  # no incumbent, so no cutoff to fix against
    ("gen:gap:n=300,m=10,seed=2", 2, 100, True),
])
def test_solve_log_reports_reduced_cost_fixings(tmp_path, uri, seed, nodes, fixed):
    """The columns the top-level tree fixed by reduced cost against its cutoff."""
    log = tmp_path / "log.jsonl"
    assert main(["solve", uri, "--seed", str(seed), "--node-limit", str(nodes),
                 "--log", str(log)]) == 0
    final = [json.loads(line) for line in log.read_text().splitlines()][-1]
    assert final["type"] == "run_stats"
    assert (final["objective"] != "") is fixed
    assert (int(final["reduced_cost_fixings"]) > 0) is fixed
    assert "reduced_cost_fixings" not in CSV_COLUMNS


@pytest.mark.parametrize("args, reused", [
    # both children of a node, and its first dive LP, start from one basis
    (["gen:gap:n=300,m=10,seed=1", "--seed", "1", "--node-limit", "100"], True),
    # a 225-row root on the column store, which caches no factor
    (["gen:set_cover:n=800,m=400,seed=1", "--node-limit", "1"], False),
])
def test_solve_log_reports_inversions_and_factor_reuses(tmp_path, args, reused):
    log = tmp_path / "log.jsonl"
    assert main(["solve", *args, "--log", str(log)]) == 0
    final = [json.loads(line) for line in log.read_text().splitlines()][-1]
    assert final["type"] == "run_stats"
    assert int(final["lp_inversions"]) > 0
    assert (int(final["factor_reuses"]) > 0) is reused
    assert not {"lp_inversions", "factor_reuses"} & set(CSV_COLUMNS)


def test_solve_log_run_stats_record_keys_are_pinned(tmp_path):
    """The record holds the CSV row and every scalar ``RunStats`` field, each as text."""
    log = tmp_path / "log.jsonl"
    assert main(["solve", "gen:gap:n=24,m=4,seed=5", "--seed", "1", "--node-limit", "20",
                 "--log", str(log)]) == 0
    final = json.loads(log.read_text().splitlines()[-1])
    assert set(final) == {"type", *CSV_COLUMNS, "max_row_residual", "searched_rows",
                          "tightened_bounds", "reduced_cost_fixings", "lp_inversions",
                          "factor_reuses"}
    assert final["type"] == "run_stats"
    assert all(isinstance(value, str) for value in final.values())


def _oracle_reward(rec):
    """Reward recomputed from raw call data, coded separately from the package."""
    r_sol = 1.0 if rec["found_incumbent"] else 0.0
    if not rec["found_incumbent"]:
        r_gap = 0.0
    elif rec["is_first_incumbent"]:
        r_gap = 1.0
    else:
        impr = rec["obj_old"] - rec["obj_new"]
        den = rec["obj_old"] - rec["obj_lp"]
        if den <= 1e-9:
            r_gap = 1.0 if impr > 0 else 0.0
        else:
            r_gap = min(max(impr / den, 0.0), 1.0)
    r_eff = min(max(1.0 - rec["nodes_used"] / rec["n_max"], 0.0), 1.0)
    vmax = rec["v_max_before"]
    r_conf = 0.0 if vmax == 0 else min(rec["conflicts_found"] / vmax, 1.0)
    return (0.3 * r_sol, 0.3 * r_gap, 0.2 * r_eff, 0.2 * r_conf,
            0.3 * r_sol + 0.3 * r_gap + 0.2 * r_eff + 0.2 * r_conf)


def test_jsonl_log_replays_through_reward_oracle(tmp_path):
    log = tmp_path / "calls.jsonl"
    assert main(["solve", "gen:gap:n=24,m=4,seed=5", "--seed", "1",
                 "--log", str(log)]) == 0
    calls = [json.loads(line) for line in log.read_text().splitlines()
             if json.loads(line)["type"] == "call"]
    assert calls
    for rec in calls:
        _, _, _, _, total = _oracle_reward(rec)
        assert abs(total - rec["r_total"]) <= 1e-9


def test_solve_replay_log_is_deterministic(tmp_path):
    logs = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        assert main(["solve", "gen:knapsack:n=10,m=1,seed=7",
                     "--mode", "scheduler", "--seed", "3",
                     "--log", str(path)]) == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for r in records:
            r.pop("time_s", None)
            r.pop("heurtime_s", None)
        logs.append(records)
    assert logs[0] == logs[1]


GOLDEN_CALL_KEYS = {
    "type", "t", "h", "klass", "warmstart",
    "r_sol", "r_gap", "r_eff", "r_conf", "r_total",
    "found_incumbent", "sub_mip_infeasible", "nodes_used", "conflicts_found",
    "fixed_count", "is_first_incumbent", "obj_old", "obj_new", "obj_lp",
    "v_max_before", "n_max", "limit_before", "limit_after",
    "n_fail", "skip_remaining",
}


def test_jsonl_call_record_schema_is_stable(tmp_path):
    log = tmp_path / "calls.jsonl"
    assert main(["solve", "gen:gap:n=24,m=4,seed=5", "--seed", "1",
                 "--log", str(log)]) == 0
    for line in log.read_text().splitlines():
        rec = json.loads(line)
        if rec["type"] == "call":
            assert set(rec) == GOLDEN_CALL_KEYS


def test_solve_missing_file_fails(tmp_path):
    assert main(["solve", str(tmp_path / "missing.mps")]) != 0


def test_solve_unwritable_log_fails_before_solving(tmp_path, capsys, monkeypatch):
    def solved(*args):
        raise AssertionError("the solve ran before the log path was checked")

    monkeypatch.setattr(cli, "run_single", solved)
    log = tmp_path / "missing" / "calls.jsonl"
    assert main(["solve", "gen:gap:n=16,m=4,seed=2", "--log", str(log)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(log) in err


@pytest.mark.parametrize("bounds, message", [
    ([" LO BND X0 inf"], "lower[0] is inf"),
    ([" MI BND X0", " UP BND X0 -inf"], "upper[0] is -inf"),
])
def test_solve_bound_that_admits_no_value_exits_with_error(tmp_path, capsys, bounds, message):
    path = tmp_path / "bound.mps"
    path.write_text("\n".join(["NAME BOUND", "ROWS", " N OBJ", " L R0", "COLUMNS",
                               " M0 'MARKER' 'INTORG'", " X0 OBJ -1 R0 1",
                               " M1 'MARKER' 'INTEND'", "RHS", " RHS R0 1", "BOUNDS",
                               *bounds, "ENDATA", ""]))
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("rhs", [" RHS R0 4 R0 7", " RHS R0 4\n RHS2 R0 7"])
def test_solve_repeated_rhs_entry_exits_with_error(tmp_path, capsys, rhs):
    path = tmp_path / "rhs.mps"
    path.write_text("\n".join(["NAME RHS", "ROWS", " N OBJ", " L R0", "COLUMNS",
                               " X0 OBJ -1 R0 1", "RHS", rhs, "ENDATA", ""]))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: RHS line ") and "row 'R0' already has" in err


def test_solve_row_declared_twice_exits_with_error(tmp_path, capsys):
    path = tmp_path / "rows.mps"
    path.write_text("\n".join(["NAME ROWS", "ROWS", " N OBJ", " L R0", " L R0", "COLUMNS",
                               " X0 OBJ -1 R0 1", "RHS", " RHS R0 4", "ENDATA", ""]))
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err == "error: ROWS line 5: row 'R0' already declared\n"


MAX_KNAPSACK = """\
NAME MAXKNAP
OBJSENSE
 MAX
ROWS
 N OBJ
 L CAP
COLUMNS
 MK0 'MARKER' 'INTORG'
 X1 OBJ 3.0 CAP 2.0
 X2 OBJ 5.0 CAP 4.0
 MK0 'MARKER' 'INTEND'
RHS
 RHS CAP 5.0
BOUNDS
 UP BND X1 1.0
 UP BND X2 1.0
ENDATA
"""


def test_maximize_objective_reported_unnegated(tmp_path):
    path = tmp_path / "max.mps"
    path.write_text(MAX_KNAPSACK)
    log = tmp_path / "log.jsonl"
    assert main(["solve", str(path), "--log", str(log)]) == 0
    final = [json.loads(line) for line in log.read_text().splitlines()][-1]
    # optimum picks item 2 (value 5); reported in the original MAX sense
    assert float(final["objective"]) == pytest.approx(5.0)


MAX_OBJ = """\
NAME MAXOBJ
OBJSENSE
 MAX
ROWS
 N OBJ
 L R0
COLUMNS
 M0 'MARKER' 'INTORG'
 X OBJ 3 R0 2
 Y OBJ 2 R0 1
 M1 'MARKER' 'INTEND'
RHS
 RHS R0 5
BOUNDS
 UP BND Y 3
ENDATA
"""


def test_maximize_objective_is_negated_back_only_where_it_is_reported(tmp_path, capsys):
    """max 3x + 2y s.t. 2x + y <= 5, y <= 3: optimum 9 at (1, 3), -9 in minimize form."""
    path = tmp_path / "max.mps"
    path.write_text(MAX_OBJ)
    log = tmp_path / "log.jsonl"
    assert main(["solve", str(path), "--log", str(log)]) == 0
    assert "status=optimal objective=9 " in capsys.readouterr().out
    final = json.loads(log.read_text().splitlines()[-1])
    assert final["type"] == "run_stats" and final["objective"] == "9.0"
    manifest, out = tmp_path / "suite.txt", tmp_path / "runs.csv"
    _write_manifest(manifest, [str(path)])
    assert main(["bench", str(manifest), "--seeds", "1", "--out", str(out)]) == 0
    assert [row["objective"] for row in csv.DictReader(out.open())] == ["9.0", "9.0"]

    settings = SolverSettings(seed=1)
    row, result = cli.run_single(str(path), settings)
    direct = solve(parse_mps(MAX_OBJ), settings)
    assert row["objective"] == "9.0" and row["instance"] == str(path)
    assert result.objective == direct.objective == -9.0
    assert result.dual_bound == direct.dual_bound == -9.0


def test_solve_default_mode_logs_no_bandit_records(tmp_path):
    log = tmp_path / "calls.jsonl"
    assert main(["solve", "gen:gap:n=16,m=4,seed=2", "--mode", "default",
                 "--log", str(log)]) == 0
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["type"] for r in records] == ["run_stats"]


# ---------------------------------------------------------------------------
# bench command
# ---------------------------------------------------------------------------

def _write_manifest(path, uris):
    path.write_text("".join(u + "\n" for u in uris))


def test_bench_cross_product(tmp_path):
    manifest = tmp_path / "suite.txt"
    _write_manifest(manifest, [
        "gen:knapsack:n=8,m=1,seed=0",
        "gen:set_cover:n=10,m=6,seed=1",
        "gen:gap:n=8,m=2,seed=2",
    ])
    out = tmp_path / "runs.csv"
    assert main(["bench", str(manifest), "--seeds", "1,2,3,4",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 24
    assert {r["mode"] for r in rows} == {"default", "scheduler"}
    assert all(r["status"] == "optimal" for r in rows)


def test_bench_default_mode_has_no_mean_reward(tmp_path):
    manifest = tmp_path / "suite.txt"
    _write_manifest(manifest, ["gen:gap:n=30,m=5,seed=0"])
    out = tmp_path / "runs.csv"
    assert main(["bench", str(manifest), "--seeds", "1", "--out", str(out)]) == 0
    rows = {r["mode"]: r for r in csv.DictReader(out.open())}
    ran = [h for h in DEFAULT_ORDER if int(rows["default"][f"{h}_pulls"]) > 0]
    assert ran  # the static schedule ran something, yet computed no reward
    for h in ran:
        assert rows["default"][f"{h}_mean_reward"] == ""
    assert all(rows["scheduler"][f"{h}_mean_reward"] != "" for h in DEFAULT_ORDER
               if int(rows["scheduler"][f"{h}_pulls"]) > 0)


def test_bench_empty_manifest(tmp_path):
    manifest = tmp_path / "empty.txt"
    manifest.write_text("# nothing here\n")
    out = tmp_path / "runs.csv"
    assert main(["bench", str(manifest), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].split(",") == CSV_COLUMNS


def test_bench_bad_uri_becomes_error_row(tmp_path):
    manifest = tmp_path / "suite.txt"
    _write_manifest(manifest, ["gen:knapsack:n=6,m=1,seed=0", "nonsense.mps"])
    out = tmp_path / "runs.csv"
    assert main(["bench", str(manifest), "--seeds", "1", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 4
    assert sum(1 for r in rows if r["status"] == "error") == 2


def test_bench_error_cause_goes_to_stderr(tmp_path, capsys):
    manifest = tmp_path / "suite.txt"
    _write_manifest(manifest, ["nonsense.mps"])
    out = tmp_path / "runs.csv"
    assert main(["bench", str(manifest), "--seeds", "7", "--out", str(out)]) == 0
    causes = [line.split(": FileNotFoundError: ")
              for line in capsys.readouterr().err.splitlines()]
    assert [c[0] for c in causes] == [
        "bench: error on nonsense.mps seed=7 mode=default",
        "bench: error on nonsense.mps seed=7 mode=scheduler",
    ]
    assert all("nonsense.mps" in c[1] for c in causes)
    rows = list(csv.DictReader(out.open()))
    assert [r["status"] for r in rows] == ["error", "error"]


def test_bench_rerun_identical_modulo_time(tmp_path):
    manifest = tmp_path / "suite.txt"
    _write_manifest(manifest, [
        "gen:gap:n=12,m=3,seed=3",
        "gen:set_cover:n=12,m=7,seed=4",
    ])

    def run(name):
        out = tmp_path / name
        assert main(["bench", str(manifest), "--seeds", "1,2",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        for r in rows:
            r.pop("time_s"), r.pop("heurtime_s")
        return rows

    assert run("a.csv") == run("b.csv")


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------

def _row(instance, seed, mode, status="optimal", time_s=1.0, nodes=100,
         heurtime=0.1):
    row = {c: "" for c in CSV_COLUMNS}
    row.update(
        instance=instance, seed=str(seed), mode=mode, status=status,
        time_s=repr(float(time_s)), nodes=str(nodes), objective="0.0",
        heuristic_calls="0", heuristic_successes="0", heurtime_s=repr(float(heurtime)),
    )
    return row


def _csv_text(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def test_summarize_identical_modes_relative_one():
    rows = []
    for i in range(3):
        for mode in ("default", "scheduler"):
            rows.append(_row(f"i{i}", 1, mode, time_s=2.0 + i, nodes=50 + i))
    table = summarize_runs(io.StringIO(_csv_text(rows)))
    allrow = table[0]
    assert allrow.count == 3
    assert allrow.relative["scheduler"]["time"] == pytest.approx(1.0, abs=1e-9)
    assert allrow.relative["scheduler"]["nodes"] == pytest.approx(1.0, abs=1e-9)


def test_summarize_relative_nodes_against_sgm_oracle():
    rows = [
        _row("a", 1, "default", nodes=100), _row("a", 1, "scheduler", nodes=90),
        _row("b", 1, "default", nodes=200), _row("b", 1, "scheduler", nodes=180),
    ]
    table = summarize_runs(io.StringIO(_csv_text(rows)))
    want = (shifted_geomean([90.0, 180.0], 100.0)
            / shifted_geomean([100.0, 200.0], 100.0))
    assert table[0].relative["scheduler"]["nodes"] == pytest.approx(want, abs=1e-9)


def test_summarize_bracket_above_all_times_is_empty():
    rows = [
        _row("a", 1, "default", time_s=1.0), _row("a", 1, "scheduler", time_s=2.0),
    ]
    table = summarize_runs(io.StringIO(_csv_text(rows)), brackets=[50.0])
    bracket = [r for r in table if r.label.startswith("[50")]
    assert len(bracket) == 1 and bracket[0].count == 0
    assert bracket[0].per_mode["default"]["time"] is None


def test_summarize_bracket_filters_by_max_time():
    rows = [
        _row("a", 1, "default", time_s=0.5), _row("a", 1, "scheduler", time_s=0.4),
        _row("b", 1, "default", time_s=9.0), _row("b", 1, "scheduler", time_s=0.2),
    ]
    table = summarize_runs(io.StringIO(_csv_text(rows)), brackets=[5.0])
    bracket = [r for r in table if r.label.startswith("[5")]
    assert bracket[0].count == 1  # only instance b took >= 5s in some mode


def test_summarize_all_optimal_requires_every_seed_solved():
    rows = [
        _row("a", 1, "default"), _row("a", 1, "scheduler"),
        _row("a", 2, "default", status="node_limit"), _row("a", 2, "scheduler"),
        _row("b", 1, "default"), _row("b", 1, "scheduler"),
    ]
    table = summarize_runs(io.StringIO(_csv_text(rows)))
    allopt = table[-1]
    assert allopt.label == "all-optimal"
    assert allopt.count == 1  # only instance b is solved everywhere


def test_summarize_schema_mismatch():
    with pytest.raises(SchemaMismatch):
        summarize_runs(io.StringIO("instance,seed\nx,1\n"))


def test_summarize_names_a_non_numeric_cell():
    rows = [_row("a", 1, "default"), _row("a", 1, "scheduler")]
    rows[1]["time_s"] = "abc"
    with pytest.raises(SchemaMismatch, match=r"line 3: column 'time_s' holds 'abc'"):
        summarize_runs(io.StringIO(_csv_text(rows)))


@pytest.mark.parametrize("col, cell", [
    ("time_s", "-5"), ("time_s", "nan"), ("nodes", "-1"), ("nodes", "inf"),
    ("heurtime_s", "-0.5"), ("heurtime_s", "nan"),
])
def test_summarize_names_a_negative_or_non_finite_cell(col, cell):
    rows = [_row("a", 1, "default"), _row("a", 1, "scheduler")]
    rows[1][col] = cell
    with pytest.raises(SchemaMismatch) as err:
        summarize_runs(io.StringIO(_csv_text(rows)))
    assert str(err.value) == (f"stats CSV line 3: column {col!r} holds {cell!r}, "
                              "not a finite number >= 0")


@pytest.mark.parametrize("status", ["optimal", "error"])
def test_summarize_names_a_repeated_run(status):
    rows = [_row("a", 1, "default"), _row("a", 1, "scheduler"), _row("b", 1, "default"),
            _row("b", 1, "scheduler"), _row("a", 1, "scheduler", status=status, time_s=9.0)]
    with pytest.raises(SchemaMismatch) as err:
        summarize_runs(io.StringIO(_csv_text(rows)))
    assert str(err.value) == (
        "stats CSV line 6: instance 'a' seed '1' mode 'scheduler' repeats line 3")


def test_summarize_repeated_run_exits_with_error(tmp_path, capsys):
    rows = [_row("a", 1, "default"), _row("a", 1, "scheduler"), _row("a", 1, "default")]
    path = tmp_path / "runs.csv"
    path.write_text(_csv_text(rows))
    assert main(["summarize", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: stats CSV line 4: instance 'a' seed '1' mode 'default' repeats line 2\n")


def test_summarize_non_numeric_cell_exits_with_error(tmp_path, capsys):
    rows = [_row("a", 1, "default"), _row("a", 1, "scheduler")]
    rows[0]["time_s"] = "abc"
    path = tmp_path / "runs.csv"
    path.write_text(_csv_text(rows))
    assert main(["summarize", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: stats CSV line 2: column 'time_s'")


def test_summarize_bad_brackets_exit_with_error(tmp_path, capsys):
    path = tmp_path / "runs.csv"
    path.write_text(_csv_text([_row("a", 1, "default"), _row("a", 1, "scheduler")]))
    assert main(["summarize", str(path), "--brackets", "1,y"]) == 2
    assert capsys.readouterr().err == (
        "error: --brackets: expected comma-separated numbers, got '1,y'\n")


@pytest.mark.parametrize("brackets", ["nan", "1,inf", "-1", "0.5,-0.1"])
def test_summarize_brackets_must_be_finite_and_not_negative(tmp_path, capsys, brackets):
    path = tmp_path / "runs.csv"
    path.write_text(_csv_text([_row("a", 1, "default"), _row("a", 1, "scheduler")]))
    assert main(["summarize", str(path), "--brackets", brackets]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --brackets: expected finite numbers >= 0, got {brackets!r}\n")


@pytest.mark.parametrize("limit", ["nan", "inf", "-5", "0"])
def test_summarize_time_limit_must_be_finite_and_positive(tmp_path, capsys, limit):
    path = tmp_path / "runs.csv"
    path.write_text(_csv_text([_row("a", 1, "default"), _row("a", 1, "scheduler")]))
    assert main(["summarize", str(path), "--time-limit", limit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --time-limit: expected a finite number > 0, got {float(limit)!r}\n")


@pytest.mark.parametrize("brackets", ["100", "1,60", "60.5"])
def test_summarize_brackets_must_stay_below_the_time_limit(tmp_path, capsys, brackets):
    """A bracket [t, limit] with t at or above the limit would print a reversed row."""
    path = tmp_path / "runs.csv"
    path.write_text(_csv_text([_row("a", 1, "default"), _row("a", 1, "scheduler")]))
    assert main(["summarize", str(path), "--brackets", brackets, "--time-limit", "60"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --brackets: each value must be below --time-limit 60, got {brackets!r}\n")


def test_summarize_brackets_below_the_time_limit_print_their_rows(tmp_path, capsys):
    path = tmp_path / "runs.csv"
    path.write_text(_csv_text([_row("a", 1, "default"), _row("a", 1, "scheduler")]))
    assert main(["summarize", str(path), "--brackets", "0,59.5", "--time-limit", "60"]) == 0
    out = capsys.readouterr().out
    assert "[0,60]" in out and "[59.5,60]" in out


def test_bench_bad_seeds_exit_with_error(tmp_path, capsys):
    manifest = tmp_path / "suite.txt"
    manifest.write_text("gen:knapsack:n=8,m=1,seed=1\n")
    out = tmp_path / "runs.csv"
    assert main(["bench", str(manifest), "--seeds", "1,x", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --seeds: expected comma-separated numbers, got '1,x'\n")
    assert not out.exists()


def test_bench_unwritable_out_exits_with_error(tmp_path, capsys):
    manifest = tmp_path / "suite.txt"
    manifest.write_text("gen:knapsack:n=8,m=1,seed=1\n")
    out = tmp_path / "missing" / "runs.csv"
    assert main(["bench", str(manifest), "--seeds", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


def test_summarize_command_prints_table(tmp_path, capsys):
    rows = [
        _row("a", 1, "default"), _row("a", 1, "scheduler"),
    ]
    path = tmp_path / "runs.csv"
    path.write_text(_csv_text(rows))
    assert main(["summarize", str(path), "--brackets", "1,10"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "relative" in out


def test_format_summary_handles_empty_rows():
    table = summarize_runs(io.StringIO(_csv_text([])), brackets=[1.0])
    text = format_summary(table)
    assert "all-optimal" in text


PINNED_TABLE = """\
                    |                  default |                scheduler |           relative
subset            n | solved     time    nodes | solved     time    nodes |   time nodes heurt
----------------------------------------------------------------------------------------------
all               3 |      2     1.15    122.4 |      3     0.99     80.2 |   0.86  0.66  0.90
[0,60]            3 |      2     1.15    122.4 |      3     0.99     80.2 |   0.86  0.66  0.90
[1.5,60]          1 |      0     3.00    400.0 |      1     2.00    200.0 |   0.67  0.50  0.50
[100,60]          0 |      0        -        - |      0        -        - |      -     -     -
all-optimal       1 |      1     0.25     10.0 |      1     0.75     30.0 |   3.00  3.00     -"""


def test_format_summary_text_is_pinned():
    """(b, 2) has an error row and drops out; the node limit on (a, 2) keeps instance a
    out of all-optimal; the brackets select every pair, one pair and none."""
    rows = [
        _row("a", 1, "default", time_s=1.0, nodes=100, heurtime=0.1),
        _row("a", 1, "scheduler", time_s=0.5, nodes=50, heurtime=0.2),
        _row("a", 2, "default", status="node_limit", time_s=3.0, nodes=400, heurtime=0.5),
        _row("a", 2, "scheduler", time_s=2.0, nodes=200, heurtime=0.25),
        _row("b", 1, "default", time_s=0.25, nodes=10, heurtime=0.0),
        _row("b", 1, "scheduler", time_s=0.75, nodes=30, heurtime=0.05),
        _row("b", 2, "default", time_s=4.0, nodes=500, heurtime=1.0),
        cli.error_row("b", 2, "scheduler"),
    ]
    table = summarize_runs(io.StringIO(_csv_text(rows)), brackets=[0.0, 1.5, 100.0])
    assert format_summary(table) == PINNED_TABLE


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_config_overrides_settings():
    text = """
    # scheduler constants
    epsilon = 0.5
    lns_node_budget = 77
    bandit_mode = recency
    node_limit = 123
    shadow_lp_check = true
    """
    settings = apply_config(SolverSettings(), text)
    assert settings.epsilon == 0.5
    assert settings.lns_node_budget == 77
    assert settings.bandit_mode == "recency"
    assert settings.node_limit == 123
    assert settings.shadow_lp_check is True


@pytest.mark.parametrize("settings, line, expected", [
    (SolverSettings(beta=1), "beta = 0.5", 0.5),
    (SolverSettings(seed=np.int64(3)), "seed = 4", 4),
    (SolverSettings(f_init=np.float32(0.5)), "f_init = 0.7", 0.7),
], ids=["int_in_float_field", "numpy_int", "numpy_float"])
def test_config_types_values_by_declaration_not_current_value(settings, line, expected):
    key = line.split("=")[0].strip()
    value = getattr(apply_config(settings, line), key)
    assert value == expected and type(value) is type(expected)


@pytest.mark.parametrize("f", dataclasses.fields(SolverSettings), ids=lambda f: f.name)
def test_config_reads_every_default_back(f):
    # a field whose declared type the reader cannot parse fails here
    text = "none" if f.default is None else str(f.default)
    value = getattr(apply_config(SolverSettings(), f"{f.name} = {text}"), f.name)
    assert value == f.default and type(value) is type(f.default)


def test_config_unknown_key_is_error():
    with pytest.raises(ValueError, match="unknown key"):
        apply_config(SolverSettings(), "no_such_knob = 3\n")


def test_config_repeated_key_names_both_lines():
    with pytest.raises(ValueError) as err:
        apply_config(SolverSettings(), "seed = 1\n# again\nseed = 2\n")
    assert str(err.value) == "config line 3: key 'seed' already set on line 1"


@pytest.mark.parametrize("line, message", [
    ("lns_node_budget = 1e3", "key 'lns_node_budget': expected an integer, got '1e3'"),
    ("epsilon = abc", "key 'epsilon': expected a number, got 'abc'"),
    ("node_limit = 12.5", "key 'node_limit': expected an integer, got '12.5'"),
    ("time_limit_s = soon", "key 'time_limit_s': expected a number, got 'soon'"),
])
def test_config_bad_number_names_line_and_key(line, message):
    with pytest.raises(ValueError) as err:
        apply_config(SolverSettings(), f"# header\n{line}\n")
    assert str(err.value) == f"config line 2: {message}"


def test_config_bad_number_exits_with_error(tmp_path, capsys):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("seed = 3\nlns_node_budget = 1e3\n")
    assert main(["solve", "gen:gap:n=16,m=4,seed=2", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config line 2: key 'lns_node_budget'"), err


def test_config_file_flows_into_solve(tmp_path):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("node_limit = 1\n")
    log = tmp_path / "log.jsonl"
    assert main(["solve", "gen:gap:n=16,m=4,seed=2", "--config", str(cfg),
                 "--log", str(log)]) == 0
    final = [json.loads(line) for line in log.read_text().splitlines()][-1]
    assert final["type"] == "run_stats"
    assert int(final["nodes"]) <= 1


def test_config_invalid_setting_is_reported(tmp_path, capsys):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("epsilon = -1\n")
    assert main(["solve", "gen:gap:n=16,m=4,seed=2", "--config", str(cfg)]) == 2
    assert "epsilon must be >= 0" in capsys.readouterr().err


def test_config_bad_file_exits_nonzero(tmp_path):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["solve", "gen:gap:n=16,m=4,seed=2", "--config", str(cfg)]) != 0
