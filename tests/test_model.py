import dataclasses
import re

import numpy as np
import pytest

from banditmip.model import (
    Assignment,
    DimensionMismatch,
    DuplicateColumnEntry,
    MalformedSection,
    MipModel,
    ObjectiveOffset,
    UnknownRowReference,
    evaluate_solution,
    generate_instance,
    generate_instance_with_witness,
    load_instance,
    parse_mps,
    write_mps,
)

KNAPSACK_MPS = """\
NAME SMALLKNAP
ROWS
 N OBJ
 L CAP
COLUMNS
 MK0 'MARKER' 'INTORG'
 X1 OBJ -3.0 CAP 2.0
 X2 OBJ -5.0 CAP 4.0
 MK0 'MARKER' 'INTEND'
RHS
 RHS CAP 5.0
BOUNDS
 UP BND X1 1.0
 UP BND X2 1.0
ENDATA
"""


def test_parse_knapsack_mps():
    model = parse_mps(KNAPSACK_MPS)
    assert model.name == "SMALLKNAP"
    assert model.n == 2 and model.m == 1
    assert set(model.integers) == {0, 1}
    assert np.array_equal(model.c, [-3.0, -5.0])
    assert model.row_senses == ["L"]
    assert np.array_equal(model.row_cols[0], [0, 1])
    assert np.array_equal(model.row_vals[0], [2.0, 4.0])
    assert model.rhs[0] == 5.0
    assert np.array_equal(model.lower, [0.0, 0.0])
    assert np.array_equal(model.upper, [1.0, 1.0])
    assert not model.maximize


def test_parse_missing_endata():
    text = KNAPSACK_MPS.replace("ENDATA\n", "")
    with pytest.raises(MalformedSection):
        parse_mps(text)


@pytest.mark.parametrize("section", ["ROWS", "COLUMNS"])
def test_parse_missing_required_section(section):
    lines = KNAPSACK_MPS.splitlines(keepends=True)
    out, skip = [], False
    for line in lines:
        if not line[0].isspace():
            skip = line.startswith(section)
        if not skip:
            out.append(line)
    with pytest.raises(MalformedSection):
        parse_mps("".join(out))


def test_parse_unknown_row_reference():
    text = KNAPSACK_MPS.replace("X1 OBJ -3.0 CAP 2.0", "X1 OBJ -3.0 R9 2.0")
    with pytest.raises(UnknownRowReference):
        parse_mps(text)


def test_parse_duplicate_column_entry():
    text = KNAPSACK_MPS.replace(
        "X1 OBJ -3.0 CAP 2.0", "X1 OBJ -3.0 CAP 2.0 CAP 1.0"
    )
    with pytest.raises(DuplicateColumnEntry):
        parse_mps(text)


def test_parse_objective_offset_rejected_unless_zero():
    with pytest.raises(ObjectiveOffset):
        parse_mps(KNAPSACK_MPS.replace(" RHS CAP 5.0", " RHS OBJ -10.0 CAP 5.0"))
    model = parse_mps(KNAPSACK_MPS.replace(" RHS CAP 5.0", " RHS OBJ 0.0 CAP 5.0"))
    assert model.rhs[0] == 5.0
    assert np.array_equal(model.c, [-3.0, -5.0])


def test_parse_bound_kinds():
    text = """\
NAME BNDS
ROWS
 N OBJ
 G R0
COLUMNS
 A OBJ 1.0 R0 1.0
 B OBJ 1.0 R0 1.0
 C OBJ 1.0 R0 1.0
 D OBJ 1.0 R0 1.0
RHS
 RHS R0 1.0
BOUNDS
 LO BND A -2.0
 UP BND A 4.0
 FX BND B 3.0
 BV BND C
 MI BND D
ENDATA
"""
    model = parse_mps(text)
    assert model.lower[0] == -2.0 and model.upper[0] == 4.0
    assert model.lower[1] == 3.0 and model.upper[1] == 3.0
    assert model.lower[2] == 0.0 and model.upper[2] == 1.0 and 2 in model.integer_set
    assert model.lower[3] == -np.inf and model.upper[3] == np.inf


def test_parse_objsense_max_negates():
    text = """\
NAME MAXI
OBJSENSE
 MAX
ROWS
 N OBJ
 L R0
COLUMNS
 X OBJ 2.0 R0 1.0
RHS
 RHS R0 3.0
ENDATA
"""
    model = parse_mps(text)
    assert model.maximize
    assert model.c[0] == -2.0


def test_parse_ranges_split():
    text = """\
NAME RNG
ROWS
 N OBJ
 L R0
COLUMNS
 X OBJ 1.0 R0 1.0
RHS
 RHS R0 5.0
RANGES
 RNG R0 2.0
ENDATA
"""
    model = parse_mps(text)
    # 3 <= x <= 5 expressed as two rows
    assert model.m == 2
    assert model.row_senses == ["L", "G"]
    assert model.rhs[0] == 5.0 and model.rhs[1] == 3.0


@pytest.mark.parametrize("rng_val,lo,hi", [(2.0, 5.0, 7.0), (-2.0, 3.0, 5.0)])
def test_parse_ranges_on_equality_row(rng_val, lo, hi):
    text = f"""\
NAME RNGE
ROWS
 N OBJ
 E R0
COLUMNS
 X OBJ 1.0 R0 1.0
RHS
 RHS R0 5.0
RANGES
 RNG R0 {rng_val}
ENDATA
"""
    model = parse_mps(text)
    # an E row with a range becomes the interval [lo, hi]
    assert model.m == 2
    senses = dict(zip(model.row_senses, model.rhs))
    assert senses["G"] == lo and senses["L"] == hi


NUMBERS_MPS = """\
NAME NUMBERS
ROWS
 N OBJ
 L R0
 L R1
COLUMNS
 X OBJ 1.0 R0 1.0
 Y OBJ 1.0 R1 {coef}
RHS
 RHS R0 5.0 R1 {rhs}
RANGES
 RNG R0 {rng}
BOUNDS
 UP BND X {up}
ENDATA
"""
GOOD_NUMBERS = dict(coef="2.0", rhs="4.0", rng="2.0", up="1.0")


@pytest.mark.parametrize("field,token,where", [
    ("coef", "abc", r"COLUMNS line 8: 'abc' is not a number"),
    ("rhs", "1..0", r"RHS line 10: '1\.\.0' is not a number"),
    ("rng", "x2", r"RANGES line 12: 'x2' is not a number"),
    ("up", "one", r"BOUNDS line 14: 'one' is not a number"),
    # R1 is the third model row once RANGES splits R0: the message names it
    ("coef", "nan", r"COLUMNS line 8: coefficient 'nan' of row 'R1', column 'Y' is not finite"),
    ("coef", "-inf", r"COLUMNS line 8: coefficient '-inf' of row 'R1', column 'Y'"),
])
def test_parse_names_a_bad_number(field, token, where):
    assert parse_mps(NUMBERS_MPS.format(**GOOD_NUMBERS)).m == 3
    with pytest.raises(MalformedSection, match=where):
        parse_mps(NUMBERS_MPS.format(**{**GOOD_NUMBERS, field: token}))


@pytest.mark.parametrize("family,size", [
    ("knapsack", (10, 1)),
    ("knapsack", (8, 3)),
    ("set_cover", (20, 10)),
    ("gap", (12, 4)),
])
@pytest.mark.parametrize("seed", [0, 7])
def test_write_parse_roundtrip(family, size, seed):
    model = generate_instance(family, size, seed)
    back = parse_mps(write_mps(model))
    assert back.n == model.n and back.m == model.m
    assert np.array_equal(back.integers, model.integers)
    assert np.array_equal(back.c, model.c)
    assert np.array_equal(back.lower, model.lower)
    assert np.array_equal(back.upper, model.upper)
    assert np.array_equal(back.rhs, model.rhs)
    assert back.row_senses == model.row_senses
    for a_idx, b_idx, a_val, b_val in zip(
        model.row_cols, back.row_cols, model.row_vals, back.row_vals
    ):
        assert np.array_equal(a_idx, b_idx)
        assert np.array_equal(a_val, b_val)


def test_roundtrip_on_irregular_random_models():
    rng = np.random.default_rng(5150)
    checked = 0
    while checked < 60:
        n = int(rng.integers(1, 12))
        m = int(rng.integers(0, 8))
        rows_c, rows_v, senses = [], [], []
        for _ in range(m):
            k = int(rng.integers(1, n + 1))
            idx = np.sort(rng.choice(n, size=k, replace=False))
            vals = rng.integers(-9, 10, size=k).astype(float)
            vals[vals == 0] = 1.0
            rows_c.append(idx)
            rows_v.append(vals)
            senses.append(str(rng.choice(list("LGE"))))
        lower = np.where(rng.random(n) < 0.2, -np.inf,
                         rng.integers(-5, 1, size=n).astype(float))
        upper = np.where(np.isinf(lower), 0.0, lower) + rng.integers(0, 9, size=n)
        upper = np.where(rng.random(n) < 0.2, np.inf, upper)
        nint = int(rng.integers(0, n + 1))
        model = MipModel(
            name="irr",
            c=rng.integers(-9, 10, size=n).astype(float),
            row_cols=rows_c,
            row_vals=rows_v,
            row_senses=senses,
            rhs=rng.integers(-9, 10, size=m).astype(float),
            lower=lower,
            upper=upper,
            integers=np.sort(rng.choice(n, size=nint, replace=False)),
        )
        back = parse_mps(write_mps(model))
        assert back.n == model.n and back.m == model.m
        assert np.array_equal(back.c, model.c)
        assert np.array_equal(back.integers, model.integers)
        assert np.array_equal(back.lower, model.lower)
        assert np.array_equal(back.upper, model.upper)
        assert np.array_equal(back.rhs, model.rhs)
        assert back.row_senses == model.row_senses
        for a, b in zip(back.row_cols, model.row_cols):
            assert np.array_equal(a, b)
        for a, b in zip(back.row_vals, model.row_vals):
            assert np.array_equal(a, b)
        checked += 1


def test_generate_deterministic():
    a = generate_instance("knapsack", (10, 1), 7)
    b = generate_instance("knapsack", (10, 1), 7)
    assert write_mps(a) == write_mps(b)


def test_generate_pure_of_global_rng_state():
    np.random.seed(123)
    a = write_mps(generate_instance("gap", (12, 4), 3))
    np.random.rand(100)
    b = write_mps(generate_instance("gap", (12, 4), 3))
    assert a == b


def test_set_cover_all_ones_feasible():
    model = generate_instance("set_cover", (20, 10), 1)
    ev = evaluate_solution(model, np.ones(model.n))
    assert ev.feasible and ev.integral


def test_knapsack_all_zeros_feasible():
    model = generate_instance("knapsack", (10, 1), 7)
    ev = evaluate_solution(model, np.zeros(model.n))
    assert ev.feasible and ev.integral and ev.objective == 0.0


def test_gap_planted_assignment_feasible():
    model, witness = generate_instance_with_witness("gap", (12, 4), 3)
    ev = evaluate_solution(model, witness)
    assert ev.feasible and ev.integral
    assert abs(ev.objective - witness.objective) <= 1e-9


@pytest.mark.parametrize("family", ["knapsack", "set_cover", "gap"])
def test_generated_objective_not_identically_zero(family):
    for seed in range(5):
        model = generate_instance(family, (10, 3), seed)
        assert np.any(model.c != 0.0)


def _tiny_model():
    return MipModel(
        name="tiny",
        c=np.array([0.0, 0.0]),
        row_cols=[np.array([0, 1])],
        row_vals=[np.array([1.0, 1.0])],
        row_senses=["L"],
        rhs=np.array([1.0]),
        lower=np.zeros(2),
        upper=np.ones(2),
        integers=np.array([0, 1]),
    )


def test_model_validation_rejects_bad_construction():
    base = dict(
        name="bad",
        c=np.array([1.0, 1.0]),
        row_cols=[np.array([0, 1])],
        row_vals=[np.array([1.0, 1.0])],
        row_senses=["L"],
        rhs=np.array([1.0]),
        lower=np.zeros(2),
        upper=np.ones(2),
        integers=np.array([0]),
    )
    MipModel(**base)  # sanity: the base model is fine
    for patch in [
        {"lower": np.array([2.0, 0.0])},                      # lower > upper
        {"integers": np.array([5])},                          # index out of range
        {"row_cols": [np.array([0, 0])],
         "row_vals": [np.array([1.0, 2.0])]},                 # duplicate column
        {"row_vals": [np.array([1.0, 0.0])]},                 # explicit zero
        {"row_senses": ["Q"]},                                # unknown sense
        {"row_cols": [np.array([0, 7])]},                     # column out of range
        {"row_vals": [np.array([1.0, np.nan])]},              # NaN coefficient
        {"row_vals": [np.array([np.inf, 1.0])]},              # infinite coefficient
        {"rhs": np.array([np.nan])},                          # NaN rhs
        {"c": np.array([np.nan, 1.0])},                       # NaN cost
        {"lower": np.array([np.nan, 0.0])},                   # NaN lower bound
        {"upper": np.array([1.0, np.nan])},                   # NaN upper bound
        {"row_cols": [np.array([0.5, 1.0])]},                 # non-integral column index
        {"integers": np.array([0.5])},                        # non-integral integer index
        {"row_vals": [np.array([1.0])]},                      # index/value length mismatch
    ]:
        with pytest.raises(ValueError):
            MipModel(**{**base, **patch})


@pytest.mark.parametrize("patch, message", [
    ({"row_vals": [np.array([1.0, 1.0]), np.array([np.nan])]}, "row 1: coefficient"),
    ({"rhs": np.array([1.0, np.nan])}, "rhs[1]"),
    ({"c": np.array([1.0, np.nan])}, "c[1]"),
    ({"lower": np.array([0.0, np.nan])}, "lower[1]"),
    ({"row_cols": [np.array([0, 1]), np.array([0.5])]}, "row 1: column index"),
    ({"row_cols": [np.array([0, 1]), np.array([1])],
      "row_vals": [np.array([1.0, 1.0]), np.array([1.0, 2.0])]}, "row 1: index/value"),
    # an infinite bound that admits no value, though lower <= upper holds
    ({"lower": np.array([0.0, np.inf]), "upper": np.array([1.0, np.inf])}, "lower[1] is inf"),
    ({"lower": np.array([-np.inf, 0.0]), "upper": np.array([-np.inf, 1.0])},
     "upper[0] is -inf"),
])
def test_model_validation_names_the_field_and_the_first_bad_row(patch, message):
    base = dict(name="bad", c=np.ones(2), row_cols=[np.array([0, 1]), np.array([1])],
                row_vals=[np.array([1.0, 1.0]), np.array([3.0])], row_senses=["L", "G"],
                rhs=np.ones(2), lower=np.zeros(2), upper=np.ones(2), integers=np.arange(2))
    MipModel(**base)
    with pytest.raises(ValueError, match=re.escape(message)):
        MipModel(**{**base, **patch})


def test_parse_rejects_a_nan_coefficient():
    with pytest.raises(ValueError, match="not finite"):
        parse_mps(KNAPSACK_MPS.replace("CAP 4.0", "CAP nan"))


def _activity_loop(model, x):
    """The per-row dot products row_activity replaced, kept as its reference."""
    return np.array([float(v @ x[idx]) for idx, v in zip(model.row_cols, model.row_vals)])


@pytest.mark.parametrize("family", ["knapsack", "set_cover", "gap"])
def test_row_activity_matches_the_per_row_dot(family):
    model = generate_instance(family, (60, 12), 4)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.integers(-3, 4, size=model.n).astype(float)
        assert np.array_equal(model.row_activity(x), _activity_loop(model, x))
        x = 3.0 * rng.standard_normal(model.n)
        assert np.max(np.abs(model.row_activity(x) - _activity_loop(model, x))) <= 1e-12


def test_rows_are_read_only_views_of_the_csr_store():
    model = generate_instance("gap", (12, 4), 3)
    with pytest.raises(ValueError):
        model.row_vals[0][0] = 5.0
    with pytest.raises(ValueError):
        model.row_cols[0][0] = 1
    for arr in (model.indptr, model.indices, model.data, model.entry_rows):
        assert not arr.flags.writeable
    assert all(np.shares_memory(v, model.data) for v in model.row_vals)
    assert np.array_equal(np.concatenate(model.row_cols), model.indices)
    assert np.array_equal(model.indptr, np.cumsum([0] + [len(c) for c in model.row_cols]))
    assert np.array_equal(model.entry_rows, np.repeat(np.arange(model.m), np.diff(model.indptr)))


def test_replace_rebuilds_the_csr_store():
    model = _tiny_model()
    wider = dataclasses.replace(
        model, row_cols=[np.array([1]), np.array([0, 1])],
        row_vals=[np.array([2.0]), np.array([1.0, -1.0])],
        row_senses=["L", "G"], rhs=np.array([1.0, 0.0]))
    assert np.array_equal(wider.indptr, [0, 1, 3])
    assert np.array_equal(wider.indices, [1, 0, 1])
    assert np.array_equal(wider.data, [2.0, 1.0, -1.0])
    assert np.array_equal(wider.row_activity(np.array([1.0, 3.0])), [6.0, -2.0])
    same = dataclasses.replace(model, c=np.array([1.0, 2.0]))
    assert same.indices is not model.indices
    assert np.array_equal(same.indices, model.indices)
    assert np.array_equal(same.data, model.data)
    assert same.row_cols[0].base is same.indices


def test_evaluate_zero_vector_feasible():
    ev = evaluate_solution(_tiny_model(), np.zeros(2))
    assert ev.feasible and ev.objective == 0.0 and ev.max_violation == 0.0


def test_evaluate_fractional_not_integral():
    ev = evaluate_solution(_tiny_model(), np.array([0.5, 0.5]))
    assert ev.feasible and not ev.integral


def test_evaluate_violated_row():
    ev = evaluate_solution(_tiny_model(), np.array([1.0, 1.0]))
    assert not ev.feasible
    assert ev.max_violation == pytest.approx(1.0)


@pytest.mark.parametrize("x", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0]])
def test_evaluate_non_finite_entry_is_infeasible(x):
    # an infinite entry cannot hide behind an infinite bound either
    model = dataclasses.replace(_tiny_model(), upper=np.array([1.0, np.inf]))
    ev = evaluate_solution(model, np.array(x))
    assert ev.feasible is False and ev.max_violation == np.inf


def _loop_violation(model, x):
    """Largest violation by a per-row loop, the reference for the vectorized check."""
    act = model.row_activity(x)
    viol = 0.0
    for i, sense in enumerate(model.row_senses):
        gap = act[i] - model.rhs[i]
        viol = max(viol, gap if sense == "L" else -gap if sense == "G" else abs(gap))
    for j in range(model.n):
        viol = max(viol, model.lower[j] - x[j], x[j] - model.upper[j])
    return viol


@pytest.mark.parametrize("family", ["knapsack", "set_cover", "gap"])
def test_evaluate_matches_a_per_row_loop(family):
    rng = np.random.default_rng(9)
    model = generate_instance(family, (14, 5), 2)
    senses = ["L", "G", "E"] + model.row_senses[3:]  # every sense
    model = dataclasses.replace(model, row_senses=senses)
    for _ in range(30):
        x = np.where(rng.random(model.n) < 0.5, rng.integers(0, 2, model.n),
                     rng.uniform(-0.5, 1.5, model.n))
        ev = evaluate_solution(model, x, feas_tol=0.3)
        assert ev.max_violation == _loop_violation(model, x)
        assert type(ev.feasible) is bool and type(ev.integral) is bool
        assert ev.feasible == (ev.max_violation <= 0.3)


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        evaluate_solution(_tiny_model(), np.zeros(3))


def test_objective_is_linear():
    rng = np.random.default_rng(42)
    model = generate_instance("gap", (12, 4), 3)
    for _ in range(50):
        x = rng.uniform(-1, 2, model.n)
        y = rng.uniform(-1, 2, model.n)
        alpha = float(rng.uniform())
        left = evaluate_solution(model, alpha * x + (1 - alpha) * y).objective
        right = (alpha * evaluate_solution(model, x).objective
                 + (1 - alpha) * evaluate_solution(model, y).objective)
        assert abs(left - right) <= 1e-9 * max(1.0, abs(right))


def test_assignment_caches_objective():
    model = _tiny_model()
    a = Assignment.from_values(model, [1.0, 0.0])
    assert abs(a.objective - float(model.c @ a.values)) <= 1e-9


def test_load_instance_uri_and_file(tmp_path):
    model = load_instance("gen:knapsack:n=10,m=1,seed=7")
    assert model.n == 10 and model.m == 1
    path = tmp_path / "inst.mps"
    path.write_text(write_mps(model))
    again = load_instance(str(path))
    assert again.n == model.n and np.array_equal(again.c, model.c)


@pytest.mark.parametrize("uri", [
    "gen:knapsack",
    "gen:unknown:n=3,m=1,seed=0",
    "gen:knapsack:n=3",
])
def test_load_instance_bad_uri(uri):
    with pytest.raises(ValueError):
        load_instance(uri)


@pytest.mark.parametrize("uri, key", [
    ("gen:gap:n=10,m=2,sed=3", "sed"),  # a misspelt seed must not solve seed 0
    ("gen:gap:n=10,m=2,seed=1,seed=2", "seed"),
    ("gen:gap:n=10,m=2,seed=x", "seed"),
    ("gen:gap:n=10.5,m=2", "n"),
])
def test_load_instance_bad_uri_key_names_uri_and_key(uri, key):
    with pytest.raises(ValueError) as err:
        load_instance(uri)
    assert repr(uri) in str(err.value) and f"key {key!r}" in str(err.value), str(err.value)
