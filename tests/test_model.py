import dataclasses
import hashlib
import re

import numpy as np
import pytest

import banditmip.model
from banditmip.heuristics import variable_locks
from banditmip.model import (
    Assignment,
    DimensionMismatch,
    DuplicateColumnEntry,
    DuplicateRowEntry,
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
from oracles import model_from_rows, parse_mps_reference

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
    assert model.senses.tolist() == ["L"]
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
    assert model.lower[2] == 0.0 and model.upper[2] == 1.0 and 2 in model.integers
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
    assert model.senses.tolist() == ["L", "G"]
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
    senses = dict(zip(model.senses.tolist(), model.rhs))
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
    assert np.array_equal(back.senses, model.senses)
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
        model = model_from_rows(
            rows_c,
            rows_v,
            name="irr",
            c=rng.integers(-9, 10, size=n).astype(float),
            senses=senses,
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
        assert np.array_equal(back.senses, model.senses)
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
        indptr=[0, 2],
        indices=[0, 1],
        data=[1.0, 1.0],
        senses=["L"],
        rhs=np.array([1.0]),
        lower=np.zeros(2),
        upper=np.ones(2),
        integers=np.array([0, 1]),
    )


def test_model_validation_rejects_bad_construction():
    base = dict(
        name="bad",
        c=np.array([1.0, 1.0]),
        indptr=[0, 2],
        indices=[0, 1],
        data=[1.0, 1.0],
        senses=["L"],
        rhs=np.array([1.0]),
        lower=np.zeros(2),
        upper=np.ones(2),
        integers=np.array([0]),
    )
    MipModel(**base)  # sanity: the base model is fine
    for patch in [
        {"lower": np.array([2.0, 0.0])},                      # lower > upper
        {"integers": np.array([5])},                          # index out of range
        {"indices": [0, 0], "data": [1.0, 2.0]},              # duplicate column
        {"data": [1.0, 0.0]},                                 # explicit zero
        {"senses": ["Q"]},                                    # unknown sense
        {"indices": [0, 7]},                                  # column out of range
        {"data": [1.0, np.nan]},                              # NaN coefficient
        {"data": [np.inf, 1.0]},                              # infinite coefficient
        {"rhs": np.array([np.nan])},                          # NaN rhs
        {"c": np.array([np.nan, 1.0])},                       # NaN cost
        {"lower": np.array([np.nan, 0.0])},                   # NaN lower bound
        {"upper": np.array([1.0, np.nan])},                   # NaN upper bound
        {"indices": [0.5, 1.0]},                              # non-integral column index
        {"integers": np.array([0.5])},                        # non-integral integer index
        {"data": [1.0]},                                      # index/value length mismatch
    ]:
        with pytest.raises(ValueError):
            MipModel(**{**base, **patch})


@pytest.mark.parametrize("patch, message", [
    ({"data": [1.0, 1.0, np.nan]}, "row 1: coefficient"),
    ({"rhs": np.array([1.0, np.nan])}, "rhs[1]"),
    ({"c": np.array([1.0, np.nan])}, "c[1]"),
    ({"lower": np.array([0.0, np.nan])}, "lower[1]"),
    ({"indices": [0, 1, 0.5]}, "row 1: column index"),
    ({"data": [1.0, 1.0, 3.0, 2.0]}, "data has 4 entries but indices has 3"),
    # an infinite bound that admits no value, though lower <= upper holds
    ({"lower": np.array([0.0, np.inf]), "upper": np.array([1.0, np.inf])}, "lower[1] is inf"),
    ({"lower": np.array([-np.inf, 0.0]), "upper": np.array([-np.inf, 1.0])},
     "upper[0] is -inf"),
])
def test_model_validation_names_the_field_and_the_first_bad_row(patch, message):
    base = dict(name="bad", c=np.ones(2), indptr=[0, 2, 3], indices=[0, 1, 1],
                data=[1.0, 1.0, 3.0], senses=["L", "G"], rhs=np.ones(2), lower=np.zeros(2),
                upper=np.ones(2), integers=np.arange(2))
    MipModel(**base)
    with pytest.raises(ValueError, match=re.escape(message)):
        MipModel(**{**base, **patch})


@pytest.mark.parametrize("patch, message", [
    ({"indptr": [1, 2, 3]}, "indptr must start at 0, not 1"),
    ({"indptr": [0, 3, 2]}, "indptr must not decrease: indptr[2] = 2 < indptr[1] = 3"),
    ({"indptr": [0, 1, 1]}, "indptr must end at len(indices) = 3, not 1"),
    ({"indptr": [0, 2, 4]}, "indptr must end at len(indices) = 3, not 4"),
    ({"data": [1.0, 1.0]}, "data has 2 entries but indices has 3"),
    ({"indptr": [0, 3]}, "row arrays must all have length m"),
])
def test_csr_arrays_are_checked_before_they_are_read(patch, message):
    base = dict(name="csr", c=np.ones(2), indptr=[0, 2, 3], indices=[0, 1, 1],
                data=[1.0, 1.0, 3.0], senses=["L", "G"], rhs=np.ones(2), lower=np.zeros(2),
                upper=np.ones(2), integers=[])
    assert MipModel(**base).row_activity(np.ones(2)).tolist() == [2.0, 3.0]
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
    wider = dataclasses.replace(model, indptr=[0, 1, 3], indices=[1, 0, 1],
                                data=[2.0, 1.0, -1.0], senses=["L", "G"], rhs=np.array([1.0, 0.0]))
    assert np.array_equal(wider.entry_rows, [0, 1, 1])
    assert [cols.tolist() for cols in wider.row_cols] == [[1], [0, 1]]
    assert np.array_equal(wider.row_activity(np.array([1.0, 3.0])), [6.0, -2.0])
    same = dataclasses.replace(model, c=np.array([1.0, 2.0]))
    assert same.indices is model.indices and same.data is model.data  # read-only: shared
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
    for i, sense in enumerate(model.senses):
        gap = act[i] - model.rhs[i]
        viol = max(viol, gap if sense == "L" else -gap if sense == "G" else abs(gap))
    for j in range(model.n):
        viol = max(viol, model.lower[j] - x[j], x[j] - model.upper[j])
    return viol


@pytest.mark.parametrize("family", ["knapsack", "set_cover", "gap"])
def test_evaluate_matches_a_per_row_loop(family):
    rng = np.random.default_rng(9)
    model = generate_instance(family, (14, 5), 2)
    senses = ["L", "G", "E"] + model.senses[3:].tolist()  # every sense
    model = dataclasses.replace(model, senses=senses)
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


# ---------------------------------------------------------------------------
# parse_mps reads each section as arrays; the line-by-line reader is its reference
# ---------------------------------------------------------------------------

MODEL_ARRAYS = ("c", "rhs", "lower", "upper", "integers", "indptr", "indices", "data",
                "entry_rows", "senses")


def _outcome(read, text):
    """A reader's error class and message, or the bytes of every array of its model."""
    try:
        model = read(text)
    except ValueError as err:
        return type(err), str(err)
    arrays = [(key, getattr(model, key).dtype.str, getattr(model, key).shape,
               getattr(model, key).tobytes()) for key in MODEL_ARRAYS]
    return model.name, model.maximize, arrays


HAND_MPS = {
    # RANGES on E rows of either sign and of zero, and on L and G rows of either sign
    "ranges": """\
NAME RANGED
ROWS
 N OBJ
 E E0
 E E1
 E E2
 L L0
 L L1
 G G0
 G G1
COLUMNS
 X OBJ 1 E0 1
 X E1 2 E2 -1
 X L0 1 L1 3
 X G0 1 G1 -2
 Y OBJ -2 E2 4
RHS
 RHS E0 5 E1 -1
 RHS E2 2 L0 4
 RHS L1 -3 G0 1
 RHS G1 2.5
RANGES
 RNG E0 2 E1 -3
 RNG E2 0 L0 1.5
 RNG L1 -2 G0 4
 RNG G1 -0.5
ENDATA
""",
    # MAX on the header line; extra N rows take entries and RHS values that are dropped
    "objsense": """\
NAME MAXED
OBJSENSE MAX
ROWS
 N COST
 N SPARE
 N OTHER
 L R0
COLUMNS
 A COST 3 R0 1
 A SPARE 7 OTHER inf
 B COST 0 R0 2
 B SPARE 1
RHS
 RHS R0 4 SPARE 9
 RHS COST 0
ENDATA
""",
    # markers around split integer blocks; a column listed again outside its block
    "markers": """\
NAME MARKED
OBJSENSE
    MAXIMIZE
ROWS
 N OBJ
 G R0
 L R1
COLUMNS
 M0 'MARKER' 'INTORG'
 X0 OBJ 1 R0 1
 X1 OBJ 2 R1 1
 M1 'MARKER' 'INTEND'
 Y0 OBJ -1 R0 2
 M2 'MARKER' 'INTORG'
 X2 R0 3
 M3 'MARKER' 'INTEND'
 X2 R1 5
 Y1 R1 -1 R0 0.5
RHS
 RHS R0 1 R1 6
ENDATA
""",
    # BV, MI, PL, FX, LO and UP; a later line overrides an earlier one on one bound
    "bounds": """\
NAME BOUNDED
ROWS
 N OBJ
 G R0
COLUMNS
 A OBJ 1 R0 1
 B OBJ 1 R0 1
 C OBJ 1 R0 1
 D OBJ 1 R0 1
 E OBJ 1 R0 1
RHS
 RHS R0 1
BOUNDS
 BV BND A
 MI BND B
 UP BND B 3
 PL BND C
 LO BND C -2
 FX BND D 1.5
 LO BND E 1
 UP BND E 9
 LO BND E 2
 UP BND A 0
ENDATA
""",
    # a negative UP or UI bound frees the lower bound unless a BOUNDS line sets it
    "negative up": """\
NAME NEGUP
ROWS
 N OBJ
 G R0
COLUMNS
 A OBJ 1 R0 1
 B OBJ 1 R0 1
 C OBJ 1 R0 1
 D OBJ 1 R0 1
 E OBJ 1 R0 1
RHS
 RHS R0 -40
BOUNDS
 UP BND A -2
 UI BND B -3
 LO BND C -5
 UP BND C -1
 UP BND D -1
 FX BND D -4
 UP BND E -6
 UP BND E 2
ENDATA
""",
    # comments and blank lines, tabs, a comment at column 0, a second RHS vector,
    # columns in two COLUMNS sections and lines after ENDATA
    "layout": """\
* a model written by hand
NAME\tLAYOUT

ROWS
 N  OBJ
\tL  R0
   * an indented comment
 G  R1

COLUMNS
    X   OBJ   1.5   R0   2
*column 0 comment
    X   R1    1
RHS
    RHS1  R0  10
    RHS2  R1  1
COLUMNS
    Y   R0   1   OBJ   -1
BOUNDS
 UP BND Y 8
ENDATA
anything at all
""",
}


def _generated_texts():
    for family, size in [("knapsack", (10, 3)), ("set_cover", (30, 12)), ("gap", (16, 4))]:
        for seed in range(4):
            yield f"{family}-{seed}", write_mps(generate_instance(family, size, seed))


def _malformed_texts():
    """Every malformed MPS text the tests above feed to parse_mps."""
    yield "no ENDATA", KNAPSACK_MPS.replace("ENDATA\n", "")
    for section in ("ROWS", "COLUMNS"):
        out, skip = [], False
        for line in KNAPSACK_MPS.splitlines(keepends=True):
            if not line[0].isspace():
                skip = line.startswith(section)
            if not skip:
                out.append(line)
        yield f"no {section}", "".join(out)
    yield "unknown row", KNAPSACK_MPS.replace("X1 OBJ -3.0 CAP 2.0", "X1 OBJ -3.0 R9 2.0")
    yield "duplicate", KNAPSACK_MPS.replace("X1 OBJ -3.0 CAP 2.0", "X1 OBJ -3.0 CAP 2.0 CAP 1.0")
    yield "offset", KNAPSACK_MPS.replace(" RHS CAP 5.0", " RHS OBJ -10.0 CAP 5.0")
    yield "nan", KNAPSACK_MPS.replace("CAP 4.0", "CAP nan")
    for field, token in [("coef", "abc"), ("rhs", "1..0"), ("rng", "x2"), ("up", "one"),
                         ("coef", "nan"), ("coef", "-inf")]:
        yield f"{field}={token}", NUMBERS_MPS.format(**{**GOOD_NUMBERS, field: token})


# malformed in ways the tests above do not reach
ODD_MPS = {
    # a row name declared twice in ROWS, whatever the two types
    "objective declared twice": HAND_MPS["objsense"].replace(" N SPARE", " N SPARE\n N COST"),
    "constraint row declared twice": KNAPSACK_MPS.replace(" L CAP\n", " L CAP\n L CAP\n"),
    "objective declared again as a row": KNAPSACK_MPS.replace(" L CAP\n", " L CAP\n L OBJ\n"),
    "free row declared twice": KNAPSACK_MPS.replace(" L CAP\n", " N FREE\n L CAP\n N FREE\n"),
    "L and G rows of one name": KNAPSACK_MPS.replace(" L CAP\n", " L CAP\n G CAP\n"),
    "row declared again in a second ROWS section": KNAPSACK_MPS.replace(
        "COLUMNS\n", "ROWS\n G CAP\nCOLUMNS\n", 1),
    # an explicit zero in one COLUMNS section repeated in the next
    "zero repeated across sections": HAND_MPS["layout"].replace(
        "    X   R1    1\n", "    X   R1    0\n").replace("    Y   R0   1", "    X   R1   2"),
    "range repeated across sections": HAND_MPS["ranges"].replace(
        "ENDATA", "RANGES\n RNG G1 1\nENDATA"),
}


@pytest.mark.parametrize("text", [*HAND_MPS.values(), *(t for _, t in _generated_texts())],
                         ids=[*HAND_MPS, *(k for k, _ in _generated_texts())])
def test_parse_matches_the_reference_reader(text):
    expected = _outcome(parse_mps_reference, text)
    assert not isinstance(expected[0], type), expected  # every case parses
    assert _outcome(parse_mps, text) == expected


@pytest.mark.parametrize("text", [*(t for _, t in _malformed_texts()), *ODD_MPS.values()],
                         ids=[*(k for k, _ in _malformed_texts()), *ODD_MPS])
def test_parse_raises_as_the_reference_reader(text):
    expected = _outcome(parse_mps_reference, text)
    assert isinstance(expected[0], type), "every case is malformed"
    assert _outcome(parse_mps, text) == expected


MUTATION_TOKENS = ["R0", "R1", "R2", "OBJ", "FREE", "X", "Y", "C0", "C1", "1", "0", "-2.5",
                   "nan", "inf", "abc", "1e400", "-0", "'MARKER'", "'INTORG'", "'INTEND'",
                   "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA", "OBJSENSE", "MAX",
                   "LO", "UP", "FX", "BV", "MI", "PL", "FR", "LI", "UI", "BND", "N", "L", "G",
                   "E", "Q"]


def _mutate(text, rng):
    """A few random edits: lines dropped, repeated, swapped, indented or not, tokens
    replaced, dropped or added, comments and blank lines inserted."""
    lines = text.splitlines()
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(0, len(lines)))
        toks = lines[k].split()
        lead = " " if lines[k][:1].isspace() else ""
        op = int(rng.integers(0, 8))
        if op == 0:
            del lines[k]
        elif op == 1:
            lines.insert(k, lines[k])
        elif op == 2 and toks:
            toks[int(rng.integers(0, len(toks)))] = str(rng.choice(MUTATION_TOKENS))
            lines[k] = lead + " ".join(toks)
        elif op == 3:
            lines.insert(k, str(rng.choice(["", "   ", "* note", "  *note", "\t"])))
        elif op == 4:
            lines[k] = lines[k].lstrip() if lead else " " + lines[k]
        elif op == 5:
            j = int(rng.integers(0, len(lines)))
            lines[k], lines[j] = lines[j], lines[k]
        elif op == 6 and len(toks) > 1:
            del toks[int(rng.integers(0, len(toks)))]
            lines[k] = lead + " ".join(toks)
        else:
            lines[k] += " " + str(rng.choice(MUTATION_TOKENS))
        if not lines:
            lines = [" X"]
    return "\r\n".join(lines) if rng.random() < 0.2 else "\n".join(lines)


@pytest.mark.parametrize("chunk", [1, 3, banditmip.model._CHUNK])
def test_parse_matches_the_reference_on_mutated_texts(chunk, monkeypatch):
    # lines read in batches of ``chunk``: a batch boundary changes neither model nor error
    monkeypatch.setattr(banditmip.model, "_CHUNK", chunk)
    rng = np.random.default_rng(23)
    bases = [*HAND_MPS.values(), *(t for _, t in _generated_texts()), KNAPSACK_MPS]
    kinds = set()
    for _ in range(800):
        text = _mutate(bases[int(rng.integers(0, len(bases)))], rng)
        expected = _outcome(parse_mps_reference, text)
        assert _outcome(parse_mps, text) == expected, text
        kinds.add(expected[0] if isinstance(expected[0], type) else "parsed")
        if expected[0] is DuplicateRowEntry and expected[1].startswith("ROWS"):
            kinds.add("row declared twice")
    # the edits reach a model and each reader error
    assert kinds >= {"parsed", MalformedSection, UnknownRowReference, DuplicateColumnEntry,
                     DuplicateRowEntry, ObjectiveOffset, "row declared twice"}


SMALL_MPS = """\
NAME SMALL
ROWS
 N OBJ
 L R0
 G R1
COLUMNS
 X1 OBJ 1 R0 1
 X1 R1 1
 X2 OBJ 2 R0 1
RHS
{rhs}
RANGES
{ranges}
BOUNDS
{bounds}
ENDATA
"""


@pytest.mark.parametrize("rhs, where", [
    (" RHS R0 4 R0 7", "RHS line 11: row 'R0'"),
    (" RHS R0 4\n RHS R1 1 R0 7", "RHS line 12: row 'R0'"),
    (" RHS R0 4\n RHS2 R0 9", "RHS line 12: row 'R0'"),
])
def test_parse_rejects_a_repeated_rhs_entry(rhs, where):
    assert parse_mps(SMALL_MPS.format(rhs=" RHS R0 4", ranges="", bounds="")).rhs[0] == 4.0
    with pytest.raises(DuplicateRowEntry, match=re.escape(where)):
        parse_mps(SMALL_MPS.format(rhs=rhs, ranges="", bounds=""))


@pytest.mark.parametrize("ranges, where", [
    (" RNG R1 2 R1 3", "RANGES line 13: row 'R1'"),
    (" RNG R1 2\n RNG2 R1 2", "RANGES line 14: row 'R1'"),
])
def test_parse_rejects_a_repeated_range(ranges, where):
    with pytest.raises(DuplicateRowEntry, match=re.escape(where)):
        parse_mps(SMALL_MPS.format(rhs="", ranges=ranges, bounds=""))


@pytest.mark.parametrize("first, second", [("0", "5"), ("5", "0"), ("0", "0"), ("-0.0", "5")])
def test_parse_counts_an_explicit_zero_as_an_entry(first, second):
    text = SMALL_MPS.format(rhs="", ranges="", bounds="").replace(
        " X2 OBJ 2 R0 1", f" X2 OBJ 2 R1 {first}\n X2 R1 {second}")
    where = "COLUMNS line 10: duplicate entry for row 'R1'"
    with pytest.raises(DuplicateColumnEntry, match=where):
        parse_mps(text)


def test_parse_keeps_an_explicit_zero_out_of_the_model():
    text = SMALL_MPS.format(rhs="", ranges="", bounds="").replace(" X1 R1 1", " X1 R1 0")
    model = parse_mps(text)
    assert model.row_cols[1].size == 0 and np.array_equal(model.row_cols[0], [0, 1])


def _bounded(*lines):
    return parse_mps(SMALL_MPS.format(rhs="", ranges="", bounds="\n".join(lines)))


def test_parse_free_bound():
    model = _bounded(" UP BND X1 4", " FR BND X1")
    assert model.lower[0] == -np.inf and model.upper[0] == np.inf
    assert model.integers.size == 0


def test_parse_integer_lower_bound():
    model = _bounded(" LI BND X2 -3")
    assert model.lower[1] == -3.0 and model.upper[1] == np.inf
    assert model.integers.tolist() == [1]
    with pytest.raises(MalformedSection, match="bad BOUNDS line"):
        _bounded(" LI BND X2")


def test_parse_integer_upper_bound():
    model = _bounded(" UI BND X1 7", " LO BND X1 2")
    assert model.lower[0] == 2.0 and model.upper[0] == 7.0
    assert model.integers.tolist() == [0]
    with pytest.raises(MalformedSection, match=re.escape("BOUNDS line 15: 'x' is not a number")):
        _bounded(" UI BND X1 x")


@pytest.mark.parametrize("lines, lower, upper", [
    ([" UP BND X1 -2"], -np.inf, -2.0),
    ([" UI BND X1 -2"], -np.inf, -2.0),
    ([" UP BND X1 -2", " UP BND X1 3"], -np.inf, 3.0),
    ([" LO BND X1 -5", " UP BND X1 -2"], -5.0, -2.0),
    ([" UP BND X1 -2", " LO BND X1 -5"], -5.0, -2.0),
    ([" MI BND X1", " UP BND X1 -2"], -np.inf, -2.0),
    ([" UP BND X1 -2", " MI BND X1"], -np.inf, -2.0),
    ([" FX BND X1 -3", " UP BND X1 -2"], -3.0, -2.0),
    ([" UP BND X1 -2", " FX BND X1 -3"], -3.0, -3.0),
    ([" UP BND X1 0"], 0.0, 0.0),
    ([" UP BND X1 2"], 0.0, 2.0),
])
def test_parse_negative_upper_bound_without_a_lower_bound_line(lines, lower, upper):
    """A negative UP or UI bound makes the lower bound -inf unless a BOUNDS line sets it."""
    text = SMALL_MPS.format(rhs="", ranges="", bounds="\n".join(lines))
    model = parse_mps(text)
    assert (model.lower[0], model.upper[0]) == (lower, upper)
    assert (model.lower[1], model.upper[1]) == (0.0, np.inf)
    assert _outcome(parse_mps, text) == _outcome(parse_mps_reference, text)


# SHA-256 of write_mps(generate_instance(family, size, seed)) as the generators made it
# when they joined per-row arrays; building the CSR arrays directly must not move a byte
GENERATED_SHA256 = {
    ("knapsack", (20, 3), 1): "ed70385fdf92e9c4875d009809bc7aa0287d5af9995b7c24d7ab63c75a4820e7",
    ("knapsack", (60, 8), 7): "fa4ab0493abe69f788a687c39b661c48fb82c3da5997bbce7fdaf6d83d1e1808",
    ("set_cover", (40, 15), 2): "a90e77a9efa6ab3858e6ebada06ac9cd216ee503feb38741294e9b9f8303c20d",
    ("set_cover", (300, 150), 9): "b31a49c787a03d059a04f64ea337e219ed81e7ccc39a04634ea9c82b10333e22",
    ("gap", (24, 4), 5): "6aafc9efd18e0be3181f1cf7be34f0afedf95f2bc191be2fc4f87291c5b0de76",
    ("gap", (90, 7), 3): "6485428d5be3fcf0dce53252401770666df8eb352b008f0ba1d7974564e43759",
}


@pytest.mark.parametrize("family, size, seed", list(GENERATED_SHA256))
def test_generated_instances_are_pinned(family, size, seed):
    text = write_mps(generate_instance(family, size, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATED_SHA256[family, size, seed]


@pytest.mark.parametrize("family", ["knapsack", "set_cover", "gap"])
def test_row_helper_stores_what_the_generator_stores(family):
    model = generate_instance(family, (20, 6), 3)
    again = model_from_rows(
        model.row_cols, model.row_vals, name=model.name, c=model.c, senses=model.senses,
        rhs=model.rhs, lower=model.lower, upper=model.upper, integers=model.integers,
        maximize=True)
    for key in MODEL_ARRAYS:
        a, b = getattr(model, key), getattr(again, key)
        assert a.dtype == b.dtype and np.array_equal(a, b) and not b.flags.writeable, key
    assert again.maximize
    for a, b in zip(model.row_cols, again.row_cols):
        assert np.array_equal(a, b) and b.base is again.indices


def test_sense_array_holds_the_row_senses_read_only():
    senses = ["L", "G", "E"] + ["L"] * 4
    model = dataclasses.replace(generate_instance("gap", (12, 4), 3), senses=senses)
    assert model.senses.dtype == np.dtype("U1")
    assert model.senses.tolist() == senses
    with pytest.raises(ValueError):
        model.senses[0] = "G"
    # the rounding locks read the same senses the per-row strings give
    down, up = variable_locks(model)
    sense = np.asarray(senses, dtype="U1")[model.entry_rows]
    pos = model.data > 0
    assert np.array_equal(up, np.bincount(model.indices[np.where(pos, sense != "G", sense != "L")],
                                          minlength=model.n))
    assert np.array_equal(down, np.bincount(
        model.indices[np.where(pos, sense != "L", sense != "G")], minlength=model.n))


def test_models_compare_by_identity():
    # the fields are arrays, so a field-wise == would have no single truth value
    a = generate_instance("gap", (12, 4), 3)
    b = generate_instance("gap", (12, 4), 3)
    assert a == a and not a == b and a != b
    assert len({a, b, a}) == 2
