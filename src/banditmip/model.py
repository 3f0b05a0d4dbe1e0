"""Problem container, solution evaluation, instance generators and MPS subset I/O.

Everything downstream works on :class:`MipModel` in minimize form.  Models are
immutable after construction; generators are pure functions of their
arguments, so the same (family, size, seed) triple always reproduces the same
instance byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

INF = float("inf")

DEFAULT_INT_TOL = 1e-6
DEFAULT_FEAS_TOL = 1e-6

SENSES = ("L", "G", "E")  # row senses: <=, >=, =


class MpsError(ValueError):
    """Base class for MPS reader failures."""


class MalformedSection(MpsError):
    """A required section is missing, truncated or out of order."""


class UnknownRowReference(MpsError):
    """COLUMNS/RHS/RANGES references a row that was never declared."""


class DuplicateColumnEntry(MpsError):
    """The same (row, column) pair carries two coefficients."""


class ObjectiveOffset(MpsError):
    """RHS gives the objective row a nonzero constant, which the model cannot carry."""


class DimensionMismatch(ValueError):
    """A vector does not match the model's variable count."""


@dataclass
class MipModel:
    """A mixed integer program ``min c.x  s.t. rows, bounds, x_i integral for i in I``.

    The constructor takes the rows as parallel (column-index, value) arrays
    per row and stores them once, read-only, in compressed sparse row form:
    row ``i`` holds ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``, and ``entry_rows`` names the row of
    each entry.  ``row_cols`` and ``row_vals`` become views into ``indices``
    and ``data``.  ``maximize`` records that the original input was a
    maximization whose objective was negated on the way in; reported
    objectives should be un-negated by the caller when that flag is set.
    """

    name: str
    c: np.ndarray
    row_cols: list
    row_vals: list
    row_senses: list
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integers: np.ndarray
    maximize: bool = False
    indptr: np.ndarray = field(init=False, repr=False)
    indices: np.ndarray = field(init=False, repr=False)
    data: np.ndarray = field(init=False, repr=False)
    entry_rows: np.ndarray = field(init=False, repr=False)
    _intset: frozenset = field(init=False, repr=False)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        self.integers = np.unique(np.asarray(self.integers))
        self.row_senses = [str(s) for s in self.row_senses]
        m = self.m
        if not (len(self.row_cols) == len(self.row_vals) == len(self.row_senses) == m):
            raise ValueError("row arrays must all have length m")
        counts = np.array([len(idx) for idx in self.row_cols], dtype=np.int64)
        bad = counts != np.array([len(val) for val in self.row_vals], dtype=np.int64)
        if bad.any():
            raise ValueError(f"row {np.argmax(bad)}: index/value length mismatch")
        self.indptr = np.concatenate([[0], np.cumsum(counts)])
        self.entry_rows = np.repeat(np.arange(m), counts)
        self.indices = np.concatenate([np.zeros(0, dtype=np.int64), *self.row_cols])
        self.data = np.concatenate([np.zeros(0), *self.row_vals])
        self._validate()
        self.indices = self.indices.astype(np.int64, copy=False)
        self.integers = self.integers.astype(np.int64)
        self._intset = frozenset(self.integers.tolist())
        for arr in (self.c, self.rhs, self.lower, self.upper, self.integers,
                    self.indptr, self.indices, self.data, self.entry_rows):
            arr.setflags(write=False)
        self.row_cols = np.split(self.indices, self.indptr[1:-1]) if m else []
        self.row_vals = np.split(self.data, self.indptr[1:-1]) if m else []

    def _validate(self):
        n = self.n
        if not (len(self.lower) == len(self.upper) == n):
            raise DimensionMismatch("bound vectors must have length n")
        # a NaN bound, a lower bound of +inf and an upper bound of -inf admit no value
        for name, bad in (("c", ~np.isfinite(self.c)), ("rhs", ~np.isfinite(self.rhs)),
                          ("lower", np.isnan(self.lower) | (self.lower == INF)),
                          ("upper", np.isnan(self.upper) | (self.upper == -INF))):
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(f"{name}[{k}] is {float(getattr(self, name)[k])!r}")
        if np.any(self.lower > self.upper):
            raise ValueError("model bounds must satisfy lower <= upper")
        if not np.all(_integral(self.integers)):
            raise ValueError("integers: every entry must be a whole column index")
        if self.integers.size and (self.integers.min() < 0 or self.integers.max() >= n):
            raise ValueError("integer index out of range")
        bad = ~np.isin(np.asarray(self.row_senses, dtype=str), SENSES)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"row {i}: unknown sense {self.row_senses[i]!r}")
        idx = self.indices
        self._reject(~_integral(idx), "column index is not an integer")
        self._reject((idx < 0) | (idx >= n), "column index out of range")
        key = np.sort(self.entry_rows * n + idx.astype(np.int64))  # (row, column) pairs
        dup = np.diff(key) == 0
        if dup.any():
            raise ValueError(f"row {key[np.argmax(dup)] // n}: duplicate column entries")
        self._reject(self.data == 0.0, "explicit zero coefficient")
        self._reject(~np.isfinite(self.data), "coefficient is not finite")

    def _reject(self, bad: np.ndarray, what: str):
        """Raise for the first row that holds an entry flagged in ``bad``."""
        if bad.any():
            raise ValueError(f"row {self.entry_rows[np.argmax(bad)]}: {what}")

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def m(self) -> int:
        return len(self.rhs)

    @property
    def integer_set(self) -> frozenset:
        return self._intset

    def is_binary(self, j: int) -> bool:
        return (
            j in self._intset
            and self.lower[j] >= -DEFAULT_INT_TOL
            and self.upper[j] <= 1.0 + DEFAULT_INT_TOL
        )

    def row_activity(self, x: np.ndarray) -> np.ndarray:
        """Activities a_i . x for every row."""
        return np.bincount(self.entry_rows, weights=self.data * x[self.indices],
                           minlength=self.m)


def _integral(a: np.ndarray) -> np.ndarray:
    """Which entries of ``a`` are finite whole numbers."""
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN fractionality, never 0
        return fractionality(a) == 0


@dataclass(frozen=True)
class Assignment:
    """A full variable assignment with its cached objective value."""

    values: np.ndarray
    objective: float

    @classmethod
    def from_values(cls, model: MipModel, values) -> "Assignment":
        values = np.asarray(values, dtype=float).copy()
        if len(values) != model.n:
            raise DimensionMismatch(
                f"assignment has {len(values)} entries, model has {model.n}"
            )
        values.setflags(write=False)
        return cls(values=values, objective=float(model.c @ values))


@dataclass(frozen=True)
class Evaluation:
    feasible: bool
    integral: bool
    objective: float
    max_violation: float


def evaluate_solution(
    model: MipModel,
    x,
    int_tol: float = DEFAULT_INT_TOL,
    feas_tol: float = DEFAULT_FEAS_TOL,
) -> Evaluation:
    """Check row/bound feasibility and integrality of an assignment.

    ``max_violation`` is the largest constraint or bound violation (0 when
    feasible); integrality is judged on the integer variables only.
    """
    values = x.values if isinstance(x, Assignment) else np.asarray(x, dtype=float)
    if len(values) != model.n:
        raise DimensionMismatch(
            f"assignment has {len(values)} entries, model has {model.n}"
        )
    senses = np.asarray(model.row_senses, dtype="U1")
    with np.errstate(invalid="ignore"):  # inf - inf from a non-finite entry: see below
        gap = model.row_activity(values) - model.rhs
        worst = np.max(np.concatenate([
            np.where(senses == "L", gap, np.where(senses == "G", -gap, np.abs(gap))),
            model.lower - values,
            values - model.upper,
        ]), initial=0.0)
        integral = bool(np.all(fractionality(values[model.integers]) <= int_tol))
        objective = float(model.c @ values)
    # a NaN, from a non-finite entry or an overflow, would compare as no
    # violation at all: count it as an infinite one
    viol = INF if np.isnan(worst) else max(0.0, float(worst))
    return Evaluation(
        feasible=bool(viol <= feas_tol),
        integral=integral,
        objective=objective,
        max_violation=viol,
    )


def fractionality(v):
    """Distance from ``v`` (a number or an array) to its nearest integer.

    The one integrality measure: a value is integral when this is at most
    ``int_tol``.  Equals ``abs(v - round_half_down(v))`` bit for bit.
    """
    return np.minimum(v - np.floor(v), np.ceil(v) - v)


def round_half_down(v):
    """The integer nearest ``v`` (a number or an array), the lower one on a tie.

    The one nearest rounding; directed roundings use ``floor`` and ``ceil``.
    """
    below, above = np.floor(v), np.ceil(v)
    return np.where(v - below <= above - v, below, above)


def snap_integral(model: MipModel, x: np.ndarray, int_tol: float) -> np.ndarray | None:
    """``x`` with its integer variables rounded, or None when one is more than ``int_tol`` off."""
    xi = x[model.integers]
    if not np.all(fractionality(xi) <= int_tol):
        return None
    out = x.copy()
    out[model.integers] = round_half_down(xi)
    return out


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------

FAMILIES = ("knapsack", "set_cover", "gap")
_FAMILY_CODE = {"knapsack": 1, "set_cover": 2, "gap": 3}


def _rng_for(family: str, n: int, m: int, seed: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([_FAMILY_CODE[family], n, m, seed % 2**32])
    )


def generate_instance(family: str, size, seed: int) -> MipModel:
    """Deterministic feasible-by-construction benchmark instance.

    Families: ``knapsack`` (m cover-style capacity rows, all-zeros feasible),
    ``set_cover`` (m coverage rows, all-ones feasible) and ``gap``
    (generalized assignment planted around a known feasible assignment; n is
    rounded down to a multiple of m agents).
    """
    model, _ = generate_instance_with_witness(family, size, seed)
    return model


def generate_instance_with_witness(family: str, size, seed: int):
    """Like :func:`generate_instance` but also returns a known feasible point."""
    n, m = int(size[0]), int(size[1])
    if n < 1 or m < 1:
        raise ValueError("instance size must satisfy n, m >= 1")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    rng = _rng_for(family, n, m, seed)
    if family == "knapsack":
        return _gen_knapsack(n, m, seed, rng)
    if family == "set_cover":
        return _gen_set_cover(n, m, seed, rng)
    return _gen_gap(n, m, seed, rng)


def _gen_knapsack(n, m, seed, rng):
    weights = rng.integers(1, 10, size=(m, n)).astype(float)
    values = rng.integers(1, 10, size=n).astype(float)
    cap = np.maximum(1.0, np.floor(0.5 * weights.sum(axis=1)))
    model = MipModel(
        name=f"knapsack_n{n}_m{m}_s{seed}",
        c=-values,  # maximize value, stored as a minimization
        row_cols=[np.arange(n)] * m,
        row_vals=[weights[i] for i in range(m)],
        row_senses=["L"] * m,
        rhs=cap,
        lower=np.zeros(n),
        upper=np.ones(n),
        integers=np.arange(n),
    )
    witness = Assignment.from_values(model, np.zeros(n))
    return model, witness


def _gen_set_cover(n, m, seed, rng):
    cost = rng.integers(1, 10, size=n).astype(float)
    row_cols = []
    for _ in range(m):
        k = int(rng.integers(1, min(n, 6) + 1))
        cols = np.sort(rng.choice(n, size=k, replace=False))
        row_cols.append(cols)
    model = MipModel(
        name=f"set_cover_n{n}_m{m}_s{seed}",
        c=cost,
        row_cols=row_cols,
        row_vals=[np.ones(len(cols)) for cols in row_cols],
        row_senses=["G"] * m,
        rhs=np.ones(m),
        lower=np.zeros(n),
        upper=np.ones(n),
        integers=np.arange(n),
    )
    witness = Assignment.from_values(model, np.ones(n))
    return model, witness


def _gen_gap(n, m, seed, rng):
    agents = m
    tasks = max(1, n // agents)
    nv = agents * tasks  # x[i*tasks + j]: agent i takes task j
    weight = rng.integers(1, 10, size=(agents, tasks)).astype(float)
    cost = rng.integers(1, 10, size=(agents, tasks)).astype(float)
    planted = rng.integers(0, agents, size=tasks)
    slack = rng.integers(0, 4, size=agents).astype(float)
    cap = np.zeros(agents)
    for j, i in enumerate(planted):
        cap[i] += weight[i, j]
    cap += slack
    cap = np.maximum(cap, 1.0)

    row_cols, row_vals, senses, rhs = [], [], [], []
    for j in range(tasks):  # each task assigned exactly once
        row_cols.append(np.array([i * tasks + j for i in range(agents)]))
        row_vals.append(np.ones(agents))
        senses.append("E")
        rhs.append(1.0)
    for i in range(agents):  # agent capacities
        row_cols.append(np.arange(i * tasks, (i + 1) * tasks))
        row_vals.append(weight[i].copy())
        senses.append("L")
        rhs.append(cap[i])

    model = MipModel(
        name=f"gap_n{n}_m{m}_s{seed}",
        c=cost.reshape(-1),
        row_cols=row_cols,
        row_vals=row_vals,
        row_senses=senses,
        rhs=np.array(rhs),
        lower=np.zeros(nv),
        upper=np.ones(nv),
        integers=np.arange(nv),
    )
    x = np.zeros(nv)
    for j, i in enumerate(planted):
        x[i * tasks + j] = 1.0
    witness = Assignment.from_values(model, x)
    return model, witness


# ---------------------------------------------------------------------------
# MPS subset reader / writer
# ---------------------------------------------------------------------------

_BOUND_KEYS_WITH_VALUE = {"LO", "UP", "FX"}
_BOUND_KEYS_BARE = {"BV", "MI", "PL"}


def parse_mps(text: str) -> MipModel:
    """Parse a fixed- or free-format MPS subset into a :class:`MipModel`.

    Supported sections: NAME, OBJSENSE, ROWS, COLUMNS (with INTORG/INTEND
    markers), RHS, RANGES, BOUNDS (LO/UP/FX/BV/MI/PL), ENDATA.  Default
    variable domain is [0, +inf).  RANGES rows are split into two inequality
    rows.  Maximization inputs are negated into minimize form.  A nonzero RHS
    on the objective row (a constant objective offset) raises
    :class:`ObjectiveOffset`.
    """
    name = ""
    maximize = False
    section = None
    seen = set()
    obj_row = None
    free_rows = set()
    row_index = {}  # constraint row name -> index
    row_sense = []
    col_index = {}
    col_order = []
    entries = {}  # (row idx, col idx) -> value
    obj_coef = {}  # col idx -> objective value
    integer_cols = set()
    rhs_map = {}
    range_map = {}
    bounds_lo = {}
    bounds_up = {}
    in_integer_block = False
    ended = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        is_header = not raw[0].isspace()
        tokens = raw.split()
        if is_header:
            key = tokens[0].upper()
            if key == "NAME":
                name = tokens[1] if len(tokens) > 1 else ""
                section = "NAME"
            elif key == "OBJSENSE":
                section = "OBJSENSE"
                if len(tokens) > 1 and tokens[1].upper().startswith("MAX"):
                    maximize = True
            elif key in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS"):
                if key != "ROWS" and "ROWS" not in seen:
                    raise MalformedSection(f"{key} section before ROWS")
                section = key
                seen.add(key)
            elif key == "ENDATA":
                ended = True
                break
            else:
                raise MalformedSection(f"unknown section {key!r}")
            continue
        if section is None:
            raise MalformedSection("data line before any section header")
        if section == "OBJSENSE":
            if tokens[0].upper().startswith("MAX"):
                maximize = True
        elif section == "ROWS":
            if len(tokens) != 2:
                raise MalformedSection(f"bad ROWS line: {raw!r}")
            rtype, rname = tokens[0].upper(), tokens[1]
            if rtype == "N":
                if obj_row is None:
                    obj_row = rname
                else:
                    free_rows.add(rname)  # extra free rows are ignored
            elif rtype in ("L", "G", "E"):
                row_index[rname] = len(row_sense)
                row_sense.append(rtype)
            else:
                raise MalformedSection(f"unknown row type {rtype!r}")
        elif section == "COLUMNS":
            if "'MARKER'" in tokens:
                if "'INTORG'" in tokens:
                    in_integer_block = True
                elif "'INTEND'" in tokens:
                    in_integer_block = False
                continue
            cname = tokens[0]
            if cname not in col_index:
                col_index[cname] = len(col_order)
                col_order.append(cname)
            j = col_index[cname]
            if in_integer_block:
                integer_cols.add(j)
            if len(tokens) % 2 == 0 or len(tokens) < 3:
                raise MalformedSection(f"bad COLUMNS line: {raw!r}")
            for rname, sval in zip(tokens[1::2], tokens[2::2]):
                value = _number(sval, section, lineno)
                if not math.isfinite(value) and rname not in free_rows:
                    raise MalformedSection(f"COLUMNS line {lineno}: coefficient {sval!r} "
                                           f"of row {rname!r}, column {cname!r} is not finite")
                if rname == obj_row:
                    if j in obj_coef:
                        raise DuplicateColumnEntry(
                            f"column {cname!r} listed twice in objective"
                        )
                    obj_coef[j] = value
                elif rname in free_rows:
                    continue
                elif rname in row_index:
                    key = (row_index[rname], j)
                    if key in entries:
                        raise DuplicateColumnEntry(
                            f"duplicate entry for row {rname!r}, column {cname!r}"
                        )
                    if value != 0.0:
                        entries[key] = value
                else:
                    raise UnknownRowReference(f"column entry references {rname!r}")
        elif section == "RHS":
            for rname, sval in _pairs(tokens[1:], raw):
                value = _number(sval, section, lineno)
                if rname == obj_row and value != 0.0:
                    raise ObjectiveOffset(f"objective row {rname!r} has RHS {sval}")
                if rname == obj_row or rname in free_rows:
                    continue
                if rname not in row_index:
                    raise UnknownRowReference(f"RHS references {rname!r}")
                rhs_map[row_index[rname]] = value
        elif section == "RANGES":
            for rname, sval in _pairs(tokens[1:], raw):
                if rname not in row_index:
                    raise UnknownRowReference(f"RANGES references {rname!r}")
                range_map[row_index[rname]] = _number(sval, section, lineno)
        elif section == "BOUNDS":
            kind = tokens[0].upper()
            if kind in _BOUND_KEYS_WITH_VALUE:
                if len(tokens) < 4:
                    raise MalformedSection(f"bad BOUNDS line: {raw!r}")
                cname, value = tokens[2], _number(tokens[3], section, lineno)
            elif kind in _BOUND_KEYS_BARE:
                if len(tokens) < 3:
                    raise MalformedSection(f"bad BOUNDS line: {raw!r}")
                cname, value = tokens[2], None
            else:
                raise MalformedSection(f"unknown bound kind {kind!r}")
            if cname not in col_index:
                raise MalformedSection(f"BOUNDS references unknown column {cname!r}")
            j = col_index[cname]
            if kind == "LO":
                bounds_lo[j] = value
            elif kind == "UP":
                bounds_up[j] = value
            elif kind == "FX":
                bounds_lo[j] = value
                bounds_up[j] = value
            elif kind == "BV":
                bounds_lo[j] = 0.0
                bounds_up[j] = 1.0
                integer_cols.add(j)
            elif kind == "MI":
                bounds_lo[j] = -INF
            elif kind == "PL":
                bounds_up[j] = INF

    if "ROWS" not in seen:
        raise MalformedSection("missing ROWS section")
    if "COLUMNS" not in seen:
        raise MalformedSection("missing COLUMNS section")
    if not ended:
        raise MalformedSection("missing ENDATA")

    n = len(col_order)
    mc = len(row_sense)
    c = np.zeros(n)
    for j, v in obj_coef.items():
        c[j] = v
    if maximize:
        c = -c
    lower = np.zeros(n)
    upper = np.full(n, INF)
    for j, v in bounds_lo.items():
        lower[j] = v
    for j, v in bounds_up.items():
        upper[j] = v

    per_row = [[] for _ in range(mc)]
    for (i, j), v in sorted(entries.items()):
        per_row[i].append((j, v))

    row_cols, row_vals, senses, rhs = [], [], [], []
    for i in range(mc):
        cols = np.array([j for j, _ in per_row[i]], dtype=np.int64)
        vals = np.array([v for _, v in per_row[i]])
        b, sense, r = rhs_map.get(i, 0.0), row_sense[i], range_map.get(i)
        if r is None:
            parts = [(sense, b)]
        elif sense != "E":
            parts = [(sense, b), ("G", b - abs(r)) if sense == "L" else ("L", b + abs(r))]
        else:  # E: interval [b, b+|r|] if r >= 0 else [b-|r|, b]
            lo, hi = (b, b + abs(r)) if r >= 0 else (b - abs(r), b)
            parts = [("E", b)] if lo == hi else [("G", lo), ("L", hi)]
        for part_sense, part_rhs in parts:  # the model copies rows into its own store
            row_cols.append(cols), row_vals.append(vals)
            senses.append(part_sense), rhs.append(part_rhs)

    return MipModel(
        name=name,
        c=c,
        row_cols=row_cols,
        row_vals=row_vals,
        row_senses=senses,
        rhs=np.array(rhs, dtype=float),
        lower=lower,
        upper=upper,
        integers=np.array(sorted(integer_cols), dtype=np.int64),
        maximize=maximize,
    )


def _number(token: str, section: str, lineno: int) -> float:
    """One numeric MPS token; a bad one raises MalformedSection saying where it is."""
    try:
        return float(token)
    except ValueError:
        raise MalformedSection(f"{section} line {lineno}: {token!r} is not a number") from None


def _pairs(tokens, raw):
    if len(tokens) % 2 != 0:
        raise MalformedSection(f"odd token count in line: {raw!r}")
    return zip(tokens[0::2], tokens[1::2])


def write_mps(model: MipModel) -> str:
    """Emit the internal minimize form in the same MPS subset the reader accepts.

    Row/column names are synthesized positionally, so a parse/write round trip
    preserves all indices, coefficients, bounds and integrality markers.
    """
    out = [f"NAME {model.name}" if model.name else "NAME"]
    out.append("ROWS")
    out.append(" N OBJ")
    for i, sense in enumerate(model.row_senses):
        out.append(f" {sense} R{i}")

    order = np.argsort(model.indices, kind="stable")  # by column, rows ascending in each
    col_start = np.searchsorted(model.indices[order], np.arange(model.n + 1))
    col_rows, col_vals = model.entry_rows[order].tolist(), model.data[order].tolist()

    out.append("COLUMNS")
    in_int = False
    marker = 0
    for j in range(model.n):
        want_int = j in model.integer_set
        if want_int and not in_int:
            out.append(f" MK{marker} 'MARKER' 'INTORG'")
            marker += 1
            in_int = True
        elif not want_int and in_int:
            out.append(f" MK{marker} 'MARKER' 'INTEND'")
            marker += 1
            in_int = False
        pieces = []
        if model.c[j] != 0.0:
            pieces.append(("OBJ", float(model.c[j])))
        s, e = col_start[j], col_start[j + 1]
        pieces.extend((f"R{i}", v) for i, v in zip(col_rows[s:e], col_vals[s:e]))
        if not pieces:
            pieces.append(("OBJ", 0.0))  # registers the column
        for rname, v in pieces:
            out.append(f" C{j} {rname} {v!r}")
    if in_int:
        out.append(f" MK{marker} 'MARKER' 'INTEND'")

    out.append("RHS")
    for i, b in enumerate(model.rhs):
        if b != 0.0:
            out.append(f" RHS R{i} {float(b)!r}")

    bound_lines = []
    for j in range(model.n):
        lo, up = model.lower[j], model.upper[j]
        if lo == up:
            bound_lines.append(f" FX BND C{j} {float(lo)!r}")
            continue
        if lo == -INF:
            bound_lines.append(f" MI BND C{j}")
        elif lo != 0.0:
            bound_lines.append(f" LO BND C{j} {float(lo)!r}")
        if up != INF:
            bound_lines.append(f" UP BND C{j} {float(up)!r}")
    if bound_lines:
        out.append("BOUNDS")
        out.extend(bound_lines)
    out.append("ENDATA")
    return "\n".join(out) + "\n"


def load_instance(uri: str) -> MipModel:
    """Resolve ``gen:family:n=...,m=...,seed=...`` URIs or read an MPS file.

    A ``gen:`` URI sets each of the integer keys ``n``, ``m`` and ``seed`` (default
    0) at most once; any other key, a repeat or a non-integer value is a ValueError
    that names the URI and the key.
    """
    if uri.startswith("gen:"):
        parts = uri.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad instance uri {uri!r}")
        family = parts[1]
        params = {}
        for item in parts[2].split(","):
            if "=" not in item:
                raise ValueError(f"bad instance uri {uri!r}")
            k, v = (part.strip() for part in item.split("=", 1))
            if k not in ("n", "m", "seed"):
                raise ValueError(f"instance uri {uri!r}: unknown key {k!r}, expected n, m or seed")
            if k in params:
                raise ValueError(f"instance uri {uri!r}: key {k!r} given twice")
            try:
                params[k] = int(v)
            except ValueError:
                raise ValueError(f"instance uri {uri!r}: key {k!r} must be an integer, "
                                 f"got {v!r}") from None
        if "n" not in params or "m" not in params:
            raise ValueError(f"instance uri {uri!r} must set n and m")
        return generate_instance(
            family, (params["n"], params["m"]), params.get("seed", 0)
        )
    with open(uri) as fh:
        return parse_mps(fh.read())
