"""Problem container, solution evaluation, presolve, instance generators and MPS subset I/O.

Everything downstream works on :class:`MipModel` in minimize form.  Models are
immutable after construction, and ``==`` compares them by identity;
generators are pure functions of their arguments, so the same (family, size,
seed) triple always reproduces the same instance byte for byte.
:func:`presolve` turns integer singleton rows into bounds and drops the rows
the bounds imply; it keeps every column, so its model's points are the
input's, and ``bnb.solve`` runs every top-level search on it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, count, filterfalse, repeat
from operator import itemgetter

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


class DuplicateRowEntry(MpsError):
    """ROWS declares a row name twice, or RHS or RANGES gives a row a second value."""


class ObjectiveOffset(MpsError):
    """RHS gives the objective row a nonzero constant, which the model cannot carry."""


class DimensionMismatch(ValueError):
    """A vector does not match the model's variable count."""


@dataclass(eq=False)  # identity: the fields are arrays, which have no single truth value
class MipModel:
    """A mixed integer program ``min c.x  s.t. rows, bounds, x_i integral for i in I``.

    The rows come in compressed sparse row form and are stored once,
    read-only: row ``i`` has the coefficients ``data[indptr[i]:indptr[i + 1]]``
    in the columns ``indices[indptr[i]:indptr[i + 1]]``, the sense
    ``senses[i]`` (``"L"``, ``"G"`` or ``"E"``, one ``"U1"`` array) and the
    right-hand side ``rhs[i]``; ``entry_rows`` names the row of each entry.
    ``integers`` holds the integer columns, sorted and unique.
    ``row_cols`` and ``row_vals`` give each row's slice of ``indices`` and
    ``data`` as a list of views, made anew on each read.  ``integral_objective``,
    ``binary`` and the rounding ``locks`` are computed once, on first read;
    the first says whether every point with integral integer columns has an
    integral objective.  ``maximize``
    records that the original input was a maximization whose objective was
    negated on the way in; reported objectives should be un-negated by the
    caller when that flag is set.
    """

    name: str
    c: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integers: np.ndarray
    maximize: bool = False
    entry_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        self.integers = np.unique(np.asarray(self.integers))
        self.senses = np.asarray(self.senses, dtype=str)  # "U1" once validated
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices)
        self.data = np.asarray(self.data, dtype=float)
        self._validate_csr()
        self.entry_rows = np.repeat(np.arange(self.m), np.diff(self.indptr))
        self._validate()
        self.indices = self.indices.astype(np.int64, copy=False)
        self.integers = self.integers.astype(np.int64)
        for arr in (self.c, self.rhs, self.lower, self.upper, self.integers, self.senses,
                    self.indptr, self.indices, self.data, self.entry_rows):
            arr.setflags(write=False)

    def _validate_csr(self):
        """Check that ``indptr`` cuts ``indices`` and ``data`` into m rows."""
        indptr, nnz = self.indptr, len(self.indices)
        if not len(indptr) == len(self.senses) + 1 == self.m + 1:
            raise ValueError("row arrays must all have length m: senses and rhs m, indptr m + 1")
        if indptr[0] != 0:
            raise ValueError(f"indptr must start at 0, not {indptr[0]}")
        drop = np.diff(indptr) < 0
        if drop.any():
            k = int(np.argmax(drop))
            raise ValueError(f"indptr must not decrease: indptr[{k + 1}] = {indptr[k + 1]} "
                             f"< indptr[{k}] = {indptr[k]}")
        if indptr[-1] != nnz:
            raise ValueError(f"indptr must end at len(indices) = {nnz}, not {indptr[-1]}")
        if len(self.data) != nnz:
            raise ValueError(f"data has {len(self.data)} entries but indices has {nnz}")

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
        bad = ~np.isin(self.senses, SENSES)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"row {i}: unknown sense {str(self.senses[i])!r}")
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
    def row_cols(self) -> list:
        return self._rows(self.indices)

    @property
    def row_vals(self) -> list:
        return self._rows(self.data)

    def _rows(self, entries: np.ndarray) -> list:
        """Each row's slice of an entry array, as views."""
        ends = self.indptr.tolist()
        return [entries[a:b] for a, b in zip(ends, ends[1:])]

    @cached_property
    def integral_objective(self) -> bool:
        """Every cost on an integer column is an integer and every continuous column costs 0."""
        continuous = np.ones(self.n, dtype=bool)
        continuous[self.integers] = False
        return bool(np.all(self.c[continuous] == 0.0) and np.all(_integral(self.c[self.integers])))

    @cached_property
    def binary(self) -> np.ndarray:
        """Which columns are integers with bounds inside [0, 1], up to ``DEFAULT_INT_TOL``."""
        mask = np.zeros(self.n, dtype=bool)
        ints = self.integers
        mask[ints] = ((self.lower[ints] >= -DEFAULT_INT_TOL)
                      & (self.upper[ints] <= 1.0 + DEFAULT_INT_TOL))
        return mask

    @cached_property
    def locks(self) -> tuple:
        """(down, up): per column, the count of rows that rounding it down or up may violate."""
        sense = self.senses[self.entry_rows]
        pos = self.data > 0
        # a positive entry locks rounding up in an L or E row and down in a G or E row
        up = np.where(pos, sense != "G", sense != "L")
        down = np.where(pos, sense != "L", sense != "G")
        return (np.bincount(self.indices[down], minlength=self.n),
                np.bincount(self.indices[up], minlength=self.n))

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
    with np.errstate(invalid="ignore"):  # inf - inf from a non-finite entry: see below
        worst = np.max(np.concatenate([
            _row_violation(model.senses, model.row_activity(values) - model.rhs),
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


def _row_violation(senses: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """How far each row misses its sense, given ``gap`` = activity - rhs (negative: slack)."""
    return np.where(senses == "L", gap, np.where(senses == "G", -gap, np.abs(gap)))


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


def presolve(model: MipModel, feas_tol: float = DEFAULT_FEAS_TOL) -> MipModel:
    """``model`` with its integer singleton rows turned into bounds and its implied rows dropped.

    A row with one entry ``a x_j`` on an integer column becomes the bounds
    that admit exactly the integers ``evaluate_solution`` accepts in that row
    within ``feas_tol``; several rows on one column intersect.  Then every G
    row whose least activity over the tightened box is ``>= rhs``, and every
    L row whose greatest is ``<= rhs``, is dropped (a plain float comparison).
    E rows, continuous singleton rows and all columns stay, so a point of the
    result is a point of ``model``.  Returns ``model`` itself when no row goes,
    or when a tightened lower bound would pass its upper bound: the search
    then proves the model infeasible as it would have.
    """
    sizes = np.diff(model.indptr)
    rows = np.flatnonzero(sizes == 1)
    rows = rows[np.isin(model.indices[model.indptr[rows]], model.integers)]
    at = model.indptr[rows]
    cols, a, b, senses = model.indices[at], model.data[at], model.rhs[rows], model.senses[rows]

    def meets(v):  # evaluate_solution's row test for x_j = v
        return _row_violation(senses, a * v - b) <= feas_tol

    # the activity the row admits, as a range of x_j, rounded inward to integers and then
    # moved one step where the division's round-off put an end on the wrong side
    least = np.where(senses == "L", -INF, b - feas_tol)
    most = np.where(senses == "G", INF, b + feas_tol)
    lo = np.ceil(np.where(a > 0, least, most) / a)
    hi = np.floor(np.where(a > 0, most, least) / a)
    lo = np.where(meets(lo - 1), lo - 1, np.where(meets(lo), lo, lo + 1))
    hi = np.where(meets(hi + 1), hi + 1, np.where(meets(hi), hi, hi - 1))
    lower, upper = model.lower.copy(), model.upper.copy()
    np.maximum.at(lower, cols, lo)
    np.minimum.at(upper, cols, hi)
    if np.any(lower > upper):
        return model

    def activity(at_pos, at_neg):  # each column at at_pos where its entry is positive
        x = np.where(model.data > 0, at_pos[model.indices], at_neg[model.indices])
        return np.bincount(model.entry_rows, weights=model.data * x, minlength=model.m)

    drop = (((model.senses == "G") & (activity(lower, upper) >= model.rhs))
            | ((model.senses == "L") & (activity(upper, lower) <= model.rhs)))
    drop[rows] = True
    if not drop.any():
        return model
    keep = ~drop
    entries = keep[model.entry_rows]
    return MipModel(
        name=model.name, c=model.c,
        indptr=np.concatenate([[0], np.cumsum(sizes[keep])]),
        indices=model.indices[entries], data=model.data[entries],
        senses=model.senses[keep], rhs=model.rhs[keep],
        lower=lower, upper=upper, integers=model.integers, maximize=model.maximize,
    )


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
        indptr=np.arange(m + 1) * n,
        indices=np.tile(np.arange(n), m),
        data=weights.reshape(-1),
        senses=["L"] * m,
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
        row_cols.append(np.sort(rng.choice(n, size=k, replace=False)))
    indices = np.concatenate(row_cols)
    model = MipModel(
        name=f"set_cover_n{n}_m{m}_s{seed}",
        c=cost,
        indptr=np.concatenate([[0], np.cumsum([len(cols) for cols in row_cols])]),
        indices=indices,
        data=np.ones(len(indices)),
        senses=["G"] * m,
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

    # rows 0..tasks-1: each task assigned exactly once, its column in every agent's
    # block; then one capacity row per agent, over the agent's block
    model = MipModel(
        name=f"gap_n{n}_m{m}_s{seed}",
        c=cost.reshape(-1),
        indptr=np.concatenate([np.arange(tasks) * agents, nv + np.arange(agents + 1) * tasks]),
        indices=np.concatenate([np.arange(nv).reshape(agents, tasks).T.reshape(-1),
                                np.arange(nv)]),
        data=np.concatenate([np.ones(nv), weight.reshape(-1)]),
        senses=["E"] * tasks + ["L"] * agents,
        rhs=np.concatenate([np.ones(tasks), cap]),
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

# what a row name in COLUMNS or RHS resolves to, besides a constraint row's index
_OBJ, _FREE, _UNKNOWN = -1, -2, -3
_ROW_KINDS = frozenset(("N", "L", "G", "E"))

_VALUE = "value"  # the bound takes the number on the BOUNDS line
# bound kind -> (tokens on its line, lower bound, upper bound, makes the column integer);
# None leaves that bound as it was
_BOUND_KINDS = {
    "LO": (4, _VALUE, None, False),
    "UP": (4, None, _VALUE, False),
    "FX": (4, _VALUE, _VALUE, False),
    "LI": (4, _VALUE, None, True),
    "UI": (4, None, _VALUE, True),
    "BV": (3, 0.0, 1.0, True),
    "MI": (3, -INF, None, False),
    "PL": (3, None, INF, False),
    "FR": (3, -INF, INF, False),
}
_BOUND_ID = {kind: i for i, kind in enumerate(_BOUND_KINDS)}
_BOUND_SPECS = list(_BOUND_KINDS.values())
# tokens on a line of each kind id; an unknown kind, id -1, reads the last entry
_BOUND_TOKENS = np.array([spec[0] for spec in _BOUND_KINDS.values()] + [0])
# the most data lines read in one go: a longer section is read in batches, each as a
# repeated section would be, so that only this many lines' tokens are held at once
_CHUNK = 1024
_HEADER = re.compile(r"\n[^\s*]")  # a line that starts with neither whitespace nor a comment
_MARKER = re.compile("'MARKER'")


def parse_mps(text: str) -> MipModel:
    """Parse a fixed- or free-format MPS subset into a :class:`MipModel`.

    Supported sections: NAME, OBJSENSE, ROWS, COLUMNS (with INTORG/INTEND
    markers), RHS, RANGES, BOUNDS, ENDATA.  Default variable domain is
    [0, +inf).  The bound kinds are LO, UP and FX (lower, upper, both), MI
    (lower -inf), PL (upper +inf), FR (free), BV (binary), and LI and UI
    (lower and upper bounds that also make the column integer).  A negative
    UP or UI bound on a column whose lower bound no BOUNDS line sets makes
    that lower bound -inf, as HiGHS and CPLEX read it.  RANGES rows
    are split into two inequality rows in place.  Maximization inputs are
    negated into minimize form.  A nonzero RHS on the objective row (a
    constant objective offset) raises :class:`ObjectiveOffset`.

    Duplicates: a (row, column) pair or a column's objective coefficient
    given twice raises :class:`DuplicateColumnEntry`, where an explicit zero
    counts though zeros stay out of the model; a row name declared twice in
    ROWS, whatever the two types, or a row given two RHS values or two RANGES
    values, in one vector or in two, raises :class:`DuplicateRowEntry`; a
    later BOUNDS line overrides an earlier one on the same bound of the same
    column.

    Each section's data lines are read together, as arrays.  When several
    lines are at fault, the error is about the first of them.
    """
    lines = text.splitlines()
    heads, marked = _lines_matching(lines, _HEADER, _MARKER)
    comments = "*" in text
    if len(_data_lines(lines, 0, heads[0] if heads else len(lines), comments)[0]):
        raise MalformedSection("data line before any section header")
    reader = _MpsReader(lines, marked)
    ended = False
    for head, end in zip(heads, heads[1:] + [len(lines)]):
        tokens = lines[head].split()
        key = tokens[0].upper()
        if key == "ENDATA":
            ended = True
            break
        for start in range(head + 1, end, _CHUNK) or [end]:
            reader.section(key, tokens, *_data_lines(lines, start, min(start + _CHUNK, end),
                                                     comments))
    for key in ("ROWS", "COLUMNS"):
        if key not in reader.seen:
            raise MalformedSection(f"missing {key} section")
    if not ended:
        raise MalformedSection("missing ENDATA")
    return reader.model()


class _MpsReader:
    """What :func:`parse_mps` has read so far; it reads each section in one go.

    A section's handler gets the indices ``at`` of its data lines in the
    text, as an array, and their tokens ``toks``.  A section may appear more
    than once, and :func:`parse_mps` hands over a long one in batches; each
    call adds to what the earlier ones read.
    """

    def __init__(self, lines, marked):
        self.lines = lines
        self.marked = marked  # the lines that hold the text 'MARKER'
        self.seen = set()
        self.name, self.maximize = "", False
        self.obj_row, self.free_rows = None, set()
        self.row_index, self.row_sense = {}, []  # constraint rows
        self.col_index = {}
        self.in_integer_block = False
        ints, floats = np.zeros(0, dtype=np.int64), np.zeros(0)
        self.integers = ints
        self.obj = ints, floats  # objective columns and coefficients
        self.entries = ints, ints, floats  # constraint rows, columns and coefficients
        self.rhs = ints, floats  # rows and values
        self.ranges = ints, floats
        self.lower = ints, floats  # columns and values, in line order
        self.upper = ints, floats
        self.negative_up = ints  # columns of UP and UI lines with a negative value

    def section(self, key, head, at, toks):
        if key == "NAME":
            self.name = head[1] if len(head) > 1 else ""
        elif key == "OBJSENSE":  # MAX on the header line or on a data line
            words = head[1:2] + [t[0] for t in toks]
            self.maximize |= any(w.upper().startswith("MAX") for w in words)
        elif key in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS"):
            if key != "ROWS" and "ROWS" not in self.seen:
                raise MalformedSection(f"{key} section before ROWS")
            self.seen.add(key)
            getattr(self, f"read_{key.lower()}")(at, toks)
        else:
            raise MalformedSection(f"unknown section {key!r}")

    def read_rows(self, at, toks):
        kinds = list(map(str.upper, _token(toks, 0)))
        names = _token(toks, 1)
        declared = set(self.row_index) | self.free_rows | {self.obj_row}
        again = []  # whether each line's name was declared before it
        for name in names:
            again.append(name in declared)
            declared.add(name)
        _raise_first([
            (np.fromiter(map(len, toks), dtype=np.int64, count=len(toks)) != 2,
             lambda k: MalformedSection(f"bad ROWS line: {self.lines[at[k]]!r}")),
            (~np.fromiter(map(_ROW_KINDS.__contains__, kinds), dtype=bool, count=len(kinds)),
             lambda k: MalformedSection(f"unknown row type {kinds[k]!r}")),
            (np.array(again, dtype=bool), lambda k: DuplicateRowEntry(
                f"ROWS line {at[k] + 1}: row {names[k]!r} already declared")),
        ])
        free = [name for kind, name in zip(kinds, names) if kind == "N"]
        if free and self.obj_row is None:
            self.obj_row = free.pop(0)
        self.free_rows.update(free)  # extra free rows are ignored
        named = [(kind, name) for kind, name in zip(kinds, names) if kind != "N"]
        base = len(self.row_sense)
        self.row_index.update({name: base + i for i, (_, name) in enumerate(named)})
        self.row_sense += [kind for kind, _ in named]

    def read_columns(self, at, toks):
        near = np.searchsorted(at, self.marked).tolist()
        marks = [i for i, k in zip(near, self.marked)
                 if i < len(at) and at[i] == k and "'MARKER'" in toks[i]]
        integral = np.full(len(toks), self.in_integer_block)
        for i in marks:  # a marker line sets the integrality of the lines after it
            if "'INTORG'" in toks[i]:
                integral[i:] = True
            elif "'INTEND'" in toks[i]:
                integral[i:] = False
        if marks:
            self.in_integer_block = bool(integral[-1])
            keep = np.ones(len(toks), dtype=bool)
            keep[marks] = False
            at, toks, integral = at[keep], list(compress(toks, keep)), integral[keep]
        toks, rnames, svals, line, pending = self._pairs(at, toks, 3, "bad COLUMNS line")
        names = _token(toks, 0)
        fresh = filterfalse(self.col_index.__contains__, dict.fromkeys(names))
        self.col_index.update(zip(list(fresh), count(len(self.col_index))))
        line_col = np.fromiter(map(self.col_index.__getitem__, names), dtype=np.int64,
                               count=len(names))
        self.integers = np.concatenate([self.integers, line_col[integral[:len(toks)]]])
        col = line_col[line]
        vals, not_number = _numbers(svals)
        code = self._codes(rnames)
        is_obj, is_row = code == _OBJ, code >= 0
        n = len(self.col_index)
        rows, cols, _ = self.entries
        # the objective counts as row -1: one key per (row, column) pair
        again = _repeats(np.concatenate([self.obj[0], (rows + 1) * n + cols]),
                         (code + 1) * n + col, code >= _OBJ)

        def where(p):
            return f"COLUMNS line {at[line[p]] + 1}"

        _raise_first([
            (not_number, lambda p: MalformedSection(f"{where(p)}: {svals[p]!r} is not a number")),
            (~np.isfinite(vals) & (code != _FREE), lambda p: MalformedSection(
                f"{where(p)}: coefficient {svals[p]!r} of row {rnames[p]!r}, column "
                f"{names[line[p]]!r} is not finite")),
            (again & is_obj, lambda p: DuplicateColumnEntry(
                f"{where(p)}: column {names[line[p]]!r} listed twice in objective")),
            (again & is_row, lambda p: DuplicateColumnEntry(
                f"{where(p)}: duplicate entry for row {rnames[p]!r}, column {names[line[p]]!r}")),
            (code == _UNKNOWN,
             lambda p: UnknownRowReference(f"column entry references {rnames[p]!r}")),
        ], pending)
        self.obj = _extend(self.obj, col[is_obj], vals[is_obj])
        self.entries = _extend(self.entries, code[is_row], col[is_row], vals[is_row])

    def read_rhs(self, at, toks):
        _, rnames, svals, line, pending = self._pairs(at, toks, 1, "odd token count in line")
        vals, not_number = _numbers(svals)
        code = self._codes(rnames)
        is_row = code >= 0
        _raise_first([
            (not_number, lambda p: MalformedSection(
                f"RHS line {at[line[p]] + 1}: {svals[p]!r} is not a number")),
            ((code == _OBJ) & (vals != 0.0), lambda p: ObjectiveOffset(
                f"objective row {rnames[p]!r} has RHS {svals[p]}")),
            (code == _UNKNOWN, lambda p: UnknownRowReference(f"RHS references {rnames[p]!r}")),
            (_repeats(self.rhs[0], code, is_row), lambda p: DuplicateRowEntry(
                f"RHS line {at[line[p]] + 1}: row {rnames[p]!r} already has a right-hand side")),
        ], pending)
        self.rhs = _extend(self.rhs, code[is_row], vals[is_row])

    def read_ranges(self, at, toks):
        _, rnames, svals, line, pending = self._pairs(at, toks, 1, "odd token count in line")
        vals, not_number = _numbers(svals)
        rows = np.fromiter(map(self.row_index.get, rnames, repeat(_UNKNOWN)), dtype=np.int64,
                           count=len(rnames))
        known = rows >= 0
        _raise_first([
            (~known, lambda p: UnknownRowReference(f"RANGES references {rnames[p]!r}")),
            (not_number, lambda p: MalformedSection(
                f"RANGES line {at[line[p]] + 1}: {svals[p]!r} is not a number")),
            (_repeats(self.ranges[0], rows, known), lambda p: DuplicateRowEntry(
                f"RANGES line {at[line[p]] + 1}: row {rnames[p]!r} already has a range")),
        ], pending)
        self.ranges = _extend(self.ranges, rows, vals)

    def read_bounds(self, at, toks):
        kinds = np.fromiter(map(_BOUND_ID.get, map(str.upper, _token(toks, 0)), repeat(-1)),
                            dtype=np.int64, count=len(toks))
        need = _BOUND_TOKENS[kinds]  # 0 for an unknown kind
        short = np.fromiter(map(len, toks), dtype=np.int64, count=len(toks)) < need
        # the value on each line whose kind takes one: NaN where it is not a number
        valued = (need == 4) & ~short
        value_tokens = _token(toks, 3)
        vals = np.full(len(toks), np.nan)
        not_number = np.zeros(len(toks), dtype=bool)
        vals[valued], not_number[valued] = _numbers(list(compress(value_tokens, valued)))
        col = np.fromiter(map(self.col_index.get, _token(toks, 2), repeat(-1)), dtype=np.int64,
                          count=len(toks))
        _raise_first([
            (need == 0, lambda k: MalformedSection(f"unknown bound kind {toks[k][0].upper()!r}")),
            (short, lambda k: MalformedSection(f"bad BOUNDS line: {self.lines[at[k]]!r}")),
            (not_number, lambda k: MalformedSection(
                f"BOUNDS line {at[k] + 1}: {value_tokens[k]!r} is not a number")),
            ((need > 0) & ~short & (col < 0), lambda k: MalformedSection(
                f"BOUNDS references unknown column {toks[k][2]!r}")),
        ])
        sets = np.zeros((2, len(toks)), dtype=bool)  # which lines set a lower, an upper bound
        value = np.zeros((2, len(toks)))
        integer = np.zeros(len(toks), dtype=bool)
        for kind in set(kinds.tolist()):
            _, *bound, makes_integer = _BOUND_SPECS[kind]
            here = kinds == kind
            for b, v in enumerate(bound):
                if v is not None:
                    sets[b] |= here
                    value[b, here] = vals[here] if v is _VALUE else v
            if makes_integer:
                integer |= here
        self.lower = _extend(self.lower, col[sets[0]], value[0, sets[0]])
        self.upper = _extend(self.upper, col[sets[1]], value[1, sets[1]])
        ups = (kinds == _BOUND_ID["UP"]) | (kinds == _BOUND_ID["UI"])
        self.negative_up = np.concatenate([self.negative_up, col[ups & (vals < 0)]])
        self.integers = np.concatenate([self.integers, col[integer]])

    def _pairs(self, at, toks, least, what):
        """The (row name, value token) pairs after each line's first token.

        Returns the lines split, the pairs' names and values in file order,
        the line of each pair (an index into ``toks``), and the error for the
        first line whose token count is even or below ``least``, where the
        split stops, or None.
        """
        lens = np.fromiter(map(len, toks), dtype=np.int64, count=len(toks))
        bad = (lens % 2 == 0) | (lens < least)
        pending = None
        if bad.any():
            stop = int(np.argmax(bad))
            pending = MalformedSection(f"{what}: {self.lines[at[stop]]!r}")
            toks, lens = toks[:stop], lens[:stop]
        names, values, keys = [], [], []
        widths = np.flatnonzero(np.bincount(lens)).tolist()
        wide = max(widths, default=0)
        for width in widths:  # lines of one token count: every pair is a strided slice
            group = np.flatnonzero(lens == width)
            flat = list(chain.from_iterable(
                toks if len(widths) == 1 else [toks[k] for k in group.tolist()]))
            for k in range(1, width, 2):
                names += flat[k::width]
                values += flat[k + 1::width]
                keys.append(group * wide + k)
        keys = np.concatenate(keys) if keys else np.zeros(0, dtype=np.int64)
        if len(widths) > 1 or wide > 3:  # put the pairs back in file order
            order = np.argsort(keys).tolist()
            names, values = [names[i] for i in order], [values[i] for i in order]
            keys = keys[order]
        return toks, names, values, keys // max(wide, 1), pending

    def _codes(self, names):
        """Each row name's constraint row index, or _OBJ, _FREE or _UNKNOWN."""
        lookup = dict(self.row_index)
        lookup.update(dict.fromkeys(self.free_rows, _FREE))
        if self.obj_row is not None:
            lookup[self.obj_row] = _OBJ
        return np.fromiter(map(lookup.get, names, repeat(_UNKNOWN)), dtype=np.int64,
                           count=len(names))

    def model(self) -> MipModel:
        n, mc = len(self.col_index), len(self.row_sense)
        c = np.zeros(n)
        c[self.obj[0]] = self.obj[1]
        if self.maximize:
            c = -c
        lower, upper = np.zeros(n), np.full(n, INF)
        lower[self.negative_up] = -INF  # unless a BOUNDS line sets the lower bound too
        for bound, (cols, vals) in ((lower, self.lower), (upper, self.upper)):
            order = np.argsort(cols, kind="stable")
            last = order[np.diff(cols[order], append=-1) != 0]  # each column's last line
            bound[cols[last]] = vals[last]  # a later line overrides an earlier one
        b = np.zeros(mc)
        b[self.rhs[0]] = self.rhs[1]
        senses, rhs, source = self._split_ranges(b)
        rows, cols, vals = self.entries
        nonzero = vals != 0.0
        rows, cols, vals = rows[nonzero], cols[nonzero], vals[nonzero]
        order = np.argsort(rows * n + cols, kind="stable")  # row by row, columns ascending
        counts = np.bincount(rows, minlength=mc)
        counts_out = counts[source]
        indptr = np.concatenate([[0], np.cumsum(counts_out)])
        # entry k of model row i is entry k of its source row
        take = order[np.repeat((np.cumsum(counts) - counts)[source] - indptr[:-1], counts_out)
                     + np.arange(indptr[-1])]
        return MipModel(
            name=self.name, c=c, indptr=indptr, indices=cols[take], data=vals[take],
            senses=senses, rhs=rhs, lower=lower, upper=upper,
            integers=self.integers, maximize=self.maximize,
        )

    def _split_ranges(self, b):
        """Each model row's sense and rhs, and the constraint row it comes from.

        A row with a RANGES value becomes two rows in its place, unless it is
        an E row whose range is 0.
        """
        if not len(self.ranges[0]):
            return list(self.row_sense), b, np.arange(len(b))
        ranges = dict(zip(self.ranges[0].tolist(), self.ranges[1].tolist()))
        senses, rhs, source = [], [], []
        for i, (sense, bi) in enumerate(zip(self.row_sense, b.tolist())):
            r = ranges.get(i)
            if r is None:
                parts = [(sense, bi)]
            elif sense != "E":
                parts = [(sense, bi), ("G", bi - abs(r)) if sense == "L" else ("L", bi + abs(r))]
            else:  # E: interval [b, b+|r|] if r >= 0 else [b-|r|, b]
                lo, hi = (bi, bi + abs(r)) if r >= 0 else (bi - abs(r), bi)
                parts = [("E", bi)] if lo == hi else [("G", lo), ("L", hi)]
            for part_sense, part_rhs in parts:
                senses.append(part_sense), rhs.append(part_rhs), source.append(i)
        return senses, np.array(rhs, dtype=float), np.array(source, dtype=np.int64)


def _data_lines(lines, start, end, comments):
    """The indices and tokens of the data lines in ``lines[start:end]``.

    Blank lines are skipped and so, when ``comments`` is set, are comments:
    lines whose first token starts with "*".
    """
    toks = list(map(str.split, lines[start:end]))
    keep = np.fromiter(map(len, toks), dtype=bool, count=len(toks))
    if comments:
        keep[[i for i in np.flatnonzero(keep).tolist() if toks[i][0][0] == "*"]] = False
    if not keep.all():
        toks = list(compress(toks, keep))
    return np.flatnonzero(keep) + start, toks


def _lines_matching(lines, *patterns) -> list:
    """For each pattern, the indices of the lines where it matches.

    The patterns search the lines joined into one text, each line after a
    line break.
    """
    text = "\n" + "\n".join(lines)
    out = []
    for pattern in patterns:
        found, k, seen = [], -1, 0
        for match in pattern.finditer(text):
            k += text.count("\n", seen, match.end())  # the line of the match's last character
            seen = match.end()
            if not found or found[-1] != k:
                found.append(k)
        out.append(found)
    return out


def _token(toks, k) -> list:
    """The ``k``-th token of each line, or "" where a line has fewer tokens."""
    try:
        return list(map(itemgetter(k), toks))
    except IndexError:
        return [t[k] if len(t) > k else "" for t in toks]


def _numbers(tokens):
    """The tokens as floats, and a mask of those that are not numbers (NaN in the floats)."""
    try:
        return np.array(tokens, dtype=float), np.zeros(len(tokens), dtype=bool)
    except ValueError:
        vals, bad = np.full(len(tokens), np.nan), np.zeros(len(tokens), dtype=bool)
        for i, token in enumerate(tokens):
            try:
                vals[i] = float(token)
            except ValueError:
                bad[i] = True
        return vals, bad


def _repeats(earlier, keys, where) -> np.ndarray:
    """Which entries ``where`` selects repeat a key of ``earlier`` or of an earlier such entry."""
    both = np.concatenate([earlier, keys[where]])
    order = np.argsort(both, kind="stable")
    again = np.zeros(len(both), dtype=bool)
    again[order[1:]] = both[order[1:]] == both[order[:-1]]
    out = np.zeros(len(keys), dtype=bool)
    out[where] = again[len(earlier):]
    return out


def _extend(arrays, *more):
    return tuple(np.concatenate(pair) for pair in zip(arrays, more))


def _raise_first(checks, pending=None):
    """Raise the error for the first entry that a check flags, else ``pending`` if given.

    Each check pairs a mask over entries in file order (value pairs or lines)
    with a function that makes the error for a flagged index; on one entry
    the earlier check comes first.
    """
    hits = [(int(np.argmax(mask)), rank) for rank, (mask, _) in enumerate(checks) if mask.any()]
    if hits:
        index, rank = min(hits)
        raise checks[rank][1](index)
    if pending is not None:
        raise pending


def write_mps(model: MipModel) -> str:
    """Emit the internal minimize form in the same MPS subset the reader accepts.

    Row/column names are synthesized positionally, so a parse/write round trip
    preserves all indices, coefficients, bounds and integrality markers.
    """
    out = [f"NAME {model.name}" if model.name else "NAME"]
    out.append("ROWS")
    out.append(" N OBJ")
    for i, sense in enumerate(model.senses.tolist()):
        out.append(f" {sense} R{i}")

    order = np.argsort(model.indices, kind="stable")  # by column, rows ascending in each
    col_start = np.searchsorted(model.indices[order], np.arange(model.n + 1))
    col_rows, col_vals = model.entry_rows[order].tolist(), model.data[order].tolist()

    out.append("COLUMNS")
    in_int = False
    marker = 0
    for j, want_int in enumerate(np.isin(np.arange(model.n), model.integers).tolist()):
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
