"""Independent oracles used by the test suite.

Everything here is written directly against the problem definitions, not
against the package internals: brute-force enumeration for binary MIPs,
exact rational vertex enumeration for small LPs, a line-by-line MPS reader,
a dive that rescans its candidates at every fixing, and a scripted RNG stub.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from banditmip.model import (
    INF,
    DuplicateColumnEntry,
    DuplicateRowEntry,
    MalformedSection,
    MipModel,
    ObjectiveOffset,
    UnknownRowReference,
)


def model_from_rows(row_cols, row_vals, **fields):
    """The MipModel whose row i has the coefficients ``row_vals[i]`` in the columns ``row_cols[i]``."""
    return MipModel(indptr=np.cumsum([0] + [len(cols) for cols in row_cols]),
                    indices=np.concatenate([np.zeros(0, dtype=np.int64), *row_cols]),
                    data=np.concatenate([np.zeros(0), *row_vals]), **fields)


def model_from_dense(rows, **fields):
    """The MipModel whose constraint matrix has the given dense rows; zeros stay out."""
    rows = [np.asarray(row, dtype=float) for row in rows]
    return model_from_rows([np.flatnonzero(r) for r in rows], [r[r != 0] for r in rows], **fields)


def dense_matrix(model):
    """The model's constraint matrix as a dense array, filled row by row."""
    A = np.zeros((model.m, model.n))
    for i, (idx, val) in enumerate(zip(model.row_cols, model.row_vals)):
        A[i, idx] = val
    return A


def brute_force_binary(model):
    """Exact optimum of an all-binary model by full enumeration.

    Returns (objective, argmin values) or (None, None) when infeasible.
    """
    n = model.n
    assert n <= 20, "enumeration oracle limited to small models"
    assert len(model.integers) == n
    masks = np.arange(1 << n, dtype=np.int64)
    X = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
    ok = np.ones(len(X), dtype=bool)
    ok &= (X >= model.lower - 1e-9).all(axis=1)
    ok &= (X <= model.upper + 1e-9).all(axis=1)
    A = dense_matrix(model)
    act = X @ A.T
    for i, sense in enumerate(model.senses):
        if sense == "L":
            ok &= act[:, i] <= model.rhs[i] + 1e-9
        elif sense == "G":
            ok &= act[:, i] >= model.rhs[i] - 1e-9
        else:
            ok &= np.abs(act[:, i] - model.rhs[i]) <= 1e-9
    if not ok.any():
        return None, None
    objs = X[ok] @ model.c
    best = int(np.argmin(objs))
    return float(objs[best]), X[ok][best]


def brute_force_integer(model, tol=1e-9):
    """Exact optimum of an all-integer model with a small finite box, by full enumeration.

    A point is feasible when each row holds within ``tol``.  Returns
    (objective, argmin values) or (None, None) when infeasible.
    """
    assert len(model.integers) == model.n
    assert np.all(np.isfinite(model.lower)) and np.all(np.isfinite(model.upper))
    axes = [np.arange(math.ceil(lo), math.floor(up) + 1, dtype=float)
            for lo, up in zip(model.lower, model.upper)]
    assert math.prod(len(a) for a in axes) <= 1 << 16, "enumeration oracle limited to small boxes"
    X = np.array(list(itertools.product(*axes)), dtype=float).reshape(-1, model.n)
    act = X @ dense_matrix(model).T
    ok = np.ones(len(X), dtype=bool)
    for i, sense in enumerate(model.senses):
        gap = act[:, i] - model.rhs[i]
        ok &= {"L": gap, "G": -gap, "E": np.abs(gap)}[sense] <= tol
    if not ok.any():
        return None, None
    objs = X[ok] @ model.c
    best = int(np.argmin(objs))
    return float(objs[best]), X[ok][best]


def _solve_exact(M, r):
    """Gaussian elimination over Fractions; returns None when singular."""
    n = len(r)
    M = [[Fraction(v) for v in row] for row in M]
    r = [Fraction(v) for v in r]
    for col in range(n):
        piv = next((i for i in range(col, n) if M[i][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        r[col], r[piv] = r[piv], r[col]
        inv = Fraction(1, 1) / M[col][col]
        M[col] = [v * inv for v in M[col]]
        r[col] = r[col] * inv
        for i in range(n):
            if i != col and M[i][col] != 0:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[col])]
                r[i] = r[i] - f * r[col]
    return r


def _exactly_feasible(x, A, senses, b, lower, upper):
    for j in range(len(x)):
        if x[j] < Fraction(lower[j]) or x[j] > Fraction(upper[j]):
            return False
    for i, row in enumerate(A):
        act = sum(Fraction(row[j]) * x[j] for j in range(len(x)))
        if senses[i] == "L" and act > Fraction(b[i]):
            return False
        if senses[i] == "G" and act < Fraction(b[i]):
            return False
        if senses[i] == "E" and act != Fraction(b[i]):
            return False
    return True


def lp_vertex_oracle(c, A, senses, b, lower, upper):
    """Exact LP optimum by rational vertex enumeration.

    Requires integer data and finite bounds on every variable (the feasible
    region is a polytope, so feasibility is equivalent to having a feasible
    vertex).  A float pass screens the candidate basic points; integer
    determinants make the nonsingularity test exact, and every surviving
    candidate is re-verified in exact rational arithmetic.

    Returns ("infeasible", None) or ("optimal", Fraction objective).
    """
    n = len(c)
    cons_a = [list(A[i]) for i in range(len(b))]
    cons_b = list(b)
    for j in range(n):
        e = [0] * n
        e[j] = 1
        cons_a.append(list(e))
        cons_b.append(lower[j])
        cons_a.append(list(e))
        cons_b.append(upper[j])
    CA = np.array(cons_a, dtype=float)
    CB = np.array(cons_b, dtype=float)
    combos = np.array(list(itertools.combinations(range(len(cons_a)), n)))
    M = CA[combos]
    R = CB[combos]
    dets = np.linalg.det(M)
    nonsing = np.abs(dets) > 0.5  # |det| >= 1 for nonsingular integer matrices
    verts = np.full((len(combos), n), np.nan)
    if nonsing.any():
        verts[nonsing] = np.linalg.solve(
            M[nonsing], R[nonsing][:, :, None]
        )[:, :, 0]

    Adense = np.array(A, dtype=float) if len(b) else np.zeros((0, n))
    feas = nonsing.copy()
    if len(b):
        act = verts @ Adense.T
        for i, s in enumerate(senses):
            if s == "L":
                feas &= act[:, i] <= b[i] + 1e-6
            elif s == "G":
                feas &= act[:, i] >= b[i] - 1e-6
            else:
                feas &= np.abs(act[:, i] - b[i]) <= 1e-6
    feas &= (verts >= np.array(lower, dtype=float) - 1e-6).all(axis=1)
    feas &= (verts <= np.array(upper, dtype=float) + 1e-6).all(axis=1)
    cand = np.nonzero(feas)[0]
    if cand.size == 0:
        return "infeasible", None

    cf = np.array(c, dtype=float)
    objs = verts[cand] @ cf
    order = cand[np.argsort(objs, kind="stable")]

    def exact_obj(row_idx):
        sel = combos[row_idx]
        x = _solve_exact([cons_a[i] for i in sel], [cons_b[i] for i in sel])
        if x is None:
            return None
        if not _exactly_feasible(x, A, senses, b, lower, upper):
            return None
        return sum(Fraction(c[j]) * x[j] for j in range(n))

    best = None
    for row_idx in order:
        fo = float(verts[row_idx] @ cf)
        if best is not None and fo > float(best) + 1e-3:
            break  # float error is ~1e-9, nothing farther can beat the verified best
        val = exact_obj(row_idx)
        if val is not None and (best is None or val < best):
            best = val
    if best is None:
        return "infeasible", None
    return "optimal", best


class FakeRng:
    """Scripted stand-in for numpy's Generator, for deterministic select tests."""

    def __init__(self, randoms=(), ints=()):
        self._randoms = list(randoms)
        self._ints = list(ints)

    def random(self):
        return self._randoms.pop(0)

    def integers(self, n):
        return self._ints.pop(0)

    def choice(self, arr):
        return arr[self._ints.pop(0)]


# ---------------------------------------------------------------------------
# A dive that rescans its candidates at every fixing: the reference for run_diving
# ---------------------------------------------------------------------------

def run_diving_reference(kind, lp, tree, bounds, limit, rng):
    """``run_diving``'s path, choosing each fixing by a fresh scan of the LP point.

    Before every fixing the open fractional integers of the last LP point are
    listed again, in index order, and the pick is the first with the least
    fractionality (``frac_dive``) or the fewest locks (``coef_dive``), or a
    ``rng.choice`` over the whole list (``rand_dive``).  Returns
    (found, steps, conflicts).
    """
    def frac(v):
        return min(v - math.floor(v), math.ceil(v) - v)

    def nearest(v):  # the lower integer on a tie
        return math.floor(v) if v - math.floor(v) <= math.ceil(v) - v else math.ceil(v)

    model, settings = tree.model, tree.settings
    ints = model.integers
    down_locks, up_locks = tree.locks
    q, force_every = limit.value, math.ceil(1.0 / limit.value)
    x_ref, basis = lp.x, lp.basis
    steps = changed = conflicts = 0
    last_fix = None
    while True:
        cands = [int(j) for j in ints
                 if bounds.upper[j] - bounds.lower[j] > 1e-9 and frac(x_ref[j]) > settings.int_tol]
        if not cands:
            if changed == 0:
                return False, steps, conflicts
        else:
            if kind == "frac_dive":  # min() keeps the first of equal keys: the lowest index
                j = min(cands, key=lambda k: frac(x_ref[k]))
                target = nearest(x_ref[j])
            elif kind == "coef_dive":
                j = min(cands, key=lambda k: min(down_locks[k], up_locks[k]))
                v, down, up = x_ref[j], down_locks[j], up_locks[j]
                target = math.floor(v) if down < up else math.ceil(v) if up < down else nearest(v)
            else:
                j = int(rng.choice(np.array(cands)))
                target = math.floor(x_ref[j]) if rng.random() < 0.5 else math.ceil(x_ref[j])
            target = min(max(float(target), math.ceil(bounds.lower[j] - 1e-9)),
                         math.floor(bounds.upper[j] + 1e-9))
            prev, bounds = bounds, bounds.fixed(j, target)
            last_fix = (j, target, prev, float(x_ref[j]))
            steps += 1
            changed += 1
            if not (changed / len(ints) > q or changed >= force_every or steps >= limit.budget):
                continue
        res = tree.ctx.solve(bounds, iter_limit=settings.lp_iter_limit, basis=basis)
        if res.status.value == "infeasible" and last_fix is not None:
            j, tgt, prev, xj = last_fix
            opp = math.ceil(xj) if tgt == math.floor(xj) else math.floor(xj)
            retry = None
            if prev.lower[j] - 1e-9 <= opp <= prev.upper[j] + 1e-9:
                bounds = prev.fixed(j, float(opp))
                retry = tree.ctx.solve(bounds, iter_limit=settings.lp_iter_limit, basis=basis)
            if retry is None or retry.status.value == "infeasible":
                if retry is not None and model.binary[j]:
                    tree.record_conflict(prev, free=j)
                return False, steps, 1
            last_fix = (j, float(opp), prev, xj)
            res = retry
        if res.status.value != "optimal" or not tree.beats_cutoff(res.objective):
            return False, steps, conflicts
        x_ref, basis = res.x, res.basis
        changed = 0
        if all(frac(x_ref[j]) <= settings.int_tol for j in ints):
            x = x_ref.copy()
            for j in ints:
                x[j] = nearest(x[j])
            return bool(tree.update_incumbent(x, kind)), steps, conflicts
        if steps >= limit.budget:
            return False, steps, conflicts


# ---------------------------------------------------------------------------
# Line-by-line MPS reader: the reference for parse_mps
# ---------------------------------------------------------------------------

_BOUND_KEYS_WITH_VALUE = {"LO", "UP", "FX", "LI", "UI"}
_BOUND_KEYS_BARE = {"BV", "MI", "PL", "FR"}


def parse_mps_reference(text: str) -> MipModel:
    """The MPS subset of ``parse_mps``, read one line at a time.

    Each line is checked and stored as it is read, into dicts keyed by row
    and column, and the model is built from per-row lists.  It accepts the
    same inputs as ``parse_mps`` and raises the same error, with the same
    message, for the first line at fault.
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
    entries = {}  # (row idx, col idx) -> value, explicit zeros included
    obj_coef = {}  # col idx -> objective value
    integer_cols = set()
    rhs_map = {}
    range_map = {}
    bounds_lo = {}
    bounds_up = {}
    negative_up = set()  # columns with an UP or UI line of negative value
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
            if rtype not in ("N", "L", "G", "E"):
                raise MalformedSection(f"unknown row type {rtype!r}")
            if rname == obj_row or rname in free_rows or rname in row_index:
                raise DuplicateRowEntry(f"ROWS line {lineno}: row {rname!r} already declared")
            if rtype != "N":
                row_index[rname] = len(row_sense)
                row_sense.append(rtype)
            elif obj_row is None:
                obj_row = rname
            else:
                free_rows.add(rname)  # extra free rows are ignored
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
                        raise DuplicateColumnEntry(f"COLUMNS line {lineno}: column {cname!r} "
                                                   f"listed twice in objective")
                    obj_coef[j] = value
                elif rname in free_rows:
                    continue
                elif rname in row_index:
                    key = (row_index[rname], j)
                    if key in entries:
                        raise DuplicateColumnEntry(f"COLUMNS line {lineno}: duplicate entry "
                                                   f"for row {rname!r}, column {cname!r}")
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
                if row_index[rname] in rhs_map:
                    raise DuplicateRowEntry(f"RHS line {lineno}: row {rname!r} already has "
                                            f"a right-hand side")
                rhs_map[row_index[rname]] = value
        elif section == "RANGES":
            for rname, sval in _pairs(tokens[1:], raw):
                if rname not in row_index:
                    raise UnknownRowReference(f"RANGES references {rname!r}")
                value = _number(sval, section, lineno)
                if row_index[rname] in range_map:
                    raise DuplicateRowEntry(f"RANGES line {lineno}: row {rname!r} already has "
                                            f"a range")
                range_map[row_index[rname]] = value
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
            if kind in ("LO", "FX", "LI"):
                bounds_lo[j] = value
            if kind in ("UP", "FX", "UI"):
                bounds_up[j] = value
            if kind in ("UP", "UI") and value < 0:
                negative_up.add(j)
            if kind in ("BV", "LI", "UI"):
                integer_cols.add(j)
            if kind == "BV":
                bounds_lo[j] = 0.0
                bounds_up[j] = 1.0
            elif kind in ("MI", "FR"):
                bounds_lo[j] = -INF
            if kind in ("PL", "FR"):
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
    for j in negative_up - bounds_lo.keys():  # no BOUNDS line sets its lower bound
        lower[j] = -INF
    for j, v in bounds_lo.items():
        lower[j] = v
    for j, v in bounds_up.items():
        upper[j] = v

    per_row = [[] for _ in range(mc)]
    for (i, j), v in sorted(entries.items()):
        if v != 0.0:  # explicit zeros stay out of the model
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
        for part_sense, part_rhs in parts:
            row_cols.append(cols), row_vals.append(vals)
            senses.append(part_sense), rhs.append(part_rhs)

    return model_from_rows(
        row_cols,
        row_vals,
        name=name,
        c=c,
        senses=senses,
        rhs=np.array(rhs, dtype=float),
        lower=lower,
        upper=upper,
        integers=np.array(sorted(integer_cols), dtype=np.int64),
        maximize=maximize,
    )


def _number(token: str, section: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise MalformedSection(f"{section} line {lineno}: {token!r} is not a number") from None


def _pairs(tokens, raw):
    if len(tokens) % 2 != 0:
        raise MalformedSection(f"odd token count in line: {raw!r}")
    return zip(tokens[0::2], tokens[1::2])
