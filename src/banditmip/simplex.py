"""Bounded-variable simplex for LP relaxations: dual from a basis, two-phase primal without.

Rows are turned into an equality system by adding one slack per row; the
solver then runs over the combined variable set with individual lower/upper
bounds.  Pivoting uses Dantzig pricing and falls back to Bland's rule after
a fixed number of iterations, which guarantees termination.

Every solve first checks each model and cut row's least and greatest
activity over the box, ``SimplexContext._least_activity``.  A row that
misses the range its slack allows by more than ``BOX_TOL`` times its size
proves the LP infeasible, and ``solve`` returns after 0 pivots, before any
start or inversion (Savelsbergh 1994; Achterberg 2007).  On the benchmark's
gap n=300, m=10 search at workload seed 1 this settles 202 of the 222
infeasible LPs and saves 969 of the 1,082 pivots they took, 605 of them in
LNS sub-MIPs.  No search decision reads the pivots or residual of an
infeasible LP, so the search is unchanged; such an LP now reports
``INFEASIBLE`` even where the iteration cap would have stopped the simplex
first.  The certificate sits in ``solve``, not in the simplex, so the
shadow check below still solves every certified LP with the two-phase
primal.

A :class:`SimplexContext` keeps the expanded matrix and nothing of a solve:
every optimal :class:`LpResult` carries its own basis, and ``solve(...,
basis=)`` is the only way to start from one.  Branch and bound re-solves each
child node from its parent's basis, and a dive each LP from the basis of its
last optimal one.  Every usable basis takes one warm path: each boxed
nonbasic variable moves to the bound its reduced cost wants and, if that
leaves the basis dual feasible, a bounded dual simplex (largest violation
leaves, smallest ``|d_j / alpha_j|`` enters) restores primal feasibility; a
basis that is still primal feasible ends it after 0 pivots.  A primal pass
then finishes, normally without a pivot.  The dual loop reports an
infeasible LP only with a Farkas row that cannot reach its bound anywhere in
the box, and falls back to a cold solve otherwise.  A basis saved before cut
rows were appended is extended with their slacks.

With no usable basis, an LP on the column store (below) starts from a crash
basis, ``SimplexContext._crash`` (Bixby 1992).  It begins at the slack basis
with boxed columns at the bound their cost wants, which in a MIP is nearly
always dual feasible, and makes one dual simplex step on each out-of-range
row that no earlier step touched.  That row of B^-1 is still a unit row, so
a step reads only the row's own entries, and the basis stays dual feasible
and triangular: its inverse peels with no bump.  The dual loop then does
phase 1's work in far fewer pivots: on the presolved 400-row set-cover roots
(225 and 258 rows, seeds 1 and 2) 28 and 37, where the slack basis takes 202
and 233 and the two-phase primal 1595 on the full 400 rows.  A cold solve is
a textbook two-phase primal simplex; it runs when the slack basis is not
dual feasible, after an uncertified Farkas row, for every LP below
``ROW_UPDATE_MIN_M`` rows with no usable basis, and whenever ``warm=False``.
Warm results always agree with a cold solve; an optional shadow check
asserts exactly that against the two-phase primal, and that every row holds
at each optimal solution.  Each pivot loop reads the clock before its first
pivot and every ``REFACTOR_EVERY`` (64) pivots, so a solve given a
``deadline`` stops at the first such read after it with status
``TIME_LIMIT``.  A loop with no pivot to make reads no clock, so a start
that is already optimal comes back ``OPTIMAL`` however late.  An optimal result carries the structurals' reduced costs
from the primal loop's last pricing, which proved it optimal: branch and
bound fixes columns by them at no further cost.

The basis inverse is kept explicitly and changed by one product-form (eta)
update per basis change, shared by phase-1 artificial eviction and the pivot
loops.  Once the basis has ``ROW_UPDATE_MIN_M`` (128) or more rows and the
entering column is mostly zeros, the update touches only the rows where that
column is nonzero.  The basic solution ``B^-1 (b - N x_N)`` and the reduced
costs ``c - (c_B B^-1) A`` are each computed by one helper (``_basic_values``,
``_reduced_costs``), the one place another factorization would change.  The
primal loop and phase 1's artificial eviction rebuild the inverse from scratch
every ``REFACTOR_EVERY`` basis changes.  The dual loop, at that step,
recomputes ``x_B`` and ``d`` from the updated inverse and rebuilds it only
when the refreshed point's residuals show drift (``DRIFT_TOL``): an explicit
inverse keeps no file of updates that could grow too long, so the numerical
check is the only reason left to re-invert (Koberstein 2005).  On the 400-row
set-cover roots from the slack basis (over 300 pivots) that leaves one
inversion per solve, the warm start's.
Between those steps the dual loop carries ``d`` across each pivot with the
pivot row ``alpha`` it already has, ``d -= d_q / alpha_q * alpha``; only the
round-off of ``d`` differs from recomputing it, and the pricing rule is the
same.  The loop likewise keeps the masks of the nonbasic variables that may
rise, fall or move freely, and the bounds of the basic ones, changing them
only for the two variables that swap at a pivot: that is boolean and index
work, with the same arithmetic.  The primal loop keeps the same state, and
changes it for the two variables that swap or the one that flips to its
other bound; it prices from ``binv`` afresh after every basis change, and a
flip, which leaves basis and ``binv`` alone, keeps the last pricing.

Each basis is factored once per context, as far as a small cache reaches.
Both children of a node, and the first LP of a dive below it, start from the
node's basis; on the dense store ``_try_warm_start`` keeps the fresh ``(B^-1,
d)`` of the last ``FACTOR_CACHE_SIZE`` (32) start bases, keyed by the basis
after later cut slacks are appended, and hands out copies, since both loops
change ``binv`` and ``d`` in place.  A copy has the bits of a new inversion,
so every result is the one a fresh context gives.  When the dual loop makes
no pivot, the primal pass takes that same ``d`` as its first pricing.
``add_cut_row`` clears the cache.  The column store keeps none: with one
there, the 400-row set-cover root solved 5% slower.  On the benchmark's gap
n=300, m=10 search at workload seed 1, 70 of the 299 warm starts reuse a
factor (``RunStats`` counts ``lp_inversions`` and ``factor_reuses``).

One builder, ``SimplexContext._lp_matrix``, makes every LP matrix from a list
of nonzeros: the model's CSR entries, then the cut rows', then one unit
column per slack and, in phase 1, one per artificial.  It picks the store by
row count; ``add_cut_row`` builds again.  From ``ROW_UPDATE_MIN_M`` rows the
store is column-compressed (:class:`_Csc`): pricing ``y @ A`` is a scatter
over the nonzeros, the entering column is ``B^-1[:, rows_j] @ vals_j``, and
each basis inverse peels singleton columns level by level, the triangular
part of a sparse LU (Suhl & Suhl 1990), and inverts densely only the bump
left over: on the root LP of set cover n=800, m=400, seed 1 the bumps have
at most 28 columns, where the blocks of multi-entry columns have up to 196.
Below that the nonzeros are scattered into a dense array, as small LPs run
faster on it (on 60 x 300 LPs dense ``y @ A`` took 2.5 us against 3.9 us for
the scatter; on optimal bases of 38-60 rows ``np.linalg.inv`` took 61-139 us
against 260-750 us for the peeled inverse), and small LPs keep their exact
floating-point results: the branch-and-bound tree is sensitive to the last
bits of the LP solutions.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import INF, MipModel

FEAS_TOL = 1e-7
DUAL_TOL = 1e-9
PIVOT_TOL = 1e-9
DEFAULT_ITER_LIMIT = 20_000
BLAND_AFTER = 1_000  # Dantzig pricing before this many pivots, Bland after
REFACTOR_EVERY = 64
# The dual loop re-inverts only when a refreshed point's scaled residuals pass
# this.  It is DUAL_TOL and two orders below FEAS_TOL, so that drift is mended
# before it could move a primal or dual feasibility test; on the 400-row
# set-cover roots the eta-updated inverse stays below 2e-15.
DRIFT_TOL = 1e-9
# A row whose activity misses its range over the box by more than BOX_TOL times
# its size ``1 + |b_i| + sum_j |a_ij|`` proves an LP infeasible before any pivot.
# Ten times FEAS_TOL: a point the simplex accepts breaks each bound by at most
# FEAS_TOL, so its row misses by at most FEAS_TOL (1 + sum_j |a_ij|).
BOX_TOL = 1e-6
# Row-restricted eta updates beat the dense outer product from about m=96-128
# rows; below that the extra indexing costs more than the skipped rows save.
ROW_UPDATE_MIN_M = 128
# Fresh (B^-1, d) pairs a dense-store context keeps for the bases it starts from most
# recently.  Both children of a node and its first dive LP start from one basis.
FACTOR_CACHE_SIZE = 32

BASIC, AT_LOWER, AT_UPPER, FREE = 0, 1, 2, 3


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITER_LIMIT = "iter_limit"
    TIME_LIMIT = "time_limit"  # the deadline passed before the LP was solved


@dataclass
class LpResult:
    status: LpStatus
    x: np.ndarray | None
    objective: float
    iterations: int
    phase1_residual: float = 0.0
    basis: tuple | None = None  # (basis, vstat) of an optimal solve; never mutated
    # d = c - (c_B B^-1) A of an optimal solve's structurals, from its last pricing
    reduced_costs: np.ndarray | None = None


@dataclass(frozen=True)
class BoundState:
    """Per-variable bound overrides; tightenings intersect existing domains."""

    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def from_model(cls, model: MipModel) -> "BoundState":
        return cls(lower=model.lower.copy(), upper=model.upper.copy())

    def tightened(self, j: int, lo=None, hi=None) -> "BoundState":
        lower = self.lower.copy()
        upper = self.upper.copy()
        if lo is not None:
            lower[j] = max(lower[j], lo)
        if hi is not None:
            upper[j] = min(upper[j], hi)
        return BoundState(lower=lower, upper=upper)

    def fixed(self, j: int, value: float) -> "BoundState":
        return self.tightened(j, lo=value, hi=value)


def _eta_update(binv: np.ndarray, ycol: np.ndarray, r: int) -> None:
    """Update ``binv`` in place after basis row ``r`` takes the column with B^-1 image ``ycol``.

    Rows where ``ycol`` is zero are unchanged by the update, so with many such
    rows only the others are touched; the result then differs from the dense
    update at most in the sign of a zero.
    """
    eta = binv[r] / ycol[r]
    m = len(ycol)
    nz = np.flatnonzero(ycol) if m >= ROW_UPDATE_MIN_M else None
    if nz is not None and 2 * nz.size < m:
        binv[nz] -= ycol[nz, None] * eta
    else:
        binv -= ycol[:, None] * eta
    binv[r] = eta


def _bound_status(lo: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Nonbasic status that puts each variable at its lower bound, else its upper, else free."""
    return np.where(lo > -INF, AT_LOWER, np.where(up < INF, AT_UPPER, FREE)).astype(np.int8)


def _repair_statuses(vstat: np.ndarray, lo: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Saved statuses, with each nonbasic one whose bound went away moved to one that exists."""
    has_lo, has_up = lo > -INF, up < INF
    keep = ((vstat == BASIC)
            | ((vstat == AT_LOWER) & has_lo)
            | ((vstat == AT_UPPER) & has_up)
            | ((vstat == FREE) & ~has_lo & ~has_up))
    return np.where(keep, vstat, _bound_status(lo, up)).astype(np.int8)


def _nonbasic_values(vstat: np.ndarray, lo: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Value of each variable at the bound its status names; basic and free ones get 0."""
    return np.where(vstat == AT_LOWER, lo, np.where(vstat == AT_UPPER, up, 0.0))


def _descent(vstat: np.ndarray, g: np.ndarray, movable: np.ndarray, tol: float) -> np.ndarray:
    """Movable nonbasic variables whose allowed move lowers ``g @ x`` by more than ``tol`` per unit."""
    return movable & (
        ((vstat == AT_LOWER) & (g < -tol))
        | ((vstat == AT_UPPER) & (g > tol))
        | ((vstat == FREE) & (np.abs(g) > tol))
    )


def _to_wanted_bounds(vstat: np.ndarray, d: np.ndarray, lo: np.ndarray, up: np.ndarray) -> bool:
    """Move each boxed nonbasic variable to the bound its reduced cost wants, in place;
    whether every nonbasic variable is then dual feasible."""
    boxed = (vstat != BASIC) & (lo > -INF) & (up < INF)
    vstat[boxed & (d > DUAL_TOL)] = AT_LOWER
    vstat[boxed & (d < -DUAL_TOL)] = AT_UPPER
    return not _descent(vstat, d, up - lo > 0, DUAL_TOL).any()


class _Csc:
    """A column-compressed matrix offering the products the simplex takes of its matrix.

    ``y @ A``, ``A @ v`` and ``abs(A)`` work as for a dense array; ``A[:, cols]``
    selects columns by slice (as views), mask or index array.  Column ``j``
    holds ``vals[start[j]:start[j + 1]]`` in rows ``rows[start[j]:start[j + 1]]``.
    """

    __array_ufunc__ = None  # so that ``ndarray @ _Csc`` defers to __rmatmul__

    def __init__(self, m: int, start: np.ndarray, rows: np.ndarray, vals: np.ndarray):
        self.m = m
        self.start, self.rows, self.vals = start, rows, vals
        self.ncols = len(start) - 1
        self.counts = np.diff(start)
        self.col = np.repeat(np.arange(self.ncols), self.counts)  # column of each entry

    @classmethod
    def from_entries(cls, m: int, ncols: int, rows, cols, vals) -> "_Csc":
        """The m x ncols matrix with nonzeros ``vals`` at (``rows``, ``cols``), row by row."""
        order = np.argsort(cols, kind="stable")  # rows stay ascending in a column
        start = np.zeros(ncols + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=ncols), out=start[1:])
        return cls(m, start, rows[order], vals[order])

    def __rmatmul__(self, y):
        return np.bincount(self.col, weights=y[self.rows] * self.vals, minlength=self.ncols)

    def __matmul__(self, v):
        return np.bincount(self.rows, weights=self.vals * v[self.col], minlength=self.m)

    def __abs__(self):
        return _Csc(self.m, self.start, self.rows, np.abs(self.vals))

    def __getitem__(self, key):
        _, cols = key  # A[:, cols]
        if isinstance(cols, slice):  # a range of columns with step 1
            first, stop, _ = cols.indices(self.ncols)
            s, e = self.start[first], self.start[stop]
            return _Csc(self.m, self.start[first:stop + 1] - s, self.rows[s:e], self.vals[s:e])
        cols = np.flatnonzero(cols) if cols.dtype == bool else cols
        lens = self.counts[cols]
        start = np.zeros(len(cols) + 1, dtype=np.int64)
        np.cumsum(lens, out=start[1:])
        idx = np.repeat(self.start[cols] - start[:-1], lens) + np.arange(start[-1])
        return _Csc(self.m, start, self.rows[idx], self.vals[idx])

    def column(self, j: int):
        """(rows, vals) of column ``j``'s entries."""
        s, e = self.start[j], self.start[j + 1]
        return self.rows[s:e], self.vals[s:e]

    def basis_inverse(self, basis: np.ndarray) -> np.ndarray:
        """B^-1 for B = A[:, basis], inverting densely only the bump left after peeling singletons.

        Peeling goes level by level: every column with exactly one entry on
        the rows no earlier level covers, of magnitude above ``PIVOT_TOL``,
        covers that row (level 0 takes the slacks, the artificials and the
        single-entry structurals).  The k columns S never peeled and the k
        rows R never covered form the bump M = B[R, S]; a column of an earlier
        level has no entry on a later level's rows or on R, so B is block
        triangular (Suhl & Suhl 1990).  Row s of B^-1 is row s of M^-1 on R,
        and the row of a column c peeled on row r with entry v is found from
        the levels after it and the bump, ``Z[c] = (e_r - sum_k B[r, k] Z[k]) /
        v``.  Raises LinAlgError when M is singular; it is when two columns of
        one level are single on the same row, as only one of them covers it and
        the other is left in M with no entry.
        """
        m = self.m
        B = self[:, basis]
        rows, pos, vals = B.rows, B.col, B.vals  # pos: the entry's column in B
        level = np.full(m, m)  # the level whose column covers each row; m on R
        pivot = np.full(m, -1)  # that column's position in the basis
        pivot_val = np.ones(m)  # and its entry on the row
        left = B.counts.copy()  # each column's entries on uncovered rows
        open_ = np.ones(rows.size, dtype=bool)  # entries on uncovered rows
        big = np.abs(vals) > PIVOT_TOL
        nlevels = 0
        while True:
            single = open_ & big & (left[pos] == 1)
            r = rows[single]
            if r.size == 0:
                break
            level[r], pivot[r], pivot_val[r] = nlevels, pos[single], vals[single]
            closed = open_ & (level[rows] == nlevels)
            left -= np.bincount(pos[closed], minlength=m)
            open_ &= ~closed
            nlevels += 1
        binv = np.zeros((m, m))
        peeled = pivot >= 0
        bump_rows = np.flatnonzero(~peeled)
        if bump_rows.size:
            bump_cols = np.setdiff1d(np.arange(m), pivot[peeled])
            dense = np.zeros((bump_rows.size, bump_cols.size))  # M: the entries still open
            dense[np.searchsorted(bump_rows, rows[open_]),
                  np.searchsorted(bump_cols, pos[open_])] = vals[open_]
            binv[np.ix_(bump_cols, bump_rows)] = np.linalg.inv(dense)
        binv[pivot[peeled], np.flatnonzero(peeled)] = 1.0 / pivot_val[peeled]
        # off-pivot entries on covered rows, by level then row; back-substituted from the last level
        off = np.flatnonzero(peeled[rows] & (pos != pivot[rows]))
        key = level[rows[off]] * m + rows[off]
        order = np.argsort(key, kind="stable")
        off, key = off[order], key[order]
        bounds = np.searchsorted(key, np.arange(nlevels + 1) * m)
        for lev in range(nlevels - 1, -1, -1):
            entries = off[bounds[lev]:bounds[lev + 1]]
            if entries.size == 0:
                continue
            r = rows[entries]
            new_row = np.concatenate(([True], r[1:] != r[:-1]))
            targets = r[new_row]
            sources, si = np.unique(pos[entries], return_inverse=True)
            T = np.zeros((targets.size, sources.size))  # -B[r, k] / v for each target row r
            T[np.cumsum(new_row) - 1, si] = vals[entries] / -pivot_val[r]
            later = np.flatnonzero(level > lev)  # the only columns where Z[k] can be nonzero
            binv[np.ix_(pivot[targets], later)] = T @ binv[np.ix_(sources, later)]
        return binv


def _inverse(A, basis: np.ndarray) -> np.ndarray:
    """B^-1 for the columns ``basis`` of A; LinAlgError when they are singular."""
    return A.basis_inverse(basis) if isinstance(A, _Csc) else np.linalg.inv(A[:, basis])


def _column_image(binv: np.ndarray, A, j: int) -> np.ndarray:
    """B^-1 a_j: variable j's column in the coordinates of the current basis."""
    if isinstance(A, _Csc):
        rows, vals = A.column(j)
        return binv[:, rows] @ vals
    return binv @ A[:, j]


def _basic_values(binv: np.ndarray, A, b: np.ndarray, vstat: np.ndarray,
                  val: np.ndarray) -> np.ndarray:
    """x_B = B^-1 (b - N x_N), with each nonbasic variable at its value in ``val``."""
    nb = vstat != BASIC
    return binv @ (b - A[:, nb] @ val[nb])


def _reduced_costs(cost: np.ndarray, basis: np.ndarray, binv: np.ndarray, A) -> np.ndarray:
    """d = c - (c_B B^-1) A."""
    return cost - (cost[basis] @ binv) @ A


def _cut_row(cols, vals, sense: str, rhs: float):
    return (np.asarray(cols, dtype=np.int64), np.asarray(vals, dtype=float),
            sense, float(rhs))


class SimplexContext:
    """Reusable solver state for one model plus cut rows, given up front or appended."""

    def __init__(self, model: MipModel, cuts=(), shadow_check: bool = False):
        self.model = model
        self.shadow_check = shadow_check
        self._extra = [_cut_row(*cut) for cut in cuts]  # (cols, vals, sense, rhs)
        self._build()
        self.max_row_residual = 0.0  # largest _row_residuals entry of any optimal solve
        self.inversions = 0  # bases inverted from scratch
        self.factor_reuses = 0  # warm starts that took (B^-1, d) from the cache

    def _build(self):
        model, extra = self.model, self._extra
        n = model.n
        m = model.m + len(extra)
        rows = np.concatenate([model.entry_rows,
                               np.repeat(np.arange(model.m, m), [len(row[0]) for row in extra])])
        cols = np.concatenate([model.indices, *(row[0] for row in extra)])
        vals = np.concatenate([model.data, *(row[1] for row in extra)])
        keep = vals != 0.0
        self.entries = rows[keep], cols[keep], vals[keep]  # A's nonzeros, row by row
        self.n = n
        self.m = m
        self.A = self._lp_matrix(np.arange(m), np.ones(m))  # [A | I]
        self.abs_a = abs(self.A[:, :n])  # |A|, which sizes every row residual
        self.b = np.concatenate([model.rhs, [row[3] for row in extra]])
        senses = np.concatenate([model.senses,
                                 np.asarray([row[2] for row in extra], dtype="U1")])
        self.slack_lo = np.where(senses == "G", -INF, 0.0)  # s = b - a.x: >= 0 on an L row
        self.slack_up = np.where(senses == "L", INF, 0.0)
        self.cost = np.concatenate([model.c, np.zeros(m)])
        # The box certificate's fixed parts.  Each row enters twice, as a.x and as -a.x, so
        # that one scatter gives the least of both over a box: each nonzero reads, by its
        # sign, the bound at ``floor_terms[2]`` in [lower | upper].  The slack needs
        # a.x <= b - slack_lo and -a.x <= slack_up - b (``box_need``); ``box_limit`` adds
        # the row's margin to both.
        rows, cols, vals = self.entries
        pos = vals > 0
        self.floor_terms = (np.concatenate([rows, rows + m]), np.concatenate([vals, -vals]),
                            np.concatenate([np.where(pos, cols, cols + n),
                                            np.where(pos, cols + n, cols)]))
        size = 1.0 + np.abs(self.b) + np.bincount(rows, weights=np.abs(vals), minlength=m)
        self.box_need = np.concatenate([self.b - self.slack_lo, self.slack_up - self.b])
        self.box_limit = self.box_need + BOX_TOL * np.concatenate([size, size])
        # start basis bytes -> (B^-1, d) under this matrix, least recently used first;
        # the column store keeps no cache
        self._factors = None if isinstance(self.A, _Csc) else OrderedDict()

    def _lp_matrix(self, unit_rows: np.ndarray, unit_signs: np.ndarray):
        """A followed by one column ``unit_signs[k] * e_{unit_rows[k]}`` for each k.

        The one place a store is chosen: column-compressed from
        ``ROW_UPDATE_MIN_M`` rows, a dense array below.
        """
        rows, cols, vals = self.entries
        rows = np.concatenate([rows, unit_rows])
        cols = np.concatenate([cols, self.n + np.arange(len(unit_rows))])
        vals = np.concatenate([vals, unit_signs])
        ncols = self.n + len(unit_rows)
        if self.m >= ROW_UPDATE_MIN_M:
            return _Csc.from_entries(self.m, ncols, rows, cols, vals)
        A = np.zeros((self.m, ncols))
        A[rows, cols] = vals
        return A

    def add_cut_row(self, cols, vals, sense: str, rhs: float):
        """Append a valid inequality; saved bases stay usable, with its slack basic."""
        self._extra.append(_cut_row(cols, vals, sense, rhs))
        self._build()

    def solve(self, bounds: BoundState, iter_limit: int = DEFAULT_ITER_LIMIT,
              warm: bool = True, basis: tuple | None = None,
              deadline: float | None = None) -> LpResult:
        """Solve under ``bounds``; a warm solve starts from ``basis`` when it is usable.

        A box in which some row cannot reach its range (``_box_certificate``)
        is ``INFEASIBLE`` after 0 pivots, whatever ``iter_limit`` and
        ``deadline``.  Otherwise a warm solve without a usable basis starts
        on the column store from the crash basis, any other cold.
        ``deadline`` is a ``time.perf_counter()`` value after which the
        solve stops with ``TIME_LIMIT``.
        """
        result = self._box_certificate(bounds)
        if result is None:
            result = self._solve_inner(bounds, iter_limit, warm, basis, deadline)
        if result.status is LpStatus.OPTIMAL and self.m:
            resid = self._row_residuals(result.x)
            worst = int(resid.argmax())
            self.max_row_residual = max(self.max_row_residual, float(resid[worst]))
            if self.shadow_check:
                assert resid[worst] <= FEAS_TOL, (
                    f"row {worst} violated by {resid[worst]:.3g} of its size, "
                    f"beyond tolerance {FEAS_TOL:.3g}"
                )
        if self.shadow_check:
            if warm and result.status is not LpStatus.TIME_LIMIT:
                cold = SimplexContext(self.model, self._extra)
                ref = cold._solve_inner(bounds, iter_limit, warm=False)
                assert ref.status == result.status, (
                    f"warm/cold status mismatch: {result.status} vs {ref.status}"
                )
                if ref.status == LpStatus.OPTIMAL:
                    scale = max(1.0, abs(ref.objective))
                    assert abs(ref.objective - result.objective) <= 1e-7 * scale
        return result

    def _box_certificate(self, bounds: BoundState) -> LpResult | None:
        """INFEASIBLE after 0 pivots when some row cannot reach its range anywhere in the box.

        Over the box, row i's activity a_i.x spans [least_i, most_i], and its
        slack needs it in [b_i - slack_up_i, b_i - slack_lo_i].  A row that
        misses that range by more than ``BOX_TOL`` times its size ``1 + |b_i|
        + sum_j |a_ij|`` proves the LP infeasible, and the miss of the row
        furthest past its margin is the ``phase1_residual``.  None when every
        row reaches its range within the margin.
        """
        if not self.m:
            return None
        floor = self._least_activity(bounds.lower, bounds.upper)
        excess = floor - self.box_limit
        worst = int(excess.argmax())
        if excess[worst] > 0:
            return LpResult(LpStatus.INFEASIBLE, None, INF, 0,
                            phase1_residual=float(floor[worst] - self.box_need[worst]))
        return None

    def _least_activity(self, lo: np.ndarray, up: np.ndarray) -> np.ndarray:
        """Least activity of each model and cut row over the box [lo, up] of the structurals,
        then least of its negation: (least_i for each i, then -most_i for each i)."""
        rows, vals, at = self.floor_terms
        return np.bincount(rows, weights=vals * np.concatenate([lo, up])[at], minlength=2 * self.m)

    def _row_residuals(self, x: np.ndarray) -> np.ndarray:
        """How far ``x`` violates each model and cut row, over the row's size.

        The size of row i is ``1 + |b_i| + sum_j |a_ij| max(1, |x_j|)``; the
        shadow check requires every entry to be at most ``FEAS_TOL``.
        """
        A = self.A[:, :self.n]
        slack = self.b - A @ x
        size = 1.0 + np.abs(self.b) + self.abs_a @ np.maximum(1.0, np.abs(x))
        violation = np.maximum(self.slack_lo - slack, slack - self.slack_up)
        return np.maximum(violation, 0.0) / size

    # ------------------------------------------------------------------
    # core solver
    # ------------------------------------------------------------------

    def _solve_inner(self, bounds, iter_limit, warm, saved=None, deadline=None):
        """A warm start (``saved``, then on the column store the crash basis), the dual loop and
        phase 2; the two-phase primal instead when no start is usable or the dual loop cannot
        certify infeasibility.  A dual loop's pivots before that count toward ``iter_limit``.
        Each pivot loop reads the clock before its first pivot, after the crash and its
        inversion."""
        if (bounds.lower > bounds.upper + 1e-9).any():
            gap = float(np.max(bounds.lower - bounds.upper)) if len(bounds.lower) else 0.0
            return LpResult(LpStatus.INFEASIBLE, None, INF, 0,
                            phase1_residual=gap if gap > 0 else INF)
        n, m = self.n, self.m
        nbase = n + m
        lo = np.concatenate([bounds.lower, self.slack_lo])
        up = np.concatenate([bounds.upper, self.slack_up])
        A, cost = self.A, self.cost

        warmed = self._try_warm_start(lo, up, saved) if warm and saved is not None else None
        if warmed is None and warm and isinstance(A, _Csc):
            warmed = self._try_warm_start(lo, up, self._crash(lo, up))
        status, iters, resid, d = None, 0, 0.0, None
        if warmed is not None:
            basis, vstat, val, binv, d = warmed
            status, iters, binv, resid = self._dual_loop(
                lo, up, basis, vstat, val, binv, d, iter_limit, deadline)
        if status is None:  # no usable basis, or an uncertified Farkas row: two-phase primal
            basis, vstat, val, A, lo, up = self._cold_start(lo, up)
            status, nart, d = LpStatus.OPTIMAL, len(val) - nbase, None  # nart: artificials
            if nart:  # phase 1
                self.inversions += 1
                status, iters, _ = self._pivot_loop(
                    A, lo, up, basis, vstat, val, np.repeat([0.0, 1.0], [nbase, nart]),
                    iter_limit, iters, _inverse(A, basis), deadline)
                resid = float(val[nbase:].sum())
                if status is LpStatus.OPTIMAL and resid > FEAS_TOL:
                    status = LpStatus.INFEASIBLE
            if status is LpStatus.OPTIMAL:
                if nart:
                    self._evict_artificials(A, basis, vstat, val, nbase)
                    lo[nbase:] = up[nbase:] = val[nbase:] = 0.0
                    cost = np.concatenate([cost, np.zeros(nart)])
                self.inversions += 1
                binv = _inverse(A, basis)
        if status is LpStatus.OPTIMAL:  # a dual loop without a pivot hands on its fresh d
            status, iters, d = self._pivot_loop(
                A, lo, up, basis, vstat, val, cost, iter_limit, iters, binv, deadline,
                d if iters == 0 else None)
        if status is LpStatus.OPTIMAL:
            x = np.clip(val[:n].copy(), bounds.lower, bounds.upper)
            art_basic = (basis >= nbase).any()
            return LpResult(status, x, float(self.model.c @ x), iters,
                            basis=None if art_basic else (basis.copy(), vstat[:nbase].copy()),
                            reduced_costs=d[:n].copy())
        if status is LpStatus.INFEASIBLE:
            return LpResult(status, None, INF, iters, phase1_residual=resid)
        return LpResult(status, None, -INF if status is LpStatus.UNBOUNDED else float("nan"), iters)

    def _cold_start(self, lo, up):
        """The slack basis with an artificial for each row whose slack cannot take its residual.

        Structurals sit at a bound.  A slack that would leave its bounds is
        pinned at the nearer one, and a basic artificial column, +-e_i at
        value ``|residual|``, takes its place.  Returns (basis, vstat, val, A,
        lo, up), extended by the artificials' columns when there are any.
        """
        n, m = self.n, self.m
        nbase = n + m
        vstat = np.full(nbase, BASIC, dtype=np.int8)
        vstat[:n] = _bound_status(lo[:n], up[:n])
        val = _nonbasic_values(vstat, lo, up)
        resid = self.b - self.A[:, :n] @ val[:n]
        slack = np.minimum(np.maximum(resid, lo[n:]), up[n:])
        left = resid - slack
        art = np.flatnonzero(np.abs(left) > FEAS_TOL)
        val[n:] = resid
        val[n + art] = slack[art]
        vstat[n + art] = np.where(slack[art] == lo[n + art], AT_LOWER, AT_UPPER)
        basis = np.arange(n, nbase)
        nart = art.size
        if nart == 0:
            return basis, vstat, val, self.A, lo, up
        basis[art] = nbase + np.arange(nart)
        A = self._lp_matrix(np.concatenate([np.arange(m), art]),
                            np.concatenate([np.ones(m), np.sign(left[art])]))
        return (basis, np.concatenate([vstat, np.full(nart, BASIC, dtype=np.int8)]),
                np.concatenate([val, np.abs(left[art])]), A,
                np.concatenate([lo, np.zeros(nart)]), np.concatenate([up, np.full(nart, INF)]))

    def _crash(self, lo, up):
        """A triangular, dual feasible start: the slack basis after one dual step per row it can.

        Each structural sits at the bound its cost wants, as a warm start would
        put it.  When that leaves the slack basis dual feasible, the rows whose
        slack is out of range are taken, fewest entries first (ties by index);
        each that no earlier entered column touches still has e_i as its row
        of B^-1, so its pivot row is the row's own entries, and the dual
        loop's ratio test on it picks the column that enters for its slack.
        The reduced costs are carried over the row's columns, and every row of
        the entered column is marked touched.  Every step is a dual simplex
        step, so the basis stays dual feasible, and no step touches a later
        pivot row, so it stays triangular: ``_Csc.basis_inverse`` peels it with
        no bump (Bixby 1992).  Returns (basis, vstat); with no row crashed it
        is the slack basis.
        """
        n, m = self.n, self.m
        basis = np.arange(n, n + m)
        vstat = np.full(n + m, BASIC, dtype=np.int8)
        vstat[:n] = _bound_status(lo[:n], up[:n])
        cost = self.cost[:n]  # the reduced costs at the slack basis
        if not _to_wanted_bounds(vstat[:n], cost, lo[:n], up[:n]):
            return basis, vstat  # not dual feasible: no dual step applies
        slack = self.b - self.A[:, :n] @ _nonbasic_values(vstat[:n], lo[:n], up[:n])
        below = lo[n:] - slack > FEAS_TOL
        out = np.flatnonzero(below | (slack - up[n:] > FEAS_TOL))
        rows, cols, vals = self.entries
        start = np.searchsorted(rows, np.arange(m + 1))
        out = out[np.argsort(np.diff(start)[out], kind="stable")]
        start, cols, vals = start.tolist(), cols.tolist(), vals.tolist()
        d, st, movable = cost.tolist(), vstat[:n].tolist(), (up[:n] > lo[:n]).tolist()
        col_start, col_rows = self.A.start.tolist(), self.A.rows.tolist()
        touched = [False] * m
        for i in out.tolist():
            if touched[i]:
                continue
            to_lower = bool(below[i])
            # the dual loop's entering candidates on this row, as (|d_j / alpha_j|, j, alpha_j)
            cand = []
            for k in range(start[i], start[i + 1]):
                j, a = cols[k], vals[k]
                if not movable[j]:
                    continue
                s = st[j]
                if s == FREE:
                    ok = abs(a) > PIVOT_TOL
                elif (s == AT_LOWER) == to_lower:
                    ok = a < -PIVOT_TOL
                else:  # at its upper bound when to_lower, at its lower one otherwise
                    ok = a > PIVOT_TOL
                if ok:
                    cand.append((abs(d[j] / a), j, a))
            if not cand:
                continue  # the dual loop finds this row's Farkas certificate or pivots
            least, big = min(cand)[0] + 1e-12, 0.0
            for ratio, j, a in cand:  # the largest |alpha_j| among the ties, the first of equals
                if ratio <= least and abs(a) > big:
                    q, aq, big = j, a, abs(a)
            step = d[q] / aq
            for k in range(start[i], start[i + 1]):
                d[cols[k]] -= step * vals[k]
            d[q] = 0.0
            st[q] = BASIC
            basis[i] = q
            vstat[n + i] = AT_LOWER if to_lower else AT_UPPER
            for r in col_rows[col_start[q]:col_start[q + 1]]:
                touched[r] = True
        vstat[:n] = st
        return basis, vstat

    def _try_warm_start(self, lo, up, saved):
        """A saved basis set up for the dual loop under new bounds, or None when it cannot start.

        Each boxed nonbasic variable moves to the bound its reduced cost wants;
        the basis is returned only if that leaves it dual feasible, as
        (basis, vstat, val, binv, d) with those reduced costs ``d``.  Every
        usable basis takes this one path, also one that is still primal
        feasible: the dual loop then ends after 0 pivots.  On the dense store
        ``binv`` and ``d`` of a basis among the last ``FACTOR_CACHE_SIZE``
        started from are copies of the ones computed then.
        """
        basis, vstat = saved
        if len(basis) < self.m:  # saved before later cuts: their slacks join the basis
            added = np.arange(self.n + len(basis), self.n + self.m)
            basis = np.concatenate([basis, added])
            vstat = np.concatenate([vstat, np.full(added.size, BASIC, dtype=np.int8)])
        else:
            basis = basis.copy()  # the loops change it in place
        vstat = _repair_statuses(vstat, lo, up)
        cache = self._factors
        key = basis.tobytes()
        if cache is not None and key in cache:
            cache.move_to_end(key)
            binv, d = (a.copy() for a in cache[key])  # the loops change both in place
            self.factor_reuses += 1
        else:
            self.inversions += 1
            try:
                binv = _inverse(self.A, basis)
            except np.linalg.LinAlgError:
                return None
            d = _reduced_costs(self.cost, basis, binv, self.A)
            if cache is not None:
                cache[key] = binv.copy(), d.copy()
                if len(cache) > FACTOR_CACHE_SIZE:
                    cache.popitem(last=False)
        if not _to_wanted_bounds(vstat, d, lo, up):
            return None  # not dual feasible
        val = _nonbasic_values(vstat, lo, up)
        val[basis] = _basic_values(binv, self.A, self.b, vstat, val)
        return basis, vstat, val, binv, d

    def _dual_loop(self, lo, up, basis, vstat, val, binv, d, iter_limit, deadline):
        """Bounded dual simplex from a dual feasible basis until no basic variable is out of bounds.

        ``d`` holds the reduced costs at the starting basis.  They are carried
        across each pivot by the pivot row ``alpha`` (``d -= d_q / alpha_q *
        alpha``, then ``d_q = 0``).  Every ``REFACTOR_EVERY`` pivots the loop
        reads the clock and computes ``x_B`` and ``d`` in full again from the
        updated ``binv``; it inverts the basis afresh only when ``_drift``
        finds that point's residuals above ``DRIFT_TOL``.
        The masks of the nonbasic variables that may rise, fall or move either
        way (``_descent``'s three status tests) and the bounds of the basic
        ones are kept too, and changed only for the two variables that swap
        at each pivot.
        Returns (status, pivots, binv, residual): OPTIMAL when the basis is
        primal feasible, INFEASIBLE with the certified violation of a Farkas
        row, ITER_LIMIT, TIME_LIMIT when the clock, read once a leaving row is
        chosen for the first pivot and at each periodic step, is past
        ``deadline``, or None when a row
        without an entering candidate could not be certified infeasible.
        """
        A, b, cost = self.A, self.b, self.cost
        movable = up - lo > 0
        rise = movable & (vstat == AT_LOWER)
        fall = movable & (vstat == AT_UPPER)
        either = movable & (vstat == FREE)
        any_free = either.any()  # a pivot never makes a variable free
        blo, bup = lo[basis], up[basis]
        iters = since_refactor = 0  # since_refactor: eta updates since binv was inverted
        while True:
            if iters and iters % REFACTOR_EVERY == 0:
                if deadline is not None and time.perf_counter() > deadline:
                    return LpStatus.TIME_LIMIT, iters, binv, 0.0
                val[basis] = _basic_values(binv, A, b, vstat, val)
                d = _reduced_costs(cost, basis, binv, A)
                if self._drift(val, basis, d) > DRIFT_TOL:
                    self.inversions += 1
                    binv = _inverse(A, basis)
                    val[basis] = _basic_values(binv, A, b, vstat, val)
                    d = _reduced_costs(cost, basis, binv, A)
                    since_refactor = 0
            xb = val[basis]
            below = blo - xb
            above = xb - bup
            viol = np.maximum(below, above)
            if iters < BLAND_AFTER:
                r = int(viol.argmax())
                if viol[r] <= FEAS_TOL:
                    return LpStatus.OPTIMAL, iters, binv, 0.0
            else:
                rows = (viol > FEAS_TOL).nonzero()[0]
                if rows.size == 0:
                    return LpStatus.OPTIMAL, iters, binv, 0.0
                r = int(rows[basis[rows].argmin()])
            if iters >= iter_limit:
                return LpStatus.ITER_LIMIT, iters, binv, 0.0
            if not iters and deadline is not None and time.perf_counter() > deadline:
                return LpStatus.TIME_LIMIT, iters, binv, 0.0  # before the first pivot
            to_lower = below[r] > above[r]
            alpha = binv[r] @ A
            # x_B[r] = beta_r - alpha @ x_N must rise when to_lower, fall otherwise
            on_neg, on_pos = (rise, fall) if to_lower else (fall, rise)
            enters = (on_neg & (alpha < -PIVOT_TOL)) | (on_pos & (alpha > PIVOT_TOL))
            if any_free:
                enters |= either & (np.abs(alpha) > PIVOT_TOL)
            cand = enters.nonzero()[0]
            if cand.size == 0:
                fresh = binv[r] if since_refactor == 0 else None  # no eta update since inverting
                resid = self._farkas_violation(lo, up, basis, vstat, r, to_lower, fresh)
                if resid > FEAS_TOL:
                    return LpStatus.INFEASIBLE, iters, binv, resid
                return None, iters, binv, 0.0
            ratios = np.abs(d[cand] / alpha[cand])
            tied = cand[ratios <= ratios.min() + 1e-12]
            if iters < BLAND_AFTER:
                q = int(tied[np.abs(alpha[tied]).argmax()])
            else:
                q = int(tied[0])

            ycol = _column_image(binv, A, q)
            leaving = int(basis[r])
            target = lo[leaving] if to_lower else up[leaving]
            step = (xb[r] - target) / ycol[r]
            val[basis] = xb - step * ycol
            val[q] += step
            val[leaving] = target
            vstat[leaving] = AT_LOWER if to_lower else AT_UPPER
            rise[leaving] = movable[leaving] and to_lower
            fall[leaving] = movable[leaving] and not to_lower
            basis[r] = q
            vstat[q] = BASIC
            rise[q] = fall[q] = either[q] = False
            blo[r], bup[r] = lo[q], up[q]
            d -= (d[q] / alpha[q]) * alpha
            d[q] = 0.0
            _eta_update(binv, ycol, r)
            iters += 1
            since_refactor += 1

    def _drift(self, val, basis, d) -> float:
        """The larger of the primal residual ``max |[A | I] x - b|`` over ``1 + max |b|`` and
        the dual residual ``max |d_B|`` over ``1 + max |c|``: both are 0 under an exact B^-1."""
        primal = np.max(np.abs(self.A @ val - self.b)) / (1.0 + np.max(np.abs(self.b)))
        dual = np.max(np.abs(d[basis])) / (1.0 + np.max(np.abs(self.cost)))
        return float(max(primal, dual))

    def _farkas_violation(self, lo, up, basis, vstat, r, to_lower, row=None) -> float:
        """How far basic variable ``r`` stays from its violated bound anywhere in the box.

        Row ``r`` of a fresh B^-1 gives x_B[r] = beta_r - sum_N alpha_j x_j; the
        result is the distance from the bound to the best value that sum
        reaches with every nonbasic variable inside its bounds.  A slack with
        an infinite bound is held to the range its row's activity spans over
        the structural box, so that round-off dust on its column cannot make
        the reach infinite.  A positive value proves the LP infeasible.
        ``row`` is that row when the caller's inverse is fresh; without it
        the basis is inverted here.
        """
        if row is None:
            self.inversions += 1
            try:
                row = _inverse(self.A, basis)[r]
            except np.linalg.LinAlgError:
                return -INF
        nb = np.flatnonzero(vstat != BASIC)
        sign = 1.0 if to_lower else -1.0
        h = -sign * (row @ self.A[:, nb])  # gain of sign * x_B[r] per unit of x_j
        lo_nb, up_nb = lo[nb], up[nb]
        rows = nb - self.n
        loose = (rows >= 0) & np.where(h > 0, up_nb == INF, (h < 0) & (lo_nb == -INF))
        if loose.any():
            i = rows[loose]
            floor = self._least_activity(lo[:self.n], up[:self.n])
            amin, amax = floor[:self.m], -floor[self.m:]
            lo_nb[loose] = np.maximum(lo_nb[loose], self.b[i] - amax[i])
            up_nb[loose] = np.minimum(up_nb[loose], self.b[i] - amin[i])
        best = np.where(h > 0, up_nb, lo_nb)
        with np.errstate(invalid="ignore"):
            reach = sign * (row @ self.b) + np.sum(np.where(h != 0, h * best, 0.0))
        leaving = basis[r]
        return float(sign * (lo[leaving] if to_lower else up[leaving]) - reach)

    def _evict_artificials(self, A, basis, vstat, val, nbase):
        if not (basis >= nbase).any():
            return  # none basic: phase 2 inverts this same basis
        self.inversions += 1
        binv = _inverse(A, basis)
        since_refactor = 0
        for r in range(len(basis)):
            if basis[r] < nbase:
                continue
            row = binv[r] @ A[:, :nbase]
            cands = np.nonzero((np.abs(row) > 1e-7) & (vstat[:nbase] != BASIC))[0]
            if cands.size == 0:
                continue  # redundant row, artificial stays basic at zero
            j = int(cands[0])
            old = basis[r]
            basis[r] = j
            vstat[old] = AT_LOWER
            val[old] = 0.0
            vstat[j] = BASIC
            since_refactor += 1
            if since_refactor >= REFACTOR_EVERY:
                self.inversions += 1
                binv = _inverse(A, basis)
                since_refactor = 0
            else:
                _eta_update(binv, _column_image(binv, A, j), r)

    def _pivot_loop(self, A, lo, up, basis, vstat, val, cost, iter_limit, iters, binv, deadline,
                    d=None):
        """Bounded primal simplex from a feasible basis with inverse ``binv``.

        ``d``, when given, holds the reduced costs at that basis.  Each pricing
        computes them from ``binv`` (``_reduced_costs``), except after a bound
        flip, which leaves basis and ``binv`` as they were.  The masks of the
        nonbasic variables that may rise, fall or move either way and the
        bounds of the basic ones are kept, and changed only for the variables
        that swap or flip, as in ``_dual_loop``.
        Returns (status, pivots, d): ``d`` holds the reduced costs that priced
        an OPTIMAL basis, and is None otherwise.  The clock is read once pricing
        finds this call's first entering column, and every ``REFACTOR_EVERY``
        pivots.
        """
        m = len(basis)
        movable = up - lo > 0
        rise = movable & (vstat == AT_LOWER)
        fall = movable & (vstat == AT_UPPER)
        either = movable & (vstat == FREE)
        any_free = either.any()  # a pivot never makes a variable free
        blo, bup = lo[basis], up[basis]
        since_refactor = 0
        start = iters
        with np.errstate(invalid="ignore", divide="ignore"):
            while True:
                if iters >= iter_limit:
                    return LpStatus.ITER_LIMIT, iters, None
                if since_refactor >= REFACTOR_EVERY:
                    if deadline is not None and time.perf_counter() > deadline:
                        return LpStatus.TIME_LIMIT, iters, None
                    self.inversions += 1
                    binv = _inverse(A, basis)
                    val[basis] = _basic_values(binv, A, self.b, vstat, val)
                    since_refactor, d = 0, None
                if d is None:
                    d = _reduced_costs(cost, basis, binv, A)
                descent = (rise & (d < -DUAL_TOL)) | (fall & (d > DUAL_TOL))
                if any_free:
                    descent |= either & (np.abs(d) > DUAL_TOL)
                cand = descent.nonzero()[0]
                if cand.size == 0:
                    return LpStatus.OPTIMAL, iters, d
                if iters == start and deadline is not None and time.perf_counter() > deadline:
                    return LpStatus.TIME_LIMIT, iters, None  # before the first pivot
                if iters < BLAND_AFTER:
                    j = int(cand[np.abs(d[cand]).argmax()])
                else:
                    j = int(cand[0])
                direction = 1.0 if (vstat[j] == AT_LOWER or d[j] < 0) else -1.0

                ycol = _column_image(binv, A, j)
                z = direction * ycol
                xb = val[basis]
                ratios = np.where(z > PIVOT_TOL, (xb - blo) / z,
                                  np.where(z < -PIVOT_TOL, (bup - xb) / -z, INF))
                ratios[np.isnan(ratios)] = INF  # infinite room

                own = up[j] - lo[j] if (lo[j] > -INF and up[j] < INF) else INF
                t_basic = ratios.min() if m else INF
                t = min(own, t_basic)
                if t == INF:
                    return LpStatus.UNBOUNDED, iters, None
                t = max(t, 0.0)

                val[basis] = xb - t * z
                val[j] = val[j] + direction * t
                if own <= t_basic:
                    # bound flip: basis, binv and so d unchanged
                    vstat[j] = AT_UPPER if vstat[j] == AT_LOWER else AT_LOWER
                    rise[j], fall[j] = fall[j], rise[j]
                else:
                    tied = (ratios <= t + 1e-12).nonzero()[0]
                    r = int(tied[basis[tied].argmin()])
                    leaving = int(basis[r])
                    to_lower = bool(z[r] > 0)
                    vstat[leaving] = AT_LOWER if to_lower else AT_UPPER
                    val[leaving] = lo[leaving] if to_lower else up[leaving]
                    rise[leaving] = movable[leaving] and to_lower
                    fall[leaving] = movable[leaving] and not to_lower
                    basis[r] = j
                    vstat[j] = BASIC
                    rise[j] = fall[j] = either[j] = False
                    blo[r], bup[r] = lo[j], up[j]
                    _eta_update(binv, ycol, r)
                    d = None
                iters += 1
                since_refactor += 1


def solve_lp(model: MipModel, bounds: BoundState,
             iter_limit: int = DEFAULT_ITER_LIMIT) -> LpResult:
    """One-shot LP relaxation solve under the given bound overrides."""
    return SimplexContext(model).solve(bounds, iter_limit=iter_limit, warm=False)

