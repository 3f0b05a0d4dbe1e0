"""Independent oracles used by the test suite.

Everything here is written directly against the problem definitions, not
against the package internals: brute-force enumeration for binary MIPs,
exact rational vertex enumeration for small LPs, and a scripted RNG stub.
"""

import itertools
from fractions import Fraction

import numpy as np


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
    for i, sense in enumerate(model.row_senses):
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
