"""Benchmark inputs: instance generators, MPS text and an independent checker.

The benchmark owns its inputs so that a change to the solver cannot change
what it is measured on.  The three families reproduce the solver's own
``gen:`` generators draw for draw, so ``gap(300, 10, seed=1)`` here is the
instance ``gen:gap:n=300,m=10,seed=1`` that the roadmap's hard tier names.
Every instance is a pure binary minimization problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_FAMILY_CODE = {"knapsack": 1, "set_cover": 2, "gap": 3}


@dataclass(frozen=True)
class Instance:
    """``min c.x`` over binary x subject to sparse rows ``a_i.x (sense) rhs_i``."""

    name: str
    c: np.ndarray
    rows: tuple  # ((cols, vals), ...) per row
    senses: tuple  # "L", "G" or "E" per row
    rhs: np.ndarray

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def m(self) -> int:
        return len(self.rhs)

    @property
    def nnz(self) -> int:
        return sum(len(cols) for cols, _ in self.rows)

    def dense(self) -> np.ndarray:
        A = np.zeros((self.m, self.n))
        for i, (cols, vals) in enumerate(self.rows):
            A[i, cols] = vals
        return A


def _rng(family: str, n: int, m: int, seed: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([_FAMILY_CODE[family], n, m, seed % 2**32])
    )


def knapsack(n: int, m: int, seed: int) -> Instance:
    rng = _rng("knapsack", n, m, seed)
    weights = rng.integers(1, 10, size=(m, n)).astype(float)
    values = rng.integers(1, 10, size=n).astype(float)
    cap = np.maximum(1.0, np.floor(0.5 * weights.sum(axis=1)))
    return Instance(
        name=f"knapsack_n{n}_m{m}_s{seed}",
        c=-values,  # maximize value, stated as a minimization
        rows=tuple((np.arange(n), weights[i]) for i in range(m)),
        senses=("L",) * m,
        rhs=cap,
    )


def set_cover(n: int, m: int, seed: int) -> Instance:
    rng = _rng("set_cover", n, m, seed)
    cost = rng.integers(1, 10, size=n).astype(float)
    rows = []
    for _ in range(m):
        k = int(rng.integers(1, min(n, 6) + 1))
        cols = np.sort(rng.choice(n, size=k, replace=False))
        rows.append((cols, np.ones(k)))
    return Instance(
        name=f"set_cover_n{n}_m{m}_s{seed}",
        c=cost,
        rows=tuple(rows),
        senses=("G",) * m,
        rhs=np.ones(m),
    )


def gap(n: int, m: int, seed: int) -> Instance:
    """Generalized assignment: m agents, n // m tasks, x[i * tasks + j]."""
    rng = _rng("gap", n, m, seed)
    agents = m
    tasks = max(1, n // agents)
    weight = rng.integers(1, 10, size=(agents, tasks)).astype(float)
    cost = rng.integers(1, 10, size=(agents, tasks)).astype(float)
    planted = rng.integers(0, agents, size=tasks)
    slack = rng.integers(0, 4, size=agents).astype(float)
    cap = np.zeros(agents)
    for j, i in enumerate(planted):
        cap[i] += weight[i, j]
    cap = np.maximum(cap + slack, 1.0)
    rows = [(np.arange(agents) * tasks + j, np.ones(agents)) for j in range(tasks)]
    rows += [(np.arange(i * tasks, (i + 1) * tasks), weight[i]) for i in range(agents)]
    return Instance(
        name=f"gap_n{n}_m{m}_s{seed}",
        c=cost.reshape(-1),
        rows=tuple(rows),
        senses=("E",) * tasks + ("L",) * agents,
        rhs=np.concatenate([np.ones(tasks), cap]),
    )


FAMILIES = {"knapsack": knapsack, "set_cover": set_cover, "gap": gap}


def to_mps(inst: Instance) -> str:
    """Free-format MPS text of a binary minimization instance."""
    out = [f"NAME {inst.name}", "ROWS", " N OBJ"]
    out += [f" {sense} R{i}" for i, sense in enumerate(inst.senses)]
    by_col = [[] for _ in range(inst.n)]
    for i, (cols, vals) in enumerate(inst.rows):
        for j, v in zip(cols, vals):
            by_col[int(j)].append((i, float(v)))
    out += ["COLUMNS", " M0 'MARKER' 'INTORG'"]
    for j in range(inst.n):
        if inst.c[j] != 0.0:
            out.append(f" C{j} OBJ {float(inst.c[j])!r}")
        out += [f" C{j} R{i} {v!r}" for i, v in by_col[j]]
    out += [" M1 'MARKER' 'INTEND'", "RHS"]
    out += [f" RHS R{i} {float(b)!r}" for i, b in enumerate(inst.rhs) if b != 0.0]
    out.append("BOUNDS")
    out += [f" UP BND C{j} 1.0" for j in range(inst.n)]
    out.append("ENDATA")
    return "\n".join(out) + "\n"


def violation(inst: Instance, x: np.ndarray) -> float:
    """Largest row, bound or integrality violation of x, by the benchmark's own A.x."""
    x = np.asarray(x, dtype=float)
    worst = 0.0
    for (cols, vals), sense, b in zip(inst.rows, inst.senses, inst.rhs):
        act = float(vals @ x[cols])
        if sense == "L":
            worst = max(worst, act - b)
        elif sense == "G":
            worst = max(worst, b - act)
        else:
            worst = max(worst, abs(act - b))
    worst = max(worst, float(np.max(-x)), float(np.max(x - 1.0)))
    return max(worst, float(np.max(np.abs(x - np.round(x)))))
