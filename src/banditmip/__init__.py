"""banditmip: a small branch-and-bound MIP solver whose diving and LNS
heuristics are selected and tuned online by an epsilon-greedy bandit."""

from .model import (
    Assignment,
    MipModel,
    evaluate_solution,
    generate_instance,
    load_instance,
    parse_mps,
    write_mps,
)
from .simplex import BoundState, LpResult, LpStatus, SimplexContext, solve_lp
from .bnb import InvalidSettings, SolveResult, SolveStatus, SolverSettings, solve
from .scheduler import Scheduler, compute_reward, compute_skip_count

__all__ = [
    "Assignment",
    "BoundState",
    "InvalidSettings",
    "LpResult",
    "LpStatus",
    "MipModel",
    "Scheduler",
    "SimplexContext",
    "SolveResult",
    "SolveStatus",
    "SolverSettings",
    "compute_reward",
    "compute_skip_count",
    "evaluate_solution",
    "generate_instance",
    "load_instance",
    "parse_mps",
    "solve",
    "solve_lp",
    "write_mps",
]

__version__ = "0.1.0"
