"""Energy solvers for mean-payoff games.

For each vertex of a two-player game on a weighted digraph, compute the
minimum initial energy that lets the maximizing player keep the running sum
of edge weights non-negative forever -- optionally with the energy truncated
at an upper bound -- together with optimal strategies for both players.
"""

from .checker import certify, verify_min_witness
from .core import (
    GameGraph,
    MinWitness,
    Owner,
    PositionalStrategy,
    SolveResult,
    induced_subgame,
    max_abs_weight,
    restrict_to_strategy,
    validate,
)
from .errors import (
    BudgetExceeded,
    DanglingEdge,
    GameError,
    InvalidSpec,
    InvalidStrategy,
    InvariantViolation,
    OverflowRisk,
    ParseError,
    PreconditionViolated,
    TimeLimitExceeded,
    ValidationError,
    WitnessIncomplete,
    ZeroOutDegree,
)
from .formats import (
    parse_game,
    render_game,
    render_strategy,
    render_values,
    render_witness,
)
from .generators import GenSpec, generate
from .instances import MEMORY_GAME_BOUND, find_balancing_shift, memory_game, two_vertex_duel
from .kasi import (
    evaluate_strategy,
    improve_strategy,
    solve_lb,
    solve_lwub,
    winning_sign,
)
from .oracle import oracle_lb, oracle_lwub
from .value_iteration import vi_solve

__version__ = "0.1.0"

__all__ = [
    "GameGraph",
    "Owner",
    "PositionalStrategy",
    "GenSpec",
    "MinWitness",
    "SolveResult",
    "MEMORY_GAME_BOUND",
    "validate",
    "restrict_to_strategy",
    "induced_subgame",
    "max_abs_weight",
    "solve_lwub",
    "solve_lb",
    "winning_sign",
    "evaluate_strategy",
    "improve_strategy",
    "certify",
    "verify_min_witness",
    "vi_solve",
    "oracle_lwub",
    "oracle_lb",
    "generate",
    "find_balancing_shift",
    "memory_game",
    "two_vertex_duel",
    "parse_game",
    "render_game",
    "render_values",
    "render_strategy",
    "render_witness",
    "GameError",
    "ValidationError",
    "ZeroOutDegree",
    "DanglingEdge",
    "InvalidStrategy",
    "OverflowRisk",
    "PreconditionViolated",
    "InvariantViolation",
    "BudgetExceeded",
    "TimeLimitExceeded",
    "WitnessIncomplete",
    "ParseError",
    "InvalidSpec",
]
