"""Energy solvers for mean-payoff games.

For each vertex of a two-player game on a weighted digraph, compute the
minimum initial energy that lets the maximizing player keep the running sum
of edge weights non-negative forever -- optionally with the energy truncated
at an upper bound -- together with optimal strategies for both players.
"""

from .core import (
    GameGraph,
    MinWitness,
    Owner,
    PositionalStrategy,
    SUBGAME_SELF_LOOP_WEIGHT,
    SolveResult,
    cycle_weight,
    induced_subgame,
    max_abs_weight,
    path_weight,
    restrict_to_strategy,
    validate,
)
from .errors import (
    AdjacencyMismatch,
    BudgetExceeded,
    DanglingEdge,
    EmptyKeepSet,
    GameError,
    InvalidSpec,
    InvalidStrategy,
    InvariantViolation,
    OverflowRisk,
    ParseError,
    PositiveTransformedEdge,
    PreconditionViolated,
    TimeLimitExceeded,
    ValidationError,
    WitnessIncomplete,
    ZeroOutDegree,
)
from .formats import (
    parse_game,
    parse_strategy,
    parse_values,
    render_bench_row,
    render_game,
    render_result,
    render_strategy,
    render_values,
    render_witness,
)
from .generators import GenSpec, generate
from .instances import MEMORY_GAME_BOUND, find_balancing_shift, memory_game, one_vertex_game, two_vertex_duel
from .kasi import (
    ViolationTrace,
    dijkstra_longest,
    evaluate_strategy,
    improve_strategy,
    solve_lb,
    solve_lwub,
    verify_min_witness,
    winning_sign,
)
from .oracle import oracle_lb, oracle_lwub, oracle_value_sign
from .value_iteration import ViState, vi_solve, vi_step

__version__ = "0.1.0"

__all__ = [
    "GameGraph",
    "Owner",
    "PositionalStrategy",
    "SUBGAME_SELF_LOOP_WEIGHT",
    "GenSpec",
    "MinWitness",
    "SolveResult",
    "ViolationTrace",
    "ViState",
    "MEMORY_GAME_BOUND",
    "validate",
    "restrict_to_strategy",
    "induced_subgame",
    "max_abs_weight",
    "path_weight",
    "cycle_weight",
    "solve_lwub",
    "solve_lb",
    "winning_sign",
    "evaluate_strategy",
    "improve_strategy",
    "dijkstra_longest",
    "verify_min_witness",
    "vi_solve",
    "vi_step",
    "oracle_lwub",
    "oracle_lb",
    "oracle_value_sign",
    "generate",
    "find_balancing_shift",
    "memory_game",
    "one_vertex_game",
    "two_vertex_duel",
    "parse_game",
    "render_game",
    "parse_values",
    "render_values",
    "render_result",
    "parse_strategy",
    "render_strategy",
    "render_witness",
    "render_bench_row",
    "GameError",
    "ValidationError",
    "ZeroOutDegree",
    "DanglingEdge",
    "AdjacencyMismatch",
    "InvalidStrategy",
    "EmptyKeepSet",
    "OverflowRisk",
    "PositiveTransformedEdge",
    "PreconditionViolated",
    "InvariantViolation",
    "BudgetExceeded",
    "TimeLimitExceeded",
    "WitnessIncomplete",
    "ParseError",
    "InvalidSpec",
]
