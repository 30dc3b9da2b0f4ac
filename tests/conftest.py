import random

import pytest

from mpgsolve import GameGraph, Owner, certify, evaluate_strategy, solve_lb, solve_lwub
from mpgsolve.core import reduction_bound
from reference import reference_evaluation


def random_game(rng: random.Random, n_max: int = 7, w_max: int = 4) -> GameGraph:
    """Arbitrary valid game: random owners, out-degrees 1..3, weights in [-w, w]."""
    n = rng.randint(1, n_max)
    owners = [Owner.MAX if rng.random() < 0.5 else Owner.MIN for _ in range(n)]
    edges = []
    for v in range(n):
        for _ in range(rng.randint(1, min(3, n))):
            edges.append((v, rng.randrange(n), rng.randint(-w_max, w_max)))
    return GameGraph(n, owners, edges)


@pytest.fixture
def rng():
    return random.Random(20240917)


def certified(game: GameGraph, bound: int | None = None):
    """``solve_lwub(game, bound)``, or ``solve_lb(game)`` without a bound,
    once ``certify`` has checked the result."""
    if bound is None:
        res = solve_lb(game)
        certify(game, reduction_bound(game), res)
    else:
        res = solve_lwub(game, bound)
        certify(game, bound, res)
    return res


def evaluated(game: GameGraph, bound: int, strategy, d_prev) -> list:
    """``evaluate_strategy``'s values, once they are checked to equal the
    reference evaluation's."""
    d = evaluate_strategy(game, bound, strategy, d_prev)
    assert d == reference_evaluation(game, bound, strategy, d_prev), (game, bound, strategy, d_prev)
    return d
