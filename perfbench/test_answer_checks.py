"""The benchmark's answer checks accept right answers and catch wrong ones.

Each check is run on real solver output and on copies of it with one value
corrupted: a finite value off by one, a finite value turned into ``inf``,
and an ``inf`` turned finite.
"""

import random

import pytest

from mpgsolve import formats, kasi
from mpgsolve.core import GameGraph, Owner, induced_subgame
from mpgsolve.generators import generate
from mpgsolve.value_iteration import vi_solve

import answer_checks as ac
from workloads import SMALL_BOUND, cut_keep, small_many

INF = float("inf")


def _random_game(rng: random.Random) -> GameGraph:
    """Small game with parallel edges and self-loops, rarely strongly connected."""
    n = rng.randint(1, 8)
    owners = [rng.choice((Owner.MAX, Owner.MIN)) for _ in range(n)]
    edges = [(v, rng.randrange(n), rng.randint(-4, 4)) for v in range(n) for _ in range(rng.randint(1, 3))]
    return GameGraph(n, owners, edges)


def _games():
    rng = random.Random(7)
    games = [_random_game(rng) for _ in range(150)]
    for gd in small_many(seed=3).games[::3]:
        g = generate(gd.spec)
        games.append(g if gd.cut_seed is None else induced_subgame(g, cut_keep(g.vertex_count, gd.cut_seed)))
    return games


GAMES = _games()


def _rendered(res):
    return (formats.render_values(res.lwub), formats.render_strategy(res.max_strategy),
            formats.render_witness(res.min_witness))


def _with_value(values_text: str, v: int, x) -> str:
    lines = values_text.splitlines(keepends=True)
    lines[v] = f"v {v} {'inf' if x == INF else x}\n"
    return "".join(lines)


def _corruptions(x: list, bound: int):
    """(label, vertex, wrong value) for each kind of corruption x allows."""
    finite = [v for v, e in enumerate(x) if e != INF]
    lost = [v for v, e in enumerate(x) if e == INF]
    out = []
    if finite:
        v = finite[len(finite) // 2]
        if x[v] < bound:
            out.append(("finite+1", v, x[v] + 1))
        if x[v] > 0:
            out.append(("finite-1", v, x[v] - 1))
        out.append(("finite->inf", v, INF))
    if lost:
        v = lost[len(lost) // 2]
        out.append(("inf->0", v, 0))
        out.append(("inf->bound", v, bound))
    return out


def test_lb_checks_accept_solver_output():
    for game in GAMES:
        values, strategy, witness = _rendered(kasi.solve_lb(game))
        ac.check_kasi_lb(game, values, strategy, witness)


def test_lb_checks_catch_every_corruption():
    caught = {}
    for game in GAMES:
        values, strategy, witness = _rendered(kasi.solve_lb(game))
        x = ac.parse_values(values, game.vertex_count)
        for label, v, wrong in _corruptions(x, ac.lb_bound(game)):
            with pytest.raises(ac.CheckFailed):
                ac.check_kasi_lb(game, _with_value(values, v, wrong), strategy, witness)
            caught[label] = caught.get(label, 0) + 1
    assert set(caught) == {"finite+1", "finite-1", "finite->inf", "inf->0", "inf->bound"}


def test_lwub_checks_catch_every_corruption():
    for game in GAMES:
        res = kasi.solve_lwub(game, SMALL_BOUND)
        values, strategy, witness = _rendered(res)
        reference = vi_solve(game, SMALL_BOUND)
        ac.check_lwub(game, SMALL_BOUND, values, strategy, witness, reference)
        ac.check_lwub(game, SMALL_BOUND, values, None, None, reference)
        for _, v, wrong in _corruptions(res.lwub, SMALL_BOUND):
            with pytest.raises(ac.CheckFailed):
                ac.check_lwub(game, SMALL_BOUND, _with_value(values, v, wrong), strategy, witness, reference)


def test_fixpoint_and_strategy_checks_each_catch_values_too_low():
    tested = 0
    for game in GAMES:
        for bound in (SMALL_BOUND, None):
            res = kasi.solve_lb(game) if bound is None else kasi.solve_lwub(game, bound)
            bound = ac.lb_bound(game) if bound is None else bound
            for _, v, wrong in _corruptions(res.lwub, bound):
                if wrong == INF or wrong >= res.lwub[v]:
                    continue
                x = list(res.lwub)
                x[v] = wrong
                with pytest.raises(ac.CheckFailed):
                    ac.check_fixpoint(game, bound, x)
                with pytest.raises(ac.CheckFailed):
                    ac.check_max_strategy(game, bound, x, res.max_strategy.choice)
                tested += 1
    assert tested > 100


def test_strategy_check_catches_a_wrong_max_choice():
    tested = 0
    for game in GAMES:
        res = kasi.solve_lb(game)
        x, sigma = res.lwub, res.max_strategy.choice
        for v, u in sigma.items():
            if x[v] == INF:
                continue
            # a successor from which x(v) does not suffice
            worse = [t for t, w in game.out_adjacency[v]
                     if x[t] == INF or max(0, x[t] - max(w2 for t2, w2 in game.out_adjacency[v] if t2 == t)) > x[v]]
            if worse:
                with pytest.raises(ac.CheckFailed):
                    ac.check_max_strategy(game, ac.lb_bound(game), x, {**sigma, v: worse[0]})
                tested += 1
                break
    assert tested > 20


def test_trap_check_catches_what_the_fixpoint_misses():
    # a Max self-loop of weight 0 needs no energy, yet inf is also a fixpoint
    game = GameGraph(1, [Owner.MAX], [(0, 0, 0)])
    witness = _rendered(kasi.solve_lb(game))[2]
    ac.check_fixpoint(game, ac.lb_bound(game), [INF])
    with pytest.raises(ac.CheckFailed, match="weight >= 0"):
        ac.check_kasi_lb(game, "v 0 inf\n", "s 0 0\n", witness)


@pytest.mark.parametrize("edges, expected", [
    ([], False),
    ([(0, 0, 0)], True),
    ([(0, 0, -1)], False),
    ([(0, 1, 2), (1, 0, -2)], True),
    ([(0, 1, 2), (1, 0, -3)], False),
    # parallel edges relax one vertex several times per round
    ([(0, 1, -1)] * 5 + [(1, 0, 0)] * 5 + [(1, 2, -1), (2, 1, 0)], False),
    ([(0, 1, -1)] * 5 + [(1, 0, 1)], True),
    ([(0, 1, 5), (1, 2, 5)], False),  # a simple walk of L - 1 edges
])
def test_nonnegative_cycle_detection(edges, expected):
    n = 1 + max((max(a, b) for a, b, _ in edges), default=-1)
    assert ac.has_nonnegative_cycle(n, edges) is expected


def test_witness_and_strategy_parsers_reject_damage():
    g = generate(small_many(seed=0).games[0].spec)
    values, strategy, witness = _rendered(kasi.solve_lb(g))
    with pytest.raises(ac.CheckFailed):
        ac.parse_max_strategy(strategy.split("\n", 1)[1], g)  # a Max vertex left out
    with pytest.raises(ac.CheckFailed):
        ac.last_min_strategy("k 0\n" + witness, g)  # blocks out of order
    with pytest.raises(ac.CheckFailed):
        ac.parse_values(values + "v 999 0\n", g.vertex_count)
    for damaged in ("v 0\n", "v 0 -1\n", "v 0 x\n", "x 0 0\n", "v a 0\n"):
        with pytest.raises(ac.CheckFailed):
            ac.parse_values(damaged, 1)
    with pytest.raises(ac.CheckFailed):
        ac.parse_max_strategy("s 0 zero\n", g)
