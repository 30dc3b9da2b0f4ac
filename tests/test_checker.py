"""The certificate: ``certify`` accepts what the solver returns, at every
size, and rejects each kind of wrong answer: a value raised or lowered, a 0
raised to 1, a Max choice that breaks the progress measure, Min's choice at
a losing vertex sent out of the losing set, and a choice of her last block
that no longer wins."""

import random
from dataclasses import replace

import pytest

from mpgsolve import (
    MEMORY_GAME_BOUND,
    GameGraph,
    GenSpec,
    InvariantViolation,
    MinWitness,
    Owner,
    PositionalStrategy,
    WitnessIncomplete,
    certify,
    generate,
    memory_game,
    solve_lb,
    verify_min_witness,
)
from mpgsolve.core import reduction_bound
from conftest import certified, random_game
from test_kasi import _C11_SHAPE, _TORUS

INF = float("inf")


def _with_value(res, v, x):
    lwub = list(res.lwub)
    lwub[v] = x
    return replace(res, lwub=lwub)


def _with_last_block(res, v, u):
    strategies = list(res.min_witness.strategies)
    strategies[-1] = PositionalStrategy(Owner.MIN, {**strategies[-1].choice, v: u})
    return replace(res, min_witness=MinWitness(strategies, res.min_witness.death_index))


def _corpus(lb):
    """Certified results on 300 random games, with their bounds."""
    rng = random.Random(3141)
    for _ in range(300):
        g = random_game(rng, n_max=7, w_max=4)
        if lb:
            yield g, reduction_bound(g), certified(g)
        else:
            b = rng.randint(0, 10)
            yield g, b, certified(g, b)


def _moved_values(res, rng=None, k=None):
    """``(kind, vertex, value)``: every finite value raised and lowered by
    one, and every 0 raised to 1, or ``k`` of each kind drawn by ``rng``."""
    moves = {"raise": [], "lower": [], "zero": []}
    for v, x in enumerate(res.lwub):
        if x == 0:
            moves["zero"].append((v, 1))
        elif x != INF:
            moves["raise"].append((v, x + 1))
            moves["lower"].append((v, x - 1))
    for kind, found in moves.items():
        for v, y in found if rng is None else rng.sample(found, k):
            yield kind, v, y


class TestValues:
    @pytest.mark.parametrize("lb", [True, False], ids=["lb", "lwub"])
    def test_every_value_moved_by_one_is_caught(self, lb):
        # raising or lowering a positive value, or raising a 0 to 1, breaks
        # the certificate at every vertex of every game
        counts = {"raise": 0, "lower": 0, "zero": 0}
        for g, b, res in _corpus(lb):
            for kind, v, y in _moved_values(res):
                with pytest.raises(InvariantViolation):
                    certify(g, b, _with_value(res, v, y))
                counts[kind] += 1
        assert min(counts.values()) > 100, counts

    def test_a_losing_vertex_made_finite_is_caught(self):
        # the death index no longer matches, and a value with it is too low
        g, b = memory_game(), MEMORY_GAME_BOUND
        res = certified(g, b)
        wrong = _with_value(res, 2, 15)
        with pytest.raises(InvariantViolation, match=r"death_index\[2\] = 1 disagrees with x\(2\) = 15"):
            certify(g, b, wrong)
        death = list(res.min_witness.death_index)
        death[2] = None
        with pytest.raises(InvariantViolation, match=r"x\(2\) = 15 does not cover edge"):
            certify(g, b, replace(wrong, min_witness=MinWitness(res.min_witness.strategies, death)))

    @pytest.mark.parametrize("x", [-1, 16, 3.0, True, None])
    def test_a_value_outside_the_range_is_caught(self, x):
        g, b = memory_game(), MEMORY_GAME_BOUND
        with pytest.raises(InvariantViolation, match=r"x\(1\) = .* is neither inf nor an int in \[0, 15\]"):
            certify(g, b, _with_value(certified(g, b), 1, x))

    def test_a_zero_weight_cycle_is_caught(self):
        # a Max 2-cycle of weight 0 beside a -1 loop: Max needs nothing, and
        # x = (1, 1) passes every edge test but holds a cycle of tight edges
        g = GameGraph(2, [Owner.MAX, Owner.MAX], [(0, 1, 0), (1, 0, 0), (1, 1, -1)])
        res = certified(g, 3)
        assert res.lwub == [0, 0]
        wrong = replace(res, lwub=[1, 1])
        with pytest.raises(InvariantViolation, match="a zero-weight cycle through vertex"):
            certify(g, 3, wrong)


class TestStrategies:
    def test_max_choice_breaking_the_progress_measure_is_caught(self):
        caught = 0
        for g, b, res in _corpus(lb=False):
            x = res.lwub
            for v in g.vertices_of(Owner.MAX):
                if x[v] == INF:
                    continue
                for u, _ in g.out_adjacency[v]:
                    heaviest = max(w for t, w in g.out_adjacency[v] if t == u)
                    if x[u] - heaviest > x[v]:
                        choice = {**res.max_strategy.choice, v: u}
                        with pytest.raises(InvariantViolation, match=f"does not cover edge \\({v}, {u}\\)"):
                            certify(g, b, replace(res, max_strategy=PositionalStrategy(Owner.MAX, choice)))
                        caught += 1
        assert caught > 100

    def test_min_leaving_the_losing_set_is_caught(self):
        # at lb, sigma's choice at a losing vertex redirected to a finite one
        caught = 0
        for g, b, res in _corpus(lb=True):
            for v in g.vertices_of(Owner.MIN):
                if res.lwub[v] != INF:
                    continue
                for u, _ in g.out_adjacency[v]:
                    if res.lwub[u] != INF:
                        with pytest.raises(InvariantViolation, match=f"edge \\({v}, {u}\\) leaves the losing set"):
                            certify(g, b, _with_last_block(res, v, u))
                        caught += 1
        assert caught > 50

    def test_a_last_block_that_stops_winning_is_caught(self):
        # below the bound, a redirection of the last block that the replay
        # rejects from some losing vertex fails the certificate too
        g, b = memory_game(), MEMORY_GAME_BOUND
        wrong = _with_last_block(certified(g, b), 2, 0)
        with pytest.raises(WitnessIncomplete):
            verify_min_witness(g, b, wrong.min_witness, 2, b)
        with pytest.raises(InvariantViolation, match="a play may cycle safely"):
            certify(g, b, wrong)
        rejected = 0
        for g, b, res in _corpus(lb=False):
            if b >= reduction_bound(g):
                continue
            losing = [v for v, x in enumerate(res.lwub) if x == INF]
            for v in g.vertices_of(Owner.MIN):
                for u, _ in g.out_adjacency[v]:
                    wrong = _with_last_block(res, v, u)
                    try:
                        for s in losing:
                            verify_min_witness(g, b, wrong.min_witness, s, b)
                    except WitnessIncomplete:
                        rejected += 1
                        with pytest.raises(InvariantViolation):
                            certify(g, b, wrong)
        assert rejected > 20

    def test_the_walk_counter_stops_at_the_first_repeat(self):
        # a Max 2-cycle of weight 0 claimed lost at lb: the Bellman-Ford's
        # walk reaches vertex 0 a second time on its second arc, and a walk
        # of as many arcs as there are losing vertices must repeat one
        g = GameGraph(2, [Owner.MAX, Owner.MAX], [(0, 1, 0), (1, 0, 0)])
        res = certified(g)
        wrong = replace(res, lwub=[INF, INF], min_witness=MinWitness(res.min_witness.strategies, [0, 0]))
        with pytest.raises(InvariantViolation, match="cycle of weight >= 0 among the losing vertices reaches vertex 0$"):
            certify(g, reduction_bound(g), wrong)

    def test_a_malformed_result_is_a_wrong_answer(self):
        g, b = memory_game(), MEMORY_GAME_BOUND
        res = certified(g, b)
        for wrong, message in [
            (replace(res, max_strategy=PositionalStrategy(Owner.MAX, {0: 0})), "strategy domain mismatch"),
            (replace(res, min_witness=MinWitness([], [None] * 4)), "Min's witness holds no strategy"),
            (replace(res, min_witness=MinWitness(res.min_witness.strategies, [None] * 3)),
             "death_index has 3 entries for 4 vertices"),
            (replace(res, lwub=res.lwub[:3]), "3 values for 4 vertices"),
        ]:
            with pytest.raises(InvariantViolation, match=message):
                certify(g, b, wrong)


class TestAtScale:
    @pytest.mark.parametrize("spec, bound", [(_C11_SHAPE, None), (_C11_SHAPE, 20), (_TORUS, None)],
                             ids=["c11-lb", "c11-b20", "torus-lb"])
    def test_pinned_games(self, spec, bound):
        # 20 values of each kind moved, as in the every-value test above
        g = generate(spec)
        res = certified(g, bound)
        bound = reduction_bound(g) if bound is None else bound
        for _, v, y in _moved_values(res, random.Random(7), 20):
            with pytest.raises(InvariantViolation):
                certify(g, bound, _with_value(res, v, y))

    def test_criterion_11_lb_result(self):
        g = generate(GenSpec(family="sprand", n=20000, edge_factor=2.0, seed=0,
                             weight_lo=1, weight_hi=10, shift=6))
        bound = reduction_bound(g)
        res = solve_lb(g)
        certify(g, bound, res)
        assert sum(x == INF for x in res.lwub) >= 0.25 * g.vertex_count
        v = next(v for v, x in enumerate(res.lwub) if x not in (0, INF))
        with pytest.raises(InvariantViolation):
            certify(g, bound, _with_value(res, v, res.lwub[v] - 1))

