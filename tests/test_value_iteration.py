import random
from types import SimpleNamespace

import pytest

from mpgsolve import (
    GameGraph,
    Owner,
    two_vertex_duel,
    vi_solve,
)
from mpgsolve import core
from mpgsolve.errors import TimeLimitExceeded
from conftest import certified, random_game
from reference import ViState, one_vertex_game, vi_step

INF = float("inf")
MAX, MIN = Owner.MAX, Owner.MIN


def steps(game, bound, k):
    state = ViState.initial(game)
    history = [list(state.d)]
    for _ in range(k):
        state = vi_step(game, bound, state)
        history.append(list(state.d))
    return history


def fixpoint(game, bound):
    """The synchronous rounds of vi_step, iterated to their fixpoint."""
    state = ViState.initial(game)
    while state.dirty:
        state = vi_step(game, bound, state)
    return state.d


class TestStep:
    def test_zero_loop_is_a_fixpoint(self):
        g = one_vertex_game(0)
        assert steps(g, 5, 4) == [[0]] * 5

    def test_draining_loop_climbs_then_freezes(self):
        g = one_vertex_game(-1)
        assert steps(g, 2, 3) == [[0], [1], [2], [INF]]

    def test_max_vertex_takes_the_free_edge(self):
        g = GameGraph(
            3, [MAX, MAX, MAX], [(0, 1, -1), (0, 2, 0), (1, 1, 0), (2, 2, 0)]
        )
        state = vi_step(g, 5, ViState.initial(g))
        assert state.d[0] == 0

    def test_monotone_ascent(self, rng):
        for _ in range(30):
            g = random_game(rng)
            b = rng.randint(0, 8)
            history = steps(g, b, 12)
            for earlier, later in zip(history, history[1:]):
                assert all(x <= y for x, y in zip(earlier, later))


class TestSolve:
    def test_nonnegative_weights_converge_immediately(self, rng):
        g = random_game(rng)
        g = GameGraph(g.vertex_count, g.owners, [(u, v, abs(w)) for u, v, w in g.edges])
        state = vi_step(g, 3, ViState.initial(g))
        assert state.d == [0] * g.vertex_count
        assert vi_solve(g, 3) == [0] * g.vertex_count

    def test_two_vertex_duel(self):
        assert vi_solve(two_vertex_duel(), 3) == [0, 3]

    def test_agreement_with_strategy_improvement(self, rng):
        for _ in range(300):
            g = random_game(rng, n_max=8)
            b = rng.randint(0, 10)
            assert vi_solve(g, b) == certified(g, b).lwub

    def test_plain_and_worklist_agree(self, rng):
        for _ in range(100):
            g = random_game(rng)
            b = rng.randint(0, 10)
            assert fixpoint(g, b) == vi_solve(g, b)

    def test_time_limit_in_the_past(self):
        # the value climbs by 1 per pop, so 10**6 pops pass a check, and a
        # limit of 0 s has passed by the first
        with pytest.raises(TimeLimitExceeded):
            vi_solve(one_vertex_game(-1), 10**6, time_limit=0.0)

    def test_time_limit_checked_within_4096_pops(self, monkeypatch):
        # a chain whose values rise along the queue: one pop per vertex
        n = 20000
        g = GameGraph(n, [MAX] * n, [(0, 0, 0)] + [(v, v - 1, -1) for v in range(1, n)])
        stats = {}
        assert vi_solve(g, n, stats=stats) == list(range(n))
        assert stats["iterations"] == n - 1
        reads = 0

        def clock():
            nonlocal reads
            reads += 1
            return reads

        monkeypatch.setattr(core, "time", SimpleNamespace(perf_counter=clock))
        with pytest.raises(TimeLimitExceeded):
            vi_solve(g, n, time_limit=0.5)
        # one read sets the deadline, the next is the check at pop 4,096
        assert reads == 2


class TestCounters:
    """Hand-built games for the per-vertex counters of vi_solve: each answer
    is checked by hand and against the iterated vi_step at several bounds."""

    @staticmethod
    def check(game, bound, want):
        assert vi_solve(game, bound) == want
        assert fixpoint(game, bound) == want
        for b in range(8):
            assert vi_solve(game, b) == fixpoint(game, b), b

    def test_tied_minimal_successors(self):
        # 0 starts at 1 with two edges counted; 1 rising leaves one, 2
        # rising leaves none and forces the rescan
        g = GameGraph(
            6, [MAX, MIN, MIN, MAX, MAX, MAX],
            [(0, 1, -1), (0, 2, -1), (0, 3, -4), (1, 4, -1), (2, 5, -3),
             (3, 3, 0), (4, 4, 0), (5, 5, 0)],
        )
        self.check(g, 10, [2, 1, 3, 0, 0, 0])

    def test_parallel_edges_with_different_weights(self):
        # only the heavier parallel edge of Max vertex 0 counts; Min vertex
        # 4 is raised by the lighter of her two parallels
        g = GameGraph(
            5, [MAX, MIN, MAX, MAX, MIN],
            [(0, 1, -1), (0, 1, -3), (0, 2, -5), (1, 3, -2), (2, 2, 0),
             (3, 3, 0), (4, 1, 0), (4, 1, -2)],
        )
        self.check(g, 10, [3, 2, 0, 0, 4])

    def test_negative_self_loops(self):
        # Max vertex 0 climbs its own loop until the exit to 1, which needs
        # 3, is no dearer; Min vertex 2 climbs hers to infinity
        g = GameGraph(
            3, [MAX, MAX, MIN],
            [(0, 0, -1), (0, 1, -3), (1, 1, 0), (2, 2, -1), (2, 1, 0)],
        )
        self.check(g, 5, [3, 0, INF])
        self.check(g, 2, [INF, 0, INF])

    def test_bound_zero(self):
        # any positive requirement is infinity at once
        g = GameGraph(
            5, [MAX, MAX, MIN, MIN, MAX],
            [(0, 1, 0), (0, 2, -1), (1, 1, 0), (2, 2, -1), (3, 0, 0), (3, 2, 5),
             (4, 2, 5), (4, 0, 0)],
        )
        self.check(g, 0, [0, 0, INF, INF, 0])
        assert vi_solve(two_vertex_duel(), 0) == fixpoint(two_vertex_duel(), 0)

    def test_successor_jumps_to_infinity_under_a_count_above_one(self):
        # 4 is infinite from the start and sends 1 and 2 there in one step
        # each; vertex 0's count falls from 3 to 1 without a rescan
        edges = [(0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 4, 0), (2, 4, 0), (4, 4, -5)]
        g = GameGraph(5, [MAX, MIN, MIN, MAX, MIN], edges + [(3, 3, 0)])
        self.check(g, 4, [0, INF, INF, 0, INF])
        # with 3 lost too, the count reaches 0 and the rescan finds no finite edge
        g = GameGraph(5, [MAX, MIN, MIN, MIN, MIN], edges + [(3, 4, 0)])
        self.check(g, 4, [INF] * 5)


def survives(game, v, energy, bound, depth, memo):
    """Direct k-step play semantics: can Max keep the truncated energy
    non-negative for `depth` more steps starting at v with `energy`?"""
    if energy < 0:
        return False
    if depth == 0:
        return True
    key = (v, energy, depth)
    if key in memo:
        return memo[key]
    outcomes = []
    for u, w in game.out_adjacency[v]:
        e2 = min(energy + w, bound)
        outcomes.append(survives(game, u, e2, bound, depth - 1, memo))
    result = any(outcomes) if game.owners[v] is MAX else all(outcomes)
    memo[key] = result
    return result


class TestKStepSemantics:
    def test_prefix_values_match_game_tree(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_game(rng, n_max=6, w_max=3)
            b = rng.randint(0, 6)
            history = steps(g, b, 6)
            memo = {}
            for k in range(7):
                for v in range(g.vertex_count):
                    wanted = next(
                        (x for x in range(b + 1) if survives(g, v, x, b, k, memo)),
                        INF,
                    )
                    assert history[k][v] == wanted, (k, v)


class TestConfluence:
    def test_random_extraction_orders_agree(self, rng):
        # independent chaotic-relaxation solver: random vertex recomputation
        for _ in range(40):
            g = random_game(rng)
            b = rng.randint(0, 8)
            want = vi_solve(g, b)
            n = g.vertex_count
            d = [0] * n
            pending = set(range(n))
            while pending:
                v = rng.choice(sorted(pending))
                pending.discard(v)
                best = None
                for u, w in g.out_adjacency[v]:
                    c = max(0, d[u] - w)
                    if best is None:
                        best = c
                    elif g.owners[v] is MAX:
                        best = min(best, c)
                    else:
                        best = max(best, c)
                if best > b:
                    best = INF
                if best > d[v]:
                    d[v] = best
                    pending.update(u for u, _, _ in g.in_adjacency[v])
            assert d == want
