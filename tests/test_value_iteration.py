import random

from mpgsolve import (
    GameGraph,
    Owner,
    solve_lwub,
    two_vertex_duel,
    vi_solve,
)
from mpgsolve.instances import one_vertex_game
from mpgsolve.value_iteration import ViState, vi_step
from conftest import random_game

INF = float("inf")
MAX, MIN = Owner.MAX, Owner.MIN


def steps(game, bound, k):
    state = ViState.initial(game)
    history = [list(state.d)]
    for _ in range(k):
        state = vi_step(game, bound, state)
        history.append(list(state.d))
    return history


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
            assert vi_solve(g, b) == solve_lwub(g, b, check=True).lwub

    def test_plain_and_worklist_agree(self, rng):
        # the synchronous rounds of vi_step, iterated to their fixpoint
        for _ in range(100):
            g = random_game(rng)
            b = rng.randint(0, 10)
            state = ViState.initial(g)
            while state.dirty:
                state = vi_step(g, b, state)
            assert state.d == vi_solve(g, b)


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
                    pending.update(u for u, _ in g.in_adjacency[v])
            assert d == want
