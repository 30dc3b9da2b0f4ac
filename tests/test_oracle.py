import pytest

from mpgsolve import (
    BudgetExceeded,
    GameGraph,
    OverflowRisk,
    Owner,
    oracle_lb,
    oracle_lwub,
    winning_sign,
)
from conftest import random_game
from reference import one_vertex_game, oracle_value_sign

INF = float("inf")
MAX, MIN = Owner.MAX, Owner.MIN


class TestOracleLwub:
    def test_zero_loop_at_zero_bound(self):
        assert oracle_lwub(one_vertex_game(0), 0) == [0]

    def test_negative_loop_never_wins(self):
        for b in (0, 1, 7):
            assert oracle_lwub(one_vertex_game(-1), b) == [INF]

    def test_ten_state_fixpoint_by_hand(self):
        g = GameGraph(2, [MAX, MAX], [(0, 1, -4), (1, 1, 0)])
        assert oracle_lwub(g, 4) == [4, 0]
        assert oracle_lwub(g, 3) == [INF, 0]

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            oracle_lwub(one_vertex_game(0), 10**7, budget=100)

    def test_bound_monotone(self, rng):
        for _ in range(60):
            g = random_game(rng)
            b1 = rng.randint(0, 8)
            b2 = rng.randint(b1, 10)
            lo = oracle_lwub(g, b2)
            hi = oracle_lwub(g, b1)
            assert all(x <= y for x, y in zip(lo, hi))

    def test_removal_order_never_matters(self, rng):
        # chaotic-iteration safety fixpoint, recomputed in random order
        for _ in range(40):
            g = random_game(rng, n_max=5, w_max=3)
            b = rng.randint(0, 6)
            want = oracle_lwub(g, b)
            safe = {(v, e) for v in range(g.vertex_count) for e in range(b + 1)}
            changed = True
            while changed:
                changed = False
                for v, e in rng.sample(sorted(safe), len(safe)):
                    keeps = []
                    for u, w in g.out_adjacency[v]:
                        e2 = min(e + w, b)
                        keeps.append(e2 >= 0 and (u, e2) in safe)
                    ok = any(keeps) if g.owners[v] is MAX else all(keeps)
                    if not ok:
                        safe.discard((v, e))
                        changed = True
            got = [
                min((e for e in range(b + 1) if (v, e) in safe), default=INF)
                for v in range(g.vertex_count)
            ]
            assert got == want


class TestOracleLb:
    def test_solve_lb_examples(self):
        assert oracle_lb(one_vertex_game(0)) == [0]
        assert oracle_lb(one_vertex_game(-1)) == [INF]
        g = GameGraph(2, [MAX, MAX], [(0, 1, 2), (1, 0, -1)])
        assert oracle_lb(g) == [0, 1]

    def test_overflow_guard(self):
        # the reduction bound 2 * 2**61 on 3 vertices leaves the 64-bit envelope
        g = GameGraph(3, [MAX, MIN, MAX], [(0, 1, 2**61), (1, 2, 0), (2, 0, 0)])
        with pytest.raises(OverflowRisk):
            oracle_lb(g)

    def test_finite_exactly_on_nonnegative_class(self, rng):
        for _ in range(60):
            g = random_game(rng, n_max=5, w_max=3)
            lb = oracle_lb(g)
            nonneg, neg = oracle_value_sign(g)
            assert set(nonneg) == {v for v in range(g.vertex_count) if lb[v] != INF}
            assert set(neg) == {v for v in range(g.vertex_count) if lb[v] == INF}


class TestValueSign:
    def test_all_positive(self):
        g = GameGraph(2, [MAX, MIN], [(0, 1, 3), (1, 0, 1)])
        assert oracle_value_sign(g) == ((0, 1), ())

    def test_negative_loop(self):
        assert oracle_value_sign(one_vertex_game(-1)) == ((), (0,))

    def test_mixed_instance_matches_solver(self):
        g = GameGraph(
            4,
            [MAX, MIN, MAX, MIN],
            [(0, 1, 1), (1, 0, -2), (1, 2, 0), (2, 3, 3), (3, 2, -1), (3, 0, -4)],
        )
        assert oracle_value_sign(g) == winning_sign(g)

    def test_pair_budget_guard(self):
        g = random_game(__import__("random").Random(3), n_max=6)
        with pytest.raises(BudgetExceeded):
            oracle_value_sign(g, budget=0)
