import hashlib
import heapq
import re
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given

from mpgsolve import (
    GameGraph,
    InvalidStrategy,
    InvariantViolation,
    Owner,
    PositionalStrategy,
    PreconditionViolated,
    TimeLimitExceeded,
    WitnessIncomplete,
    certify,
    evaluate_strategy,
    improve_strategy,
    memory_game,
    oracle_lwub,
    restrict_to_strategy,
    solve_lb,
    solve_lwub,
    two_vertex_duel,
    verify_min_witness,
    winning_sign,
)
from mpgsolve import MEMORY_GAME_BOUND, GenSpec, InvalidSpec, core, formats, generate, kasi, vi_solve
from mpgsolve.core import reduction_bound, validate_strategy
from conftest import certified, evaluated, random_game
from reference import expand_witness, one_vertex_game, witness_of
from test_properties import SETTINGS, games

INF = float("inf")
NEG = float("-inf")

MAX = Owner.MAX
MIN = Owner.MIN


def longest(game, bound):
    """The solver's longest admissible path weights on a game without Min
    vertices, from entry values all 0: the targets are the vertices that
    keep a non-negative edge."""
    return evaluated(game, bound, PositionalStrategy(MIN, {}), [0] * game.vertex_count)


class TestDijkstraLongest:
    def test_target_distance_is_zero(self):
        g = one_vertex_game(0)
        assert longest(g, 5) == [0]

    def test_suffix_condition_kills_path(self):
        g = GameGraph(2, [MAX, MAX], [(0, 1, -4), (1, 1, 0)])
        assert longest(g, 3) == [NEG, 0]

    def test_admissible_path_survives(self):
        g = GameGraph(2, [MAX, MAX], [(0, 1, -4), (1, 1, 0)])
        # energy-state oracle gives 4 in the one-player game
        assert oracle_lwub(g, 4) == [4, 0]
        assert longest(g, 4) == [-4, 0]

    def test_diamond_takes_least_negative_path(self):
        # u=0, v1=1, v2=2, t=3: both branches enumerated by hand
        g = GameGraph(
            4,
            [MAX] * 4,
            [(0, 1, -2), (0, 2, -5), (1, 3, -1), (2, 3, 0), (3, 3, 0)],
        )
        assert longest(g, 10) == [-3, -1, 0, 0]

    def test_positive_transformed_edge_detected(self):
        # potentials all 0 break entry condition (ii) at vertex 0, whose +1
        # edge into vertex 1 the search relaxes once it settles 1; a pass
        # from an empty forest with roots 0 and 1 gets there, as no checked
        # input does
        g = GameGraph(3, [MAX] * 3, [(0, 1, 1), (1, 2, 0), (2, 2, 0)])
        with pytest.raises(InvariantViolation, match=re.escape("edge (0, 1) has transformed weight 1 > 0")):
            kasi._repair(g, [None] * 3, 5, [0, 0, 0], [-1] * 3, [0, 1], core.deadline_after(None))


def zero_strategy(g):
    return PositionalStrategy(
        MIN, {v: min(u for u, _ in g.out_adjacency[v]) for v in g.vertices_of(MIN)}
    )


class TestEvaluateStrategy:
    def test_fixpoint_at_entry(self):
        g = GameGraph(2, [MAX, MIN], [(0, 0, 0), (1, 1, 1)])
        d = evaluated(g, 7, zero_strategy(g), [0, 0])
        assert d == [0, 0]

    def test_one_player_chain(self):
        g = GameGraph(2, [MAX, MAX], [(0, 1, -5), (1, 1, 0)])
        assert oracle_lwub(g, 5) == [5, 0]
        d = evaluated(g, 5, PositionalStrategy(MIN, {}), [0, 0])
        assert d == [-5, 0]

    def test_draining_cycle_dies(self):
        g = GameGraph(2, [MAX, MAX], [(0, 1, -3), (1, 0, 1)])
        assert oracle_lwub(g, 15) == [INF, INF]
        d = evaluated(g, 15, PositionalStrategy(MIN, {}), [0, 0])
        assert d == [NEG, NEG]

    def test_entry_condition_ii_detected(self):
        g = GameGraph(1, [MAX], [(0, 0, 1)])
        with pytest.raises(PreconditionViolated) as err:
            evaluated(g, 5, PositionalStrategy(MIN, {}), [-1])
        assert err.value.which == "ii"

    def test_entry_condition_i_detected(self):
        # zero-weight cycles: a Max self-loop, a Max 2-cycle beside a -3 loop
        # (the public pair once returned [-inf] and [-inf, -inf] on these
        # two, where d_prev at 0 gives [0] and [-1, 0]), and a ring of 70
        # vertices (the check once skipped cores above 64), alternating Max
        # and Min with Min's choice on the ring and her other edge into B = {70}
        ring = GameGraph(71, [MAX, MIN] * 35 + [MAX], [
            *((v, (v + 1) % 70, 0) for v in range(70)),
            *((v, 70, -1) for v in range(1, 70, 2)),
            (70, 70, 0),
        ])
        for g, choice, d_prev in [
            (GameGraph(1, [MAX], [(0, 0, 0)]), {}, [-1]),
            (GameGraph(2, [MAX, MAX], [(0, 1, -1), (1, 0, 1), (1, 1, -3)]), {}, [-2, -1]),
            (ring, {v: (v + 1) % 70 for v in range(1, 70, 2)}, [-1] * 70 + [0]),
        ]:
            with pytest.raises(PreconditionViolated) as err:
                evaluated(g, 5, PositionalStrategy(MIN, choice), d_prev)
            assert err.value.which == "i"

    def test_evaluation_matches_the_reference(self, rng):
        # on small games from arbitrary d_prev, the public pair returns the
        # reference evaluation's values or rejects an entry condition
        seen = set()
        for _ in range(3000):
            g = random_game(rng, n_max=6)
            strategy = PositionalStrategy(MIN, {v: rng.choice(g.out_adjacency[v])[0] for v in g.vertices_of(MIN)})
            d_prev = [rng.choice([0, -1, -2, -5, NEG]) for _ in range(g.vertex_count)]
            try:
                evaluated(g, 5, strategy, d_prev)
                seen.add("values")
            except PreconditionViolated as err:
                seen.add(err.which)
        assert seen == {"values", "i", "ii"}

    def test_positive_entry_value_detected(self):
        # the public pair rejects such a d_prev before the scan's own test
        g = GameGraph(2, [MAX, MAX], [(0, 1, 0), (1, 1, 0)])
        with pytest.raises(PreconditionViolated, match=re.escape("d(0) = 1 > 0")) as err:
            kasi._entry(g, [None, None], [1, 0])
        assert err.value.which == "ii"

    def test_positive_transformed_edge_ends_the_search(self, monkeypatch):
        # potentials breaking entry condition (ii) at vertex 0, whose +1 loop
        # once raised d(0) by 1 per pop without end; the push count bounds
        # the test instead of hanging it.  The public pair now stops such a
        # d_prev at entry, so one pass is called directly, from an empty
        # forest with vertex 0 its root
        g = GameGraph(2, [MAX, MAX], [(0, 0, 1), (0, 1, 0), (1, 1, 0)])
        pushes = 0

        def counting_push(heap, item):
            nonlocal pushes
            pushes += 1
            if pushes > 1000:
                raise AssertionError("the search did not end")
            heapq.heappush(heap, item)

        monkeypatch.setattr(kasi, "heappush", counting_push)
        with pytest.raises(InvariantViolation, match=re.escape("edge (0, 0) has transformed weight 1 > 0")):
            kasi._repair(g, [None, None], 5, [-1, 0], [-1, -1], [0], core.deadline_after(None))
        with pytest.raises(PreconditionViolated) as err:
            evaluated(g, 5, PositionalStrategy(MIN, {}), [-1, 0])
        assert err.value.which == "ii"


class TestValueVectorLength:
    """The public entry points that take a value vector need one entry per
    vertex; a shorter one used to end in an IndexError, a longer one was
    accepted."""

    GAME = GameGraph(2, [MAX, MIN], [(0, 1, 0), (1, 0, -1)])

    @pytest.mark.parametrize("values", [[0], [0, 0, 0]])
    def test_wrong_length_rejected(self, values):
        g = self.GAME
        strategy = zero_strategy(g)
        with pytest.raises(InvalidSpec, match=f"d_prev has {len(values)} entries for 2 vertices"):
            evaluate_strategy(g, 5, strategy, values)
        with pytest.raises(InvalidSpec, match=f"d has {len(values)} entries for 2 vertices"):
            improve_strategy(g, values, strategy)

    @pytest.mark.parametrize("values, entry", [
        ([5, 0], "[0] = 5"),
        ([True, 0], "[0] = True"),  # a bool is not an int here
        ([0, INF], "[1] = inf"),  # an energy vector where potentials belong
        ([-0.5, 0], "[0] = -0.5"),
        ([0, None], "[1] = None"),
    ], ids=["positive", "bool", "inf", "float", "none"])
    def test_bad_entry_rejected(self, values, entry):
        # on the duel, Min's strategy evaluates to [0, -3] from [0, 0]; from
        # [5, 0] and [True, 0] it once gave [-inf, -inf], from [0, inf] a
        # TypeError
        g, strategy = two_vertex_duel(), PositionalStrategy(MIN, {1: 0})
        assert evaluate_strategy(g, 3, strategy, [0, 0]) == [0, -3]
        with pytest.raises(InvalidSpec, match=re.escape(f"d_prev{entry} is not an int <= 0 or -inf")):
            evaluate_strategy(g, 3, strategy, values)
        with pytest.raises(InvalidSpec, match=re.escape(f"d{entry} is not an int <= 0 or -inf")):
            improve_strategy(g, values, strategy)


class TestImproveStrategy:
    def test_no_switch_on_nonnegative_weights(self):
        g = GameGraph(2, [MIN, MAX], [(0, 1, 2), (0, 0, 0), (1, 1, 0)])
        pi = PositionalStrategy(MIN, {0: 0})
        new, changed = improve_strategy(g, [0, 0], pi)
        assert not changed and new.choice == pi.choice

    def test_direct_switch(self):
        # d(v)=0 and an edge of weight -2 to a zero vertex: 0 > 0 - 2
        g = GameGraph(3, [MIN, MAX, MAX], [(0, 1, 0), (0, 2, -2), (1, 1, 0), (2, 2, 0)])
        new, changed = improve_strategy(g, [0, 0, 0], PositionalStrategy(MIN, {0: 1}))
        assert changed and new.choice[0] == 2

    def test_parallel_edges_collapse_to_mins_pick(self):
        # Min owns the parallels, so the -5 edge is the one traversed, and a
        # lighter parallel of the current choice never counts as a switch
        g = GameGraph(2, [MIN, MAX], [(0, 1, -1), (0, 1, -5), (1, 1, 0)])
        assert oracle_lwub(g, 10) == [5, 0]
        d = evaluated(g, 10, PositionalStrategy(MIN, {0: 1}), [0, 0])
        assert d == [-5, 0]
        new, changed = improve_strategy(g, d, PositionalStrategy(MIN, {0: 1}))
        assert not changed

    def test_tie_breaks_toward_the_lower_target(self):
        # d(3) + w = -2 - 1 and d(2) + w = 0 - 3 tie, the higher target listed first
        g = GameGraph(4, [MIN, MAX, MAX, MAX],
                      [(0, 3, -1), (0, 2, -3), (0, 1, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0)])
        new, changed = improve_strategy(g, [0, 0, 0, -2], PositionalStrategy(MIN, {0: 1}))
        assert changed and new.choice == {0: 2}
        # and in a solve, from the lowest target 1, on weights alone
        g = GameGraph(4, [MIN, MAX, MAX, MAX],
                      [(0, 3, -2), (0, 2, -2), (0, 1, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0)])
        # at bound 10 >= (n - 1) * W = 6 the witness keeps the last strategy
        # alone, at bound 5 the whole sequence
        res = certified(g, 10)
        assert [s.choice for s in res.min_witness.strategies] == [{0: 2}]
        assert res.lwub == oracle_lwub(g, 10) == [2, 0, 0, 0]
        res = certified(g, 5)
        assert [s.choice for s in res.min_witness.strategies] == [{0: 1}, {0: 2}]
        assert res.lwub == oracle_lwub(g, 5) == [2, 0, 0, 0]

    def test_switch_takes_the_lightest_parallel_edge(self):
        # target 2 is reached at -1 and, listed second, -5; at -5 it ties
        # with target 3, listed first, and wins on its lower index
        g = GameGraph(4, [MIN, MAX, MAX, MAX], [
            (0, 3, -5), (0, 2, -1), (0, 2, -5), (0, 1, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0),
        ])
        new, changed = improve_strategy(g, [0] * 4, PositionalStrategy(MIN, {0: 1}))
        assert changed and new.choice == {0: 2}
        assert evaluated(g, 10, new, [0] * 4) == [-5, 0, 0, 0]
        res = certified(g, 10)
        assert [s.choice for s in res.min_witness.strategies] == [{0: 1}, {0: 2}]
        assert res.final_d == [-5, 0, 0, 0]
        assert res.lwub == oracle_lwub(g, 10) == [5, 0, 0, 0]

    def test_revisiting_a_strategy_is_legal(self):
        # the sprand game of seed 7317 (6 vertices, weights -6..6): from the
        # lowest-indexed successors the run goes back and forth at vertex 2,
        # 2->0, then 2->3, then 2->0 again on the shrunken winnable set
        g = GameGraph(6, [MAX, MAX, MIN, MIN, MAX, MAX], [
            (0, 2, -2), (1, 3, 6), (1, 5, -5), (1, 5, 3), (2, 0, 2), (2, 1, 3),
            (2, 3, -4), (3, 4, -3), (4, 1, 3), (5, 0, -3), (5, 0, -2), (5, 1, -1),
        ])
        res = certified(g, 7)
        assert [s.choice[2] for s in res.min_witness.strategies] == [0, 3, 0]
        assert res.iterations == 3
        assert res.lwub == oracle_lwub(g, 7) == [INF, 0, INF, 3, 0, 1]
        assert res.min_witness.death_index == [1, None, 2, None, None, None]


class TestSolveLwub:
    def test_all_nonnegative_weights_need_nothing(self, rng):
        for _ in range(20):
            g = random_game(rng)
            g = GameGraph(g.vertex_count, g.owners, [(u, v, abs(w)) for u, v, w in g.edges])
            res = certified(g, rng.randint(0, 10))
            assert res.lwub == [0] * g.vertex_count
            assert res.iterations == 1

    def test_memory_game_answers(self):
        res = certified(memory_game(), MEMORY_GAME_BOUND)
        assert res.lwub == [0, 12, INF, INF]
        assert res.final_d == [0, -12, NEG, NEG]

    def test_two_vertex_duel(self):
        g = two_vertex_duel()
        assert oracle_lwub(g, 3) == [0, 3]
        assert certified(g, 3).lwub == [0, 3]

    def test_negative_bound_rejected(self):
        with pytest.raises(InvalidSpec, match="bound must be a non-negative int, got -1"):
            solve_lwub(one_vertex_game(0), -1)

    def test_float_bound_rejected(self):
        # an error, not a solve at bound 2
        g = one_vertex_game(-1)
        for solve in (solve_lwub, vi_solve, oracle_lwub):
            with pytest.raises(InvalidSpec, match="got 2.9"):
                solve(g, 2.9)
        with pytest.raises(InvalidSpec, match="got 2.9"):
            evaluate_strategy(g, 2.9, zero_strategy(g), [0])

    def test_differential_at_invariant_scale(self):
        # exhaustive random sampling over |V| <= 8, W <= 4, b <= 12
        import random

        rng = random.Random(5150)
        for _ in range(400):
            g = random_game(rng, n_max=8, w_max=4)
            b = rng.randint(0, 12)
            assert certified(g, b).lwub == oracle_lwub(g, b)


class TestSolveLb:
    def test_zero_loop(self):
        assert certified(one_vertex_game(0)).lwub == [0]

    def test_negative_loop(self):
        assert certified(one_vertex_game(-1)).lwub == [INF]

    def test_two_cycle(self):
        g = GameGraph(2, [MAX, MAX], [(0, 1, 2), (1, 0, -1)])
        assert certified(g).lwub == [0, 1]

    def test_winning_sign_trivials(self):
        g = GameGraph(2, [MAX, MIN], [(0, 1, 3), (1, 0, 0)])
        assert winning_sign(g) == ((0, 1), ())
        assert winning_sign(one_vertex_game(-1)) == ((), (0,))


class TestMaxStrategy:
    def test_nonnegative_self_loop_kept(self):
        res = certified(one_vertex_game(0), 4)
        assert res.max_strategy.choice == {0: 0}

    def test_forest_edge_followed(self):
        g = GameGraph(2, [MAX, MAX], [(0, 1, -2), (1, 1, 0)])
        res = certified(g, 2)
        assert res.max_strategy.choice == {0: 1, 1: 1}

    def test_choice_is_the_first_covering_edge(self, rng):
        # x = -d is an energy progress measure: each Max vertex takes its
        # first out-edge with w + d(u) >= d(v), and every out-edge of a
        # finite Min vertex meets the same inequality
        c11 = generate(_C11_SHAPE)
        solves = [(c11, solve_lb), (c11, lambda g: solve_lwub(g, 20)),
                  (generate(_TORUS), solve_lb), (generate(_PARALLEL), solve_lb)]
        for _ in range(100):
            b = rng.randint(0, 10)
            solves.append((random_game(rng), lambda g, b=b: certified(g, b)))
        for g, solve in solves:
            res = solve(g)
            d = res.final_d
            for v, row in enumerate(g.out_adjacency):
                covering = [u for u, w in row if w + d[u] >= d[v]]
                if g.owners[v] is MAX:
                    assert res.max_strategy.choice[v] == covering[0]
                elif d[v] != NEG:
                    assert len(covering) == len(row)

    def test_fixing_the_strategy_preserves_values(self, rng):
        for _ in range(100):
            g = random_game(rng)
            b = rng.randint(0, 10)
            res = certified(g, b)
            fixed = restrict_to_strategy(g, res.max_strategy)
            against = oracle_lwub(fixed, b)
            for v in range(g.vertex_count):
                if res.lwub[v] != INF:
                    assert against[v] == res.lwub[v]


class TestMinWitness:
    def test_single_losing_loop(self):
        g = one_vertex_game(-1, owner=MIN)
        res = certified(g, 5)
        assert res.lwub == [INF]
        assert len(res.min_witness.strategies) == 1
        trace = verify_min_witness(g, 5, res.min_witness, 0, 100)
        assert len(trace.vertices) <= 101
        assert trace.vertices[0] == 0

    def test_memory_game_segment(self):
        g = memory_game()
        res = certified(g, MEMORY_GAME_BOUND)
        trace = verify_min_witness(g, MEMORY_GAME_BOUND, res.min_witness, 2, MEMORY_GAME_BOUND)
        assert trace.vertices == (2, 3, 2, 0)
        assert trace.min_segment_weight() == -20

    def test_witness_on_random_losing_vertices(self, rng):
        seen = 0
        for _ in range(200):
            g = random_game(rng, n_max=6)
            b = rng.randint(0, 8)
            res = certified(g, b)
            for v in range(g.vertex_count):
                if res.lwub[v] == INF:
                    seen += 1
                    trace = verify_min_witness(g, b, res.min_witness, v, b)
                    assert trace.vertices[0] == v
        assert seen > 50  # the corpus really exercised losing vertices

    def test_min_takes_her_lightest_parallel_edge(self):
        # from energy 3 the -1 loop loses in four steps; a checker that took
        # the first or the heaviest parallel edge, +1, would let Max survive
        g = GameGraph(1, [MIN], [(0, 0, 1), (0, 0, -1)])
        res = certified(g, 3)
        assert res.lwub == [INF]
        trace = verify_min_witness(g, 3, res.min_witness, 0, 3)
        assert trace.vertices == (0, 0, 0, 0, 0)
        assert trace.weights == (-1, -1, -1, -1)

    def test_verify_rejects_winnable_vertex(self):
        g = one_vertex_game(0)
        res = certified(g, 3)
        with pytest.raises(InvalidSpec):
            verify_min_witness(g, 3, res.min_witness, 0, 3)

    def test_broken_witness_is_reported(self):
        # claim vertex 2 of the memory game dies under the strategy that
        # always plays 2 -> 3: Max survives the non-negative 2/3 cycle
        g = memory_game()
        res = certified(g, MEMORY_GAME_BOUND)
        broken = witness_of([PositionalStrategy(MIN, {2: 3})], [None, None, 0, 0])
        with pytest.raises(WitnessIncomplete):
            verify_min_witness(g, MEMORY_GAME_BOUND, broken, 2, MEMORY_GAME_BOUND)

    # the memory game's witness is [{2: 0}, {2: 3}] with death index [None, None, 1, 0]
    @pytest.mark.parametrize("vertex, strategies, death, error, message", [
        (-1, None, None, InvalidSpec, "vertex -1 is not in range(4)"),
        (7, None, None, InvalidSpec, "vertex 7 is not in range(4)"),
        (2.0, None, None, InvalidSpec, "vertex 2.0 is not in range(4)"),
        (2, None, [None, None, 1], InvalidSpec, "death_index has 3 entries for 4 vertices"),
        (2, None, [None, None, -1, 0], InvalidSpec, "death_index[2] = -1 names none of the 2 strategies"),
        (2, None, [None, None, 1.0, 0], InvalidSpec, "death_index[2] = 1.0 names none of the 2 strategies"),
        (2, [PositionalStrategy(MIN, {2: 3})], None, InvalidSpec, "death_index[2] = 1 names none of the 1 strategies"),
        (2, [PositionalStrategy(MIN, {2: 0}), PositionalStrategy(MIN, {2: 1})], None,
         InvalidStrategy, "choice 2 -> 1 is not an edge"),
        (2, [PositionalStrategy(MIN, {2: 0}), PositionalStrategy(MIN, {})], None,
         InvalidStrategy, "strategy domain mismatch (missing [2], extra [])"),
        (2, [PositionalStrategy(MIN, {2: 0}), PositionalStrategy(MAX, {0: 0, 1: 0, 3: 2})], None,
         InvalidStrategy, "expected a Min strategy"),
        (4, None, None, InvalidSpec, "vertex 4 is not in range(4)"),
        (2, None, [None, None, 2, 0], InvalidSpec, "death_index[2] = 2 names none of the 2 strategies"),
        (2, [PositionalStrategy(MIN, {2: 1}), PositionalStrategy(MIN, {2: 3})], None,
         InvalidStrategy, "choice 2 -> 1 is not an edge"),
        (2, [PositionalStrategy(MIN, {0: 1, 2: 0}), PositionalStrategy(MIN, {2: 3})], None,
         InvalidStrategy, "witness strategies cover different vertices"),
    ])
    def test_malformed_witness_rejected(self, vertex, strategies, death, error, message):
        g = memory_game()
        witness = certified(g, MEMORY_GAME_BOUND).min_witness
        witness = witness_of(witness.strategies if strategies is None else strategies,
                             witness.death_index if death is None else death)
        with pytest.raises(error) as err:
            verify_min_witness(g, MEMORY_GAME_BOUND, witness, vertex, MEMORY_GAME_BOUND)
        assert str(err.value) == message

    def test_safe_cycle_beside_a_violation_is_reported(self):
        # Max at 0 loses along the -5 edge but may loop at weight 0 forever;
        # the violation found first must not hide the safe cycle
        g = GameGraph(2, [MAX, MIN], [(0, 0, 0), (0, 1, -5), (1, 1, -1)])
        broken = witness_of([PositionalStrategy(MIN, {1: 1})], [0, 0])
        with pytest.raises(WitnessIncomplete, match="a play may cycle safely through state"):
            verify_min_witness(g, 3, broken, 0, 3)


class TestOneBlockWitness:
    """At a bound of at least ``(n - 1) * W``, every lb solve among them,
    Min's last strategy alone is optimal (``kasi._solve`` proves it), so the
    witness is that one block, with death index 0 at every losing vertex."""

    @staticmethod
    def losing_vertices_checked(g):
        res = certified(g)
        witness = res.min_witness
        assert len(witness.strategies) == 1
        bound = reduction_bound(g)
        assert vi_solve(restrict_to_strategy(g, witness.strategies[0]), bound) == res.lwub
        losing = [v for v in range(g.vertex_count) if res.lwub[v] == INF]
        assert witness.death_index == [0 if v in losing else None for v in range(g.vertex_count)]
        for v in losing:
            verify_min_witness(g, bound, witness, v, bound)
        return len(losing)

    def test_random_games(self, rng):
        losing = sum(self.losing_vertices_checked(random_game(rng, n_max=8, w_max=5)) for _ in range(300))
        assert losing > 100  # the corpus really exercised losing vertices

    @SETTINGS
    @given(games() | games(split=True))
    def test_hypothesis_games(self, game):
        self.losing_vertices_checked(game)

    def test_lwub_below_the_bound_keeps_memory(self):
        g = memory_game()
        b = MEMORY_GAME_BOUND
        assert b < (g.vertex_count - 1) * core.max_abs_weight(g) == 39
        res = certified(g, b)
        strategies = res.min_witness.strategies
        assert len(strategies) > 1
        for strategy in strategies:  # neither block alone beats vertex 2
            assert vi_solve(restrict_to_strategy(g, strategy), b)[2] != INF
        verify_min_witness(g, b, res.min_witness, 2, b)

    def test_certificate_tests_the_trap(self):
        # Max's vertex 0 has an edge into the finite vertex 1, and Min's
        # vertex 2 chooses either 1 or her own -1 loop
        g = GameGraph(3, [MAX, MAX, MIN], [(0, 0, -1), (0, 1, 0), (1, 1, 0), (2, 1, 0), (2, 2, -1)])
        res = certified(g)
        assert res.lwub == [0, 0, INF]
        assert res.min_witness == witness_of([PositionalStrategy(MIN, {2: 2})], [None, None, 0])
        for lwub, choice, edge in [([INF, 0, INF], {2: 2}, "(0, 1)"), ([0, 0, INF], {2: 1}, "(2, 1)")]:
            death = [0 if x == INF else None for x in lwub]
            wrong = replace(res, lwub=lwub, min_witness=witness_of([PositionalStrategy(MIN, choice)], death))
            with pytest.raises(InvariantViolation, match=re.escape(f"edge {edge} leaves the losing set")):
                certify(g, reduction_bound(g), wrong)


class TestEnergyBounds:
    def test_overflow_guard(self):
        # |V| * W = 3 * 2**61 is inside the envelope, (|V|-1) * W * |V| is not
        big = 2**61
        g = GameGraph(3, [MAX, MIN, MAX], [(0, 1, big), (1, 2, 0), (2, 0, -big)])
        from mpgsolve import OverflowRisk

        with pytest.raises(OverflowRisk):
            solve_lb(g)

    def test_finite_answers_stay_under_their_caps(self, rng):
        for _ in range(100):
            g = random_game(rng)
            b = rng.randint(0, 10)
            for x in certified(g, b).lwub:
                assert x == INF or 0 <= x <= b
            n = g.vertex_count
            w = max((abs(w) for _, _, w in g.edges), default=0)
            for x in certified(g).lwub:
                assert x == INF or 0 <= x <= (n - 1) * w


class TestBudgets:
    def test_time_limit_expires(self):
        g = GameGraph(2, [MAX, MAX], [(0, 1, -1), (1, 0, -1)])
        with pytest.raises(TimeLimitExceeded):
            solve_lwub(g, 10**6, time_limit=0.0)

    def test_time_limit_interrupts_the_first_evaluation(self, monkeypatch):
        # The first evaluation of this chain is one search settling all n
        # vertices.  The clock ticks once per heap pop, so a limit of 100
        # ticks expires early inside that search.
        n = 20000
        g = GameGraph(n, [MAX] * n, [(v, v + 1, -1) for v in range(n - 1)] + [(n - 1, n - 1, 0)])
        pops = 0

        def counting_pop(heap):
            nonlocal pops
            pops += 1
            return heapq.heappop(heap)

        monkeypatch.setattr(kasi, "heappop", counting_pop)
        monkeypatch.setattr(core, "time", SimpleNamespace(perf_counter=lambda: pops))
        assert solve_lwub(g, n).lwub[0] == n - 1
        assert pops >= n - 1  # the evaluation
        pops = 0
        with pytest.raises(TimeLimitExceeded):
            solve_lwub(g, n, time_limit=100)
        assert pops <= core.DEADLINE_STRIDE < n // 4

    def test_no_limit_is_a_clock_that_never_expires(self):
        assert core.deadline_after(None)() is None

    @pytest.mark.parametrize("call", [
        lambda g: solve_lb(g, time_limit="1"),
        lambda g: solve_lwub(g, 3, time_limit=(1,)),
        lambda g: vi_solve(g, 3, time_limit=[1]),
    ], ids=["str", "tuple", "list"])
    def test_time_limit_that_is_not_a_number(self, call):
        with pytest.raises(InvalidSpec, match="time limit must be a number"):
            call(memory_game())

    @pytest.mark.parametrize("limit", [-1, -5.0, NEG])
    def test_negative_time_limit(self, limit):
        # not a limit that has already expired: -1 once ended a KASI solve at
        # its first poll, while VI, without a poll on a small game, answered
        for call in (lambda g: solve_lb(g, time_limit=limit), lambda g: vi_solve(g, 15, time_limit=limit)):
            with pytest.raises(InvalidSpec, match=f"time limit must be >= 0, got {limit}"):
                call(memory_game())

    @pytest.mark.parametrize("limit", [True, False])
    def test_time_limit_that_is_a_bool(self, limit):
        # not a limit of 1 s or 0 s
        for call in (lambda g: solve_lb(g, time_limit=limit), lambda g: vi_solve(g, 3, time_limit=limit)):
            with pytest.raises(InvalidSpec, match=f"time limit must be a number, got {limit}"):
                call(memory_game())

    def test_iteration_counts_within_budget(self, rng):
        for _ in range(100):
            g = random_game(rng)
            b = rng.randint(0, 10)
            res = certified(g, b)
            n = g.vertex_count
            w = max((abs(w) for _, _, w in g.edges), default=0)
            assert res.iterations <= n * n * w + 1


def _digests(res):
    texts = (formats.render_values(res.lwub), formats.render_strategy(res.max_strategy),
             formats.render_witness(res.min_witness))
    return tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts)


_C11_SHAPE = GenSpec(family="sprand", n=2000, edge_factor=2.0, seed=0,
                     weight_lo=1, weight_hi=10, shift=6)
_TORUS = GenSpec(family="torus", rows=30, cols=30, seed=0, weight_lo=-5, weight_hi=5)
# 29 parallel pairs, 13 of them at Min vertices; the other pinned games hold one in all
_PARALLEL = GenSpec(family="sprand", n=300, edge_factor=8.0, seed=2, weight_lo=-6, weight_hi=6)


class TestWitnessReplay:
    def test_strategies_and_death_index_replay(self, rng):
        # each recorded strategy, evaluated from the previous values and
        # improved, gives the next; the last improves no further and gives
        # final_d; death_index[v] is the first evaluation sending v to -inf
        c11 = generate(_C11_SHAPE)
        cases = [(c11, reduction_bound(c11)), (c11, 20)]
        cases += [(g, reduction_bound(g)) for g in (generate(_TORUS), generate(_PARALLEL))]
        cases += [(random_game(rng), rng.randint(0, 10)) for _ in range(100)]
        for g, bound in cases:
            res = solve_lwub(g, bound)
            strategies = res.min_witness.strategies
            d = [0] * g.vertex_count
            death = [None] * g.vertex_count
            for k, strategy in enumerate(strategies):
                d = evaluated(g, bound, strategy, d)
                for v, dv in enumerate(d):
                    if dv == NEG and death[v] is None:
                        death[v] = k
                improved, switched = improve_strategy(g, d, strategy)
                if k + 1 < len(strategies):
                    assert switched and improved == strategies[k + 1]
                else:
                    assert not switched
            assert d == res.final_d
            assert res.min_witness.death_index == death


class TestPinnedOutputs:
    """Rendered values, Max strategy and Min witness, byte for byte: SHA-256
    digests recorded from the solver when every evaluation pass was a full
    search, and for the parallel-edge game when every search looked Min's
    lightest parallel weight up per edge.  The strategy digests of the
    first three cases were recorded again when Max's choice came to be
    read off the final values instead of a last full search's forest; the
    two differ only where ``-inf < d < 0``.  The witness digests of the
    three lb cases were recorded again when an lb witness became one
    block: each is the digest of ``"k 0\n"`` plus the last block of the
    sequence the solver recorded before, so the one block is the same last
    strategy.  The witness digests of ``c11-b20`` and ``parallel-b10`` were
    recorded again when each earlier block came to hold only its
    differences from the next; the full-block text of every case is pinned
    apart, by :meth:`test_expanded_witness_unchanged`."""

    @pytest.mark.parametrize("case, solve, want", [
        ("c11-lb", lambda: solve_lb(generate(_C11_SHAPE)),
         (
            "fb2f6991dfd38f97c591634bf1590f7b1505e8e7efac56b54225268c0d51e8dc",
            "e5f7e82e6b8750ea7e44c52e0e46f935e5cdb5abf86f82838c88a277c3eb025c",
            "7377c696293f199e6414981404da222999c323fabbdc38cc4985058ade220805",
        )),
        ("c11-b20", lambda: solve_lwub(generate(_C11_SHAPE), 20),
         (
            "162f54e26b428423d9ef8c80941b720535090648ff19201f820e53f44da64932",
            "492545bf7c102b2c6b122d1b254749c0ec689ee19a429ecb1c27edeacfeb8b77",
            "2777a91b9b98ea8a8cb1a57b899b5a6c46f43b361f49c4f6573a531a199cb6da",
        )),
        ("torus-lb", lambda: solve_lb(generate(_TORUS)),
         (
            "9ff0a77d9b46ae58b4ba4c485f4e5bb960adb831032c2123c3e9d0dcd9ea6fbc",
            "1861c41006b2440c43207ce92f0156e9219c6e748de8e7e3b4a45a69dc6f4202",
            "12110ef03460fcc458a560979af16e99a6af69d8354f8a97ce7659095b3aac83",
        )),
        ("memory", lambda: solve_lwub(memory_game(), MEMORY_GAME_BOUND),
         (
            "da628f192d566a37a7e864e2df3a0eb7c4bcc1ddf732bb9d6860f1ba69252bf6",
            "dca9c049c8bc36c5999422c68a5d6c4d8526ca043ecdfc6f266dcf90834e4cf3",
            "2bea3b3a8fd8798debde95c643138cd6b45f1103cefd84b72daaac2ab13ed07e",
        )),
        ("parallel-lb", lambda: solve_lb(generate(_PARALLEL)),
         (
            "927fae8c8ae20779afd260e9eaf0be2ef9a1dbaf27bc25b3091eab118bca65db",
            "15126d7aff5624f80a43bcd1eee0dce514c1fe9943c298afe5e4cbcfefe63d28",
            "e9c6fede4ed5c866b820fcf994ea1e9cb8819383cb8aa5f62d75e37a4dfaa8a9",
        )),
        ("parallel-b10", lambda: solve_lwub(generate(_PARALLEL), 10),
         (
            "927fae8c8ae20779afd260e9eaf0be2ef9a1dbaf27bc25b3091eab118bca65db",
            "15126d7aff5624f80a43bcd1eee0dce514c1fe9943c298afe5e4cbcfefe63d28",
            "34cfd9db444adf97ec5c3e43243fdc85d8552c0986d9f0e3ceecc8c4708eef0a",
        )),
    ])
    def test_outputs_unchanged(self, case, solve, want):
        assert _digests(solve()) == want

    # the witness digests of the full-block format, before earlier blocks
    # came to hold only their differences from the next
    @pytest.mark.parametrize("case, solve, want", [
        ("c11-lb", lambda: solve_lb(generate(_C11_SHAPE)),
         "7377c696293f199e6414981404da222999c323fabbdc38cc4985058ade220805"),
        ("c11-b20", lambda: solve_lwub(generate(_C11_SHAPE), 20),
         "6ae64d24ef18efe6a500752cdc9a3048a8ce11c60135057882898775b5cf8666"),
        ("torus-lb", lambda: solve_lb(generate(_TORUS)),
         "12110ef03460fcc458a560979af16e99a6af69d8354f8a97ce7659095b3aac83"),
        ("memory", lambda: solve_lwub(memory_game(), MEMORY_GAME_BOUND),
         "2bea3b3a8fd8798debde95c643138cd6b45f1103cefd84b72daaac2ab13ed07e"),
        ("parallel-lb", lambda: solve_lb(generate(_PARALLEL)),
         "e9c6fede4ed5c866b820fcf994ea1e9cb8819383cb8aa5f62d75e37a4dfaa8a9"),
        ("parallel-b10", lambda: solve_lwub(generate(_PARALLEL), 10),
         "8bf2ea2b36da05b75902551bcdd58c8f0324ba6a694189f55c73847d40a7742b"),
    ])
    def test_expanded_witness_unchanged(self, case, solve, want):
        text = expand_witness(formats.render_witness(solve().min_witness))
        assert hashlib.sha256(text.encode()).hexdigest() == want


class TestHeapPops:
    """Heap pops of four pinned solves, counted with a patched ``heappop``.
    They show that a change did the same search work, for both problems, and
    that the searches depend on nothing but their inputs: ``_repair`` seeds
    its region in a fixed order."""

    @staticmethod
    def pops(monkeypatch, solve, game):
        pops = 0

        def counting_pop(heap):
            nonlocal pops
            pops += 1
            return heapq.heappop(heap)

        monkeypatch.setattr(kasi, "heappop", counting_pop)
        solve(game)
        return pops

    @pytest.mark.parametrize("spec, want", [(_C11_SHAPE, 6806), (_TORUS, 3812), (_PARALLEL, 236)])
    def test_pop_counts(self, monkeypatch, spec, want):
        assert self.pops(monkeypatch, solve_lb, generate(spec)) == want

    def test_lwub_pop_count(self, monkeypatch):
        assert self.pops(monkeypatch, lambda g: solve_lwub(g, 20), generate(_C11_SHAPE)) == 4752


class TestIterations:
    """Improvement iterations of three pinned lb solves, counted by the solve
    itself: the number of strategies the solver recorded when an lb witness
    kept one block per iteration."""

    @pytest.mark.parametrize("spec, want", [(_C11_SHAPE, 6), (_TORUS, 12), (_PARALLEL, 4)])
    def test_iteration_counts(self, spec, want):
        assert solve_lb(generate(spec)).iterations == want


class TestSolveStats:
    """The solve's own per-iteration counts: evaluation passes, heap pops,
    fallen values, the size of ``B`` and Min switches, on the criterion-11
    seed-0 game at the lb bound and at bound 20."""

    C11 = GenSpec(family="sprand", n=20000, edge_factor=2.0, seed=0, weight_lo=1, weight_hi=10, shift=6)

    def test_criterion_11_counts(self):
        g = generate(self.C11)
        lb = solve_lb(g).stats
        assert lb.passes == [11, 10, 14, 9, 7, 4, 3, 1, 1, 1]
        assert lb.heap_pops == [18708, 21835, 19064, 11583, 2778, 797, 454, 17, 0, 0]
        assert sum(lb.heap_pops) == 75236
        assert lb.switches == [3348, 1989, 1461, 927, 167, 48, 8, 1, 1, 0]
        assert lb.fallen == [13203, 13905, 13414, 12588, 7585, 1891, 677, 88, 2, 2]
        assert lb.b_size == [6797, 2748, 1786, 1473, 1392, 1380, 1365, 1364, 1364, 1364]
        b20 = solve_lwub(g, 20).stats
        assert b20.passes == [11, 10, 14, 9, 7, 4, 3, 1]
        assert b20.heap_pops == [18436, 17118, 7424, 3402, 933, 206, 129, 20]
        assert sum(b20.heap_pops) == 47668
        assert b20.switches == [3347, 1860, 792, 234, 58, 14, 6, 0]
        assert b20.fallen == [13203, 13752, 10846, 5279, 1628, 489, 163, 39]

    @pytest.mark.parametrize("spec", [_C11_SHAPE, _TORUS, _PARALLEL])
    def test_counts_agree_with_the_solve(self, monkeypatch, spec):
        # one entry per iteration; the pops are every heappop of the solve,
        # and the switches those of the witness's consecutive blocks
        g = generate(spec)
        pops = TestHeapPops.pops(monkeypatch, solve_lb, g)
        res = solve_lwub(g, 10)
        stats = res.stats
        counts = (stats.passes, stats.heap_pops, stats.fallen, stats.b_size, stats.switches)
        assert {len(c) for c in counts} == {res.iterations}
        assert min(stats.passes) >= 1 and stats.switches[-1] == 0
        assert min(stats.fallen) >= 1 and stats.b_size[-1] == res.final_d.count(0)
        blocks = res.min_witness.strategies
        assert stats.switches[:-1] == [
            sum(a.choice[v] != b.choice[v] for v in a.choice) for a, b in zip(blocks, blocks[1:])
        ]
        assert sum(solve_lb(g).stats.heap_pops) == pops

    def test_witness_holds_the_switches_and_one_strategy(self):
        # below (n - 1) * W: one switch entry per Min switch of the solve, and
        # Min's last strategy in full; at lb, that strategy alone
        g = generate(_C11_SHAPE)
        res = solve_lwub(g, 20)
        witness = res.min_witness
        assert len(witness.switches) == res.iterations - 1 > 1
        assert sum(map(len, witness.switches)) == sum(res.stats.switches)
        assert witness.last.choice.keys() == set(g.vertices_of(MIN))
        assert solve_lb(g).min_witness.switches == []


class TestStrategyChecks:
    """Every entry point that takes a Min strategy checks it by calling
    ``core.validate_strategy``, so a bad one fails with that function's
    message."""

    GAME = GameGraph(3, [MAX, MIN, MIN], [(0, 1, 0), (1, 0, -1), (1, 2, 0), (2, 2, 0)])

    def entry_points(self, strategy):
        g = self.GAME
        return [
            lambda: evaluate_strategy(g, 5, strategy, [0, 0, 0]),
            lambda: improve_strategy(g, [0, 0, 0], strategy),
        ]

    def assert_rejected(self, strategy, message):
        with pytest.raises(InvalidStrategy, match=re.escape(message)):
            validate_strategy(self.GAME, strategy, MIN)
        for call in self.entry_points(strategy):
            with pytest.raises(InvalidStrategy) as err:
                call()
            assert str(err.value) == message

    @pytest.mark.parametrize("choice, message", [
        ({1: 0}, "strategy domain mismatch (missing [2], extra [])"),
        ({0: 1, 1: 0, 2: 2}, "strategy domain mismatch (missing [], extra [0])"),
        ({1: 0, 2: 2, 7: 0}, "strategy domain mismatch (missing [], extra [7])"),
        ({1: 1, 2: 2}, "choice 1 -> 1 is not an edge"),
        ({1: 0, 2: 0}, "choice 2 -> 0 is not an edge"),
        ({True: 0, 2: 2}, "choice True -> 0 is not a pair of ints"),
        ({1: 0, 2.0: 2}, "choice 2.0 -> 2 is not a pair of ints"),
        ({1: 0, 2: 2.0}, "choice 2 -> 2.0 is not a pair of ints"),
        ({1: 0, 2: 2, "x": 0, 7: 0}, "choice 'x' -> 0 is not a pair of ints"),
    ])
    def test_bad_choice_rejected(self, choice, message):
        self.assert_rejected(PositionalStrategy(MIN, choice), message)

    def test_max_strategy_rejected(self):
        self.assert_rejected(PositionalStrategy(MAX, {0: 1}), "expected a Min strategy")
