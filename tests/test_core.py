import random
import tracemalloc
from collections import Counter

import pytest

from mpgsolve import (
    MEMORY_GAME_BOUND,
    DanglingEdge,
    GameGraph,
    InvalidStrategy,
    OverflowRisk,
    Owner,
    PositionalStrategy,
    ValidationError,
    ZeroOutDegree,
    core,
    induced_subgame,
    max_abs_weight,
    memory_game,
    oracle_lwub,
    restrict_to_strategy,
    solve_lb,
    solve_lwub,
    validate,
    vi_solve,
)
from mpgsolve import GenSpec, generate, parse_game, render_game
from mpgsolve.core import SUBGAME_SELF_LOOP_WEIGHT
from conftest import certified, evaluated, random_game

INF = float("inf")


def chain_abc():
    # a -> b -> c -> c
    return GameGraph(
        3,
        [Owner.MAX, Owner.MAX, Owner.MAX],
        [(0, 1, 2), (1, 2, -3), (2, 2, 0)],
    )


class TestValidate:
    """A game is checked once, when it is built."""

    def test_minimal_legal_game(self):
        validate(GameGraph(1, [Owner.MAX], [(0, 0, 0)]))

    def test_single_vertex_without_edges(self):
        with pytest.raises(ZeroOutDegree) as err:
            GameGraph(1, [Owner.MAX], [])
        assert err.value.vertex == 0

    def test_sink_vertex(self):
        with pytest.raises(ZeroOutDegree) as err:
            GameGraph(2, [Owner.MAX, Owner.MIN], [(0, 1, 5)])
        assert err.value.vertex == 1

    def test_dangling_edge(self):
        with pytest.raises(DanglingEdge):
            GameGraph(2, [Owner.MAX, Owner.MIN], [(0, 1, 1), (1, 5, 0)])

    def test_float_weights_are_not_truncated(self):
        # truncated to 2 and -2 this cycle would weigh 0, not -0.2
        with pytest.raises(ValidationError, match="not a triple of ints"):
            GameGraph(2, [Owner.MAX, Owner.MAX], [(0, 1, 2.7), (1, 0, -2.9)])

    def test_no_vertices(self):
        for n in (0, -1):
            with pytest.raises(ValidationError, match="a game needs at least one vertex"):
                GameGraph(n, [], [])

    def test_string_fields_are_not_converted(self):
        with pytest.raises(ValidationError, match="not a triple of ints"):
            GameGraph(2, [Owner.MAX, Owner.MAX], [("0", "1", "3"), (1, 0, 0)])
        with pytest.raises(ValidationError, match="vertex count '2' is not an int"):
            GameGraph("2", [Owner.MAX, Owner.MAX], [(0, 1, 3), (1, 0, 0)])

    def test_edge_that_is_not_a_triple(self):
        for edge in [(0, 1), (0, 1, 1, 1)]:
            with pytest.raises(ValidationError, match="not a triple of ints"):
                GameGraph(2, [Owner.MAX, Owner.MAX], [edge, (1, 0, 0)])

    @pytest.mark.parametrize("owners, edge, error, message", [
        ((Owner.MAX, Owner.MAX), (0, 1), ValidationError, "edge (0, 1) is not a triple of ints"),
        ((Owner.MAX, Owner.MAX), (0, 1, 1, 1), ValidationError, "edge (0, 1, 1, 1) is not a triple of ints"),
        ((Owner.MAX, Owner.MAX), (0, True, 3), ValidationError, "edge (0, True, 3) is not a triple of ints"),
        ((Owner.MAX, Owner.MAX), (0, 1, 2.5), ValidationError, "edge (0, 1, 2.5) is not a triple of ints"),
        ((Owner.MAX, "MAX"), (0, 1, 1), ValidationError,
         "vertex 1 has owner 'MAX', expected Owner.MAX or Owner.MIN"),
        ((Owner.MAX, Owner.MAX), (0, -1, 1), DanglingEdge,
         "edge (0, -1, 1) has an endpoint outside the vertex range"),
        ((Owner.MAX, Owner.MAX), (2, 0, 0), DanglingEdge,
         "edge (2, 0, 0) has an endpoint outside the vertex range"),
        ((Owner.MAX, Owner.MAX), (0, 2, 0), DanglingEdge,
         "edge (0, 2, 0) has an endpoint outside the vertex range"),
        ((Owner.MAX,), (0, 1, 1), ValidationError, "1 owner entries for 2 vertices"),
        ((Owner.MAX, Owner.MIN, Owner.MAX), (0, 1, 1), ValidationError, "3 owner entries for 2 vertices"),
        ((Owner.MAX, Owner.MAX), 5, ValidationError, "edge 5 is not a triple of ints"),
    ], ids=["length-2", "length-4", "bool", "float", "str-owner", "negative-id", "id-out-of-range",
            "head-out-of-range", "one-owner", "three-owners", "not-iterable"])
    def test_each_fault_has_its_own_class_and_message(self, owners, edge, error, message):
        with pytest.raises(ValidationError) as err:
            GameGraph(2, owners, [(0, 1, 0), edge, (1, 0, 0)])
        assert type(err.value) is error
        assert str(err.value) == message

    @pytest.mark.parametrize("owners, edges, error, message", [
        ((Owner.MAX,), [(0, 1, 0), (0, 1)], ValidationError, "1 owner entries for 2 vertices"),
        ((Owner.MAX, Owner.MAX), [(0, 5, 0), (0, 1)], DanglingEdge,
         "edge (0, 5, 0) has an endpoint outside the vertex range"),
        ((Owner.MAX, Owner.MAX), [(0, 1.5, 0), 7], ValidationError, "edge (0, 1.5, 0) is not a triple of ints"),
        ((Owner.MAX, Owner.MAX), [(0, 1, 0), (0, 1), (2, 0, 0)], ValidationError,
         "edge (0, 1) is not a triple of ints"),
    ], ids=["owners-first", "dangling-first", "float-first", "short-first"])
    def test_first_fault_in_input_order(self, owners, edges, error, message):
        # an edge that is not a triple is found while the edges are split
        # into columns, yet every fault before it is still named first
        with pytest.raises(ValidationError) as err:
            GameGraph(2, owners, iter(edges))
        assert type(err.value) is error
        assert str(err.value) == message

    @pytest.mark.parametrize("args, message", [
        ((1, [Owner.MAX], 5), "edges 5 is not iterable"),
        ((1, [Owner.MAX], None), "edges None is not iterable"),
        ((1, 7, [(0, 0, 0)]), "owners 7 is not iterable"),
    ], ids=["edges-int", "edges-none", "owners-int"])
    def test_whole_argument_faults(self, args, message):
        with pytest.raises(ValidationError) as err:
            GameGraph(*args)
        assert type(err.value) is ValidationError
        assert str(err.value) == message

    def test_owner_count_rejected_before_any_row(self):
        # a million rows per direction would take over 100 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="1 owner entries for 1000000 vertices"):
                GameGraph(10**6, [Owner.MAX], [(0, 0, 0)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_weight_envelope(self):
        # |V| * W must stay below 2**63, however the game is built
        GameGraph(2, [Owner.MAX, Owner.MAX], [(0, 1, 2**62 - 1), (1, 0, 0)])
        for w in (2**62, -2**62):
            with pytest.raises(OverflowRisk, match="64-bit accumulation envelope"):
                GameGraph(2, [Owner.MAX, Owner.MAX], [(0, 1, w), (1, 0, 0)])

    def test_construction_validates_once_and_solvers_never(self, monkeypatch):
        calls = 0

        def counting_validate(game):
            nonlocal calls
            calls += 1
            validate(game)

        monkeypatch.setattr(core, "validate", counting_validate)
        g = memory_game()
        assert calls == 1
        solve_lb(g)
        solve_lwub(g, MEMORY_GAME_BOUND)
        vi_solve(g, MEMORY_GAME_BOUND)
        oracle_lwub(g, MEMORY_GAME_BOUND)
        assert calls == 1


class TestRestrict:
    def test_min_choice_removes_other_edges(self):
        g = GameGraph(
            3,
            [Owner.MIN, Owner.MAX, Owner.MAX],
            [(0, 1, 1), (0, 2, 2), (1, 1, 0), (2, 2, 0)],
        )
        restricted = restrict_to_strategy(g, PositionalStrategy(Owner.MIN, {0: 1}))
        assert sorted(restricted.edges) == [(0, 1, 1), (1, 1, 0), (2, 2, 0)]

    def test_empty_strategy_when_no_min_vertices(self):
        g = chain_abc()
        restricted = restrict_to_strategy(g, PositionalStrategy(Owner.MIN, {}))
        assert restricted == g

    def test_memory_game_shape_choice(self):
        # Min vertex 2 with edges to 0 and 3; choosing 3 drops (2, 0)
        from mpgsolve import memory_game

        g = memory_game()
        restricted = restrict_to_strategy(g, PositionalStrategy(Owner.MIN, {2: 3}))
        assert (2, 0, -13) not in restricted.edges
        assert (2, 3, 7) in restricted.edges

    def test_invalid_choice_rejected(self):
        g = chain_abc()
        bad = PositionalStrategy(Owner.MAX, {0: 2, 1: 2, 2: 2})
        with pytest.raises(InvalidStrategy):
            restrict_to_strategy(g, bad)

    def test_partial_domain_rejected(self):
        g = GameGraph(2, [Owner.MIN, Owner.MIN], [(0, 1, 0), (1, 0, 0)])
        with pytest.raises(InvalidStrategy):
            restrict_to_strategy(g, PositionalStrategy(Owner.MIN, {0: 1}))

    def test_restriction_preserves_structure(self, rng):
        for _ in range(50):
            g = random_game(rng)
            min_vs = g.vertices_of(Owner.MIN)
            pi = PositionalStrategy(
                Owner.MIN, {v: min(u for u, _ in g.out_adjacency[v]) for v in min_vs}
            )
            r = restrict_to_strategy(g, pi)
            assert r.vertex_count == g.vertex_count
            assert r.owners == g.owners
            assert set(r.edges) <= set(g.edges)
            for v in range(g.vertex_count):
                if v in pi.choice:
                    assert {u for u, _ in r.out_adjacency[v]} == {pi.choice[v]}
                else:
                    assert r.out_adjacency[v] == g.out_adjacency[v]


class TestInducedSubgame:
    def test_full_set_is_identity(self, rng):
        for _ in range(20):
            g = random_game(rng)
            assert induced_subgame(g, range(g.vertex_count)) == g

    def test_chain_prefix_gets_self_loop(self):
        # chain a -> b -> c -> c; cutting c leaves b with no successor
        sub = induced_subgame(chain_abc(), [0, 1])
        assert sub.vertex_count == 2
        assert sorted(sub.edges) == [(0, 1, 2), (1, 1, SUBGAME_SELF_LOOP_WEIGHT)]

    def test_singleton_is_losing_at_any_bound(self):
        sub = induced_subgame(chain_abc(), [1])
        assert sub.edges == ((0, 0, SUBGAME_SELF_LOOP_WEIGHT),)
        for b in (0, 3, 12):
            assert oracle_lwub(sub, b) == [INF]

    def test_empty_keep_set(self):
        with pytest.raises(ValidationError, match="cannot induce a subgame on the empty vertex set"):
            induced_subgame(chain_abc(), [])

    def test_keep_outside_the_vertex_range(self):
        for v in (-1, 3):
            with pytest.raises(ValidationError, match=f"keep set contains out-of-range vertex {v}"):
                induced_subgame(chain_abc(), [0, v])

    @pytest.mark.parametrize("keep", [[0.0, 1], ["a"], [True, 2], [1, True]])
    def test_keep_entry_that_is_not_an_int(self, keep):
        with pytest.raises(ValidationError, match="which is not an int"):
            induced_subgame(chain_abc(), keep)


class TestAdjacencyLayout:
    """``in_adjacency`` holds a triple equal to each of the game's edges, one
    per edge in input order, and the solver reads it as its predecessor
    lists."""

    @staticmethod
    def games():
        parallel = generate(GenSpec(family="sprand", n=300, edge_factor=8.0, seed=2,
                                    weight_lo=-6, weight_hi=6))
        pairs = [(u, v) for u, v, _ in parallel.edges]
        assert len(set(pairs)) < len(pairs)  # the game has parallel edges
        torus = generate(GenSpec(family="torus", rows=6, cols=7, seed=1, weight_lo=-5, weight_hi=5))
        return [parse_game(render_game(torus)), parallel, induced_subgame(parallel, range(0, 300, 3))]

    def test_in_adjacency_lists_the_edge_triples(self):
        for g in self.games():
            heads = [[] for _ in range(g.vertex_count)]
            for e in g.edges:
                heads[e[1]].append(e)
            for v in range(g.vertex_count):
                assert list(g.in_adjacency[v]) == heads[v]

    def test_solver_reads_the_game_as_built(self):
        # Min traverses her lightest parallel edge, so every answer on the
        # parallel game is the answer on it without her heavier parallels
        g = self.games()[1]
        lightest = {}
        for v, u, w in g.edges:
            if g.owners[v] is Owner.MIN:
                lightest[v, u] = min(w, lightest.get((v, u), w))
        pruned = GameGraph(g.vertex_count, g.owners,
                           [e for e in g.edges if lightest.get(e[:2], e[2]) == e[2]])
        assert len(pruned.edges) < len(g.edges)
        assert max_abs_weight(pruned) == max_abs_weight(g)  # the same lb bound
        assert certified(g) == certified(pruned)
        assert certified(g, 10) == certified(pruned, 10)
        # Min chooses a target she has parallel edges to wherever she has one
        count = Counter(e[:2] for e in g.edges)
        strategy = PositionalStrategy(Owner.MIN, {
            v: max(g.out_adjacency[v], key=lambda e: count[v, e[0]])[0] for v in g.vertices_of(Owner.MIN)
        })
        d_prev = [0] * g.vertex_count
        want = evaluated(pruned, 10, strategy, d_prev)
        assert evaluated(g, 10, strategy, d_prev) == want


class TestImmutableLayout:
    """Every adjacency row and both outer sequences are tuples, so a write
    raises, and each vertex id is one int object wherever the game names it.
    The games have more than 256 vertices, beyond CPython's cache of small
    ints, which would make any two equal small ids one object anyway."""

    @staticmethod
    def games():
        sprand = generate(GenSpec(family="sprand", n=400, edge_factor=3.0, seed=4,
                                  weight_lo=-9, weight_hi=9))
        torus = generate(GenSpec(family="torus", rows=20, cols=20, seed=2, added_cycles=3,
                                 weight_lo=-5, weight_hi=5))
        layered = generate(GenSpec(family="layered", layers=20, width=15, seed=6, added_cycles=2,
                                   weight_lo=-4, weight_hi=6))
        subgame = induced_subgame(torus, random.Random(5).sample(range(400), 300))
        # the torus has no self-loops, so these were patched in
        assert any(u == v for u, v, _ in subgame.edges)
        return [parse_game(render_game(sprand)), sprand, torus, layered, subgame]

    def test_rows_are_tuples_and_writes_raise(self):
        for g in self.games():
            assert g.vertex_count > 256
            for rows in (g.out_adjacency, g.in_adjacency):
                assert type(rows) is tuple
                assert all(type(row) is tuple for row in rows)
                with pytest.raises(TypeError):
                    rows[0] = ()
                with pytest.raises(TypeError):
                    rows[1][0] = rows[1][0]
                with pytest.raises(AttributeError):
                    rows[2].append(rows[2][0])
            for column in (g.tails, g.heads, g.weights):
                assert type(column) is tuple
                with pytest.raises(TypeError):
                    column[0] = 5
            # nor can an attribute be rebound or deleted, which would
            # bypass validate as a write into a row would: the stored
            # fields and the slots the rows fill, and the edge and row
            # properties by name
            values = {"vertex_count": 1, "owners": (), "tails": (0,), "heads": (5,), "weights": (1,),
                      "edges": ((0, 5, 1),), "out_adjacency": ((), ()), "in_adjacency": ((), ()),
                      "_out": ((), ()), "_in": ((), ())}
            assert set(GameGraph.__slots__) < values.keys()
            before = {name: getattr(g, name) for name in values}
            for name, value in values.items():
                with pytest.raises(AttributeError):
                    setattr(g, name, value)
                with pytest.raises(AttributeError):
                    delattr(g, name)
            assert all(getattr(g, name) is was for name, was in before.items() if name != "edges")
            assert g.edges == before["edges"]

    def test_each_vertex_id_is_one_object(self):
        for g in self.games():
            one = {}
            for u, v, _ in g.edges:
                assert one.setdefault(u, u) is u
                assert one.setdefault(v, v) is v
            for row in g.out_adjacency:
                for v, _ in row:
                    assert one[v] is v
            assert len(one) == g.vertex_count > 256


class TestRowsOnFirstRead:
    """A game holds its edges as three columns, and each row set is built on
    first read from them, as the constructor built both before, and then
    kept."""

    @staticmethod
    def eager_rows(n, edges):
        out = [[] for _ in range(n)]
        inc = [[] for _ in range(n)]
        for e in edges:
            u, v, w = e
            out[u].append((v, w))
            inc[v].append(e)
        return tuple(map(tuple, out)), tuple(map(tuple, inc))

    def test_first_read_builds_the_rows_and_keeps_them(self):
        games = TestImmutableLayout.games() + TestAdjacencyLayout.games()
        for k, g in enumerate(games):
            # generating, parsing, cutting and rendering read no row
            render_game(g)
            max_abs_weight(g)
            assert g._out is None and g._in is None
            out, inc = self.eager_rows(g.vertex_count, g.edges)
            if k % 2:  # either row set may be read first
                assert g.in_adjacency == inc
            assert g.out_adjacency == out
            assert g.in_adjacency == inc
            assert g.out_adjacency is g.out_adjacency is g._out
            assert g.in_adjacency is g.in_adjacency is g._in

    def test_edges_and_rows_keep_input_order(self):
        # the triples as given, parallel edges and self-loops included, come
        # back from edges and the rows in the order they went in, whether
        # built directly or parsed from a text that lists them unsorted
        rng = random.Random(3)
        n = 300
        edges = [(u, (u + 1) % n, rng.randint(-5, 5)) for u in range(n)]
        edges += [(rng.randrange(n), rng.randrange(n), rng.randint(-5, 5)) for _ in range(900)]
        edges += [edges[7], (12, 12, 0), (12, 12, -3)]
        owners = [rng.choice([Owner.MAX, Owner.MIN]) for _ in range(n)]
        text = "".join([f"p mpg {n} {len(edges)}\n",
                        *(f"o {v} {o.value}\n" for v, o in enumerate(owners)),
                        *(f"e {u} {v} {w}\n" for u, v, w in edges)])
        for g in (GameGraph(n, owners, edges), parse_game(text)):
            assert (g.tails, g.heads, g.weights) == tuple(zip(*edges))
            assert g.edges == tuple(edges)
            out, inc = self.eager_rows(n, edges)
            assert g.in_adjacency == inc
            assert g.out_adjacency == out
            assert render_game(g) == render_game(GameGraph(n, owners, sorted(edges)))

    def test_a_game_no_search_reads_holds_its_edges_alone(self):
        # three column slots per edge and a share of the vertex ids and
        # owners: about 44 B, plus the tuples CPython keeps for reuse
        # after the generator's triples are freed, against 91 B when a game
        # held one triple per edge
        spec = GenSpec(family="sprand", n=5000, edge_factor=2.0, seed=0, weight_lo=1, weight_hi=10, shift=6)
        tracemalloc.start()
        try:
            g = generate(spec)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert g._out is None and g._in is None
        assert {w for _, _, w in g.edges} == set(range(-5, 5))
        assert held / len(g.edges) <= 60


class TestWeights:
    def test_max_abs_weight(self):
        g = GameGraph(2, [Owner.MAX, Owner.MAX], [(0, 1, -3), (1, 0, 2)])
        assert max_abs_weight(g) == 3
        assert max_abs_weight(GameGraph(1, [Owner.MAX], [(0, 0, 0)])) == 0
        g = GameGraph(2, [Owner.MAX, Owner.MAX], [(0, 1, -10000), (1, 0, 9999)])
        assert max_abs_weight(g) == 10000
