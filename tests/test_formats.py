import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgsolve import (
    GameGraph,
    GenSpec,
    InvalidStrategy,
    MinWitness,
    OverflowRisk,
    Owner,
    ParseError,
    PositionalStrategy,
    ZeroOutDegree,
    generate,
    memory_game,
    parse_game,
    render_game,
    render_strategy,
    render_values,
    render_witness,
    solve_lwub,
)
from mpgsolve import formats
from mpgsolve.core import reduction_bound
from conftest import random_game
from reference import expand_witness

INF = float("inf")


def _assert_parse_error(text, line, reason):
    with pytest.raises(ParseError) as err:
        parse_game(text)
    assert (err.value.line, err.value.reason) == (line, reason)


class TestGameGrammar:
    def test_trivial_game(self):
        g = parse_game("p mpg 1 1\no 0 MAX\ne 0 0 0\n")
        assert g.vertex_count == 1
        assert g.owners == (Owner.MAX,)
        assert g.edges == ((0, 0, 0),)

    def test_comments_and_blank_lines(self):
        text = "c a comment\n\np mpg 1 1\nc another\no 0 MIN\ne 0 0 -2\n"
        assert parse_game(text).owners == (Owner.MIN,)

    def test_missing_owner_line(self):
        _assert_parse_error("p mpg 2 2\no 0 MAX\ne 0 1 1\ne 1 0 1\n", 0, "missing owner line for vertex 1")

    def test_duplicate_header(self):
        _assert_parse_error("p mpg 1 1\np mpg 1 1\no 0 MAX\ne 0 0 0\n", 2, "duplicate header")

    def test_edge_count_mismatch(self):
        _assert_parse_error("p mpg 1 2\no 0 MAX\ne 0 0 0\n", 0, "header announced 2 edges, found 1")

    def test_out_of_range_edge(self):
        _assert_parse_error("p mpg 1 1\no 0 MAX\ne 0 3 0\n", 3, "edge (0, 3) out of range")

    def test_unknown_record(self):
        _assert_parse_error("p mpg 1 1\no 0 MAX\nq 0 0 0\n", 3, "unknown record 'q'")

    # Each of these is rejected by the tokenised path, most of them for a
    # record split over lines, two on one line or a tag out of place; the
    # line loop words the error and names the first offending line.
    @pytest.mark.parametrize("text, line, reason", [
        ("", 0, "missing header"),
        ("c only a comment\n", 0, "missing header"),
        ("o 0 MAX\np mpg 1 1\ne 0 0 0\n", 1, "owner line before header"),
        ("e 0 0 0\np mpg 1 1\no 0 MAX\n", 1, "edge line before header"),
        ("p mpg 1\no 0 MAX\ne 0 0 0\n", 1, "header must be 'p mpg <n> <m>'"),
        ("p mpgx 1 1\no 0 MAX\ne 0 0 0\n", 1, "header must be 'p mpg <n> <m>'"),
        ("p mpg 0 0\n", 1, "header counts out of range"),
        ("p mpg 1 -1\no 0 MAX\n", 1, "header counts out of range"),
        ("p mpg x 1\no 0 MAX\ne 0 0 0\n", 1, "not an integer: 'x'"),
        ("p mpg 1 1\no 0 MAX extra\ne 0 0 0\n", 2, "owner line must be 'o <v> <MAX|MIN>'"),
        ("p mpg 2 2\no 0 MAX\no 1\nMAX\ne 0 1 1\ne 1 0 1\n", 3, "owner line must be 'o <v> <MAX|MIN>'"),
        ("p mpg 2 2\no 0 MAX o 1 MAX\n\ne 0 1 1\ne 1 0 1\n", 2, "owner line must be 'o <v> <MAX|MIN>'"),
        ("p mpg 2 2\no 0 MAX\no 1 MAX\ne 0 1 1\ne 1 0 1 e\n", 5, "edge line must be 'e <u> <v> <w>'"),
        ("p mpg 2 2\no 0 MAX\no 1 MAX\ne 0 1\n1\ne 1 0 1\n", 4, "edge line must be 'e <u> <v> <w>'"),
        ("p mpg 2 2\no 0 MAX\no 1 MAX\ne 0 1 1 e 1 0 1\n", 4, "edge line must be 'e <u> <v> <w>'"),
        ("p mpg 2 2\no 0 MAX\no 0 MIN\ne 0 1 1\ne 1 0 1\n", 3, "duplicate owner for vertex 0"),
        ("p mpg 2 2\no 0 MAX\no 2 MIN\ne 0 1 1\ne 1 0 1\n", 3, "vertex 2 out of range"),
        ("p mpg 2 2\no 0 MAX\no 1 max\ne 0 1 1\ne 1 0 1\n", 3, "unknown owner 'max'"),
        ("p mpg 2 2\no 0 MAX\no 1 MIN\ne 0 1 1.5\ne 1 0 1\n", 4, "not an integer: '1.5'"),
        ("p mpg 2 2\no 0 MAX\no 1 MIN\ne -1 1 1\ne 1 0 1\n", 4, "edge (-1, 1) out of range"),
        ("p mpg 2 2\no 0 MAX\no 1 MIN\ne 0 2 1\ne 1 0 1\n", 4, "edge (0, 2) out of range"),
        ("p mpg 2 2\no 0 MAX\no 1 MIN\ne 0 1 1\ne 2 0 1\n", 5, "edge (2, 0) out of range"),
        ("p mpg 1 0\no 0 MAX\ne 0 0 0\n", 0, "header announced 0 edges, found 1"),
        ("p mpg 2 2\no 0 MAX\no 1 MIN\ne 0 1 1\ne 1 0 1\ne 1 1 1\n", 0, "header announced 2 edges, found 3"),
        ("p mpg 2 2\r\no 0 MAX\r\no 1 MIN\r\ne 0 1 1\r\nx\r\n", 5, "unknown record 'x'"),
        ("p mpg 2 2\n\to 0 MAX\no 1 MIN\ne 0 1 1\n  oo 1 0 1\n", 5, "unknown record 'oo'"),
        ("p mpg 2 2\no 0 MAX\ne 0 1 1\no 1 MIN\ne 1 0 1\np mpg 2 2\n", 6, "duplicate header"),
        ("p mpg 2 2\no 0 MAX\ne 0 1 1\no 1 MIN\ne 1 0 1\n7\n", 6, "unknown record '7'"),
    ])
    def test_error_message_and_line(self, text, line, reason):
        _assert_parse_error(text, line, reason)

    def test_large_rendered_game_skips_the_line_loop(self, monkeypatch):
        g = generate(GenSpec(family="sprand", n=20000, edge_factor=2.0, seed=0,
                             weight_lo=1, weight_hi=10, shift=6))

        def fail(text):
            raise AssertionError("the line loop ran on a well-formed game")

        monkeypatch.setattr(formats, "_raise_line_error", fail)
        assert parse_game(render_game(g)) == g

    def test_zero_out_degree_rejected(self):
        with pytest.raises(ZeroOutDegree):
            parse_game("p mpg 2 1\no 0 MAX\no 1 MIN\ne 0 1 5\n")
        with pytest.raises(ZeroOutDegree):  # a well-formed text with no edge
            parse_game("p mpg 1 0\no 0 MAX\n")

    def test_weight_envelope_guard(self):
        big = 2**62
        text = f"p mpg 2 2\no 0 MAX\no 1 MAX\ne 0 1 {big}\ne 1 0 0\n"
        with pytest.raises(OverflowRisk):
            parse_game(text)

    def test_round_trip_on_generated_corpus(self):
        rng = random.Random(2024)
        families = ["sprand", "torus", "layered", "collect", "supply", "taxi"]
        for i in range(1000):
            family = families[i % len(families)]
            if family == "sprand":
                spec = GenSpec(family=family, n=rng.randint(1, 30),
                               edge_factor=rng.choice([1.0, 2.0, 3.0]),
                               weight_lo=-5, weight_hi=5, seed=i)
            elif family == "torus":
                spec = GenSpec(family=family, rows=rng.randint(2, 5),
                               cols=rng.randint(2, 5), weight_lo=-5, weight_hi=5,
                               added_cycles=rng.randint(0, 2), cycle_len=3, seed=i)
            elif family == "layered":
                spec = GenSpec(family=family, layers=rng.randint(2, 4),
                               width=rng.randint(1, 4), weight_lo=-5, weight_hi=5, seed=i)
            elif family == "collect":
                spec = GenSpec(family=family, grid=2, docks=rng.randint(0, 2),
                               phases=rng.randint(1, 2), seed=i)
            elif family == "supply":
                spec = GenSpec(family=family, sites=rng.randint(1, 3),
                               max_request=rng.randint(1, 2), seed=i)
            else:
                spec = GenSpec(family=family, zones=rng.randint(2, 3), seed=i)
            g = generate(spec)
            assert parse_game(render_game(g)) == g


def _line_parse(text):
    """The line-by-line reading of a well-formed game text: the reference
    for the tokenised path of ``parse_game``."""
    n, owners, edges = None, {}, []
    for raw in text.splitlines():
        fields = raw.split()
        if not fields or fields[0].startswith("c"):
            continue
        if fields[0] == "p":
            n = int(fields[2])
        elif fields[0] == "o":
            owners[int(fields[1])] = Owner(fields[2])
        else:
            edges.append(tuple(int(f) for f in fields[1:]))
    return GameGraph(n, [owners[v] for v in range(n)], edges)


@st.composite
def varied_game_texts(draw):
    """A small game's text as a person might write it: comment and blank
    lines anywhere, runs of spaces and tabs, indented lines, CRLF, leading
    zeros, owners in any order and owner lines among the edge lines."""
    n = draw(st.integers(1, 6))
    owners = [draw(st.sampled_from(["MAX", "MIN"])) for _ in range(n)]
    edges = [(v, draw(st.integers(0, n - 1)), draw(st.integers(-30, 30)))
             for v in range(n) for _ in range(draw(st.integers(1, 3)))]
    draw(st.randoms(use_true_random=False)).shuffle(edges)
    order = draw(st.permutations(range(n)))
    records = [["o", str(v), owners[v]] for v in order]
    # merge the edge lines in, keeping their own order
    for u, v, w in edges:
        at = draw(st.integers(0, len(records)))
        at = max([at] + [i + 1 for i, r in enumerate(records) if r[0] == "e"])
        records.insert(at, ["e", str(u), str(v), str(w)])
    records.insert(0, ["p", "mpg", str(n), str(len(edges))])
    space = st.sampled_from([" ", " ", "  ", "\t", " \t "])
    pad = st.sampled_from(["", "", " ", "\t", " \t"])
    filler = st.sampled_from(["", "   ", "\t", "c", "c a comment", "c 0 1 2", "ce 0 0 0", "  c indented"])
    zeros = draw(st.booleans())
    lines = []
    for fields in records:
        lines.extend(draw(st.lists(filler, max_size=2)))
        if zeros:
            fields = [f"0{f}" if f.isdigit() else f for f in fields]
        lines.append(draw(pad) + "".join(f + draw(space) for f in fields[:-1]) + fields[-1] + draw(pad))
    lines.extend(draw(st.lists(filler, max_size=2)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(varied_game_texts())
def test_tokenised_parse_equals_the_line_loop(text):
    with mock.patch.object(formats, "_raise_line_error", side_effect=AssertionError("line loop ran")):
        got = parse_game(text)
    want = _line_parse(text)
    assert got.vertex_count == want.vertex_count
    assert got.owners == want.owners
    assert got.edges == want.edges
    assert got.out_adjacency == want.out_adjacency
    assert got.in_adjacency == want.in_adjacency


def _edge_order_render(g: GameGraph) -> str:
    """The game text as written by sorting every edge triple."""
    lines = [f"p mpg {g.vertex_count} {len(g.edges)}"]
    lines += [f"o {v} {o.value}" for v, o in enumerate(g.owners)]
    lines += [f"e {u} {v} {w}" for u, v, w in sorted(g.edges)]
    return "\n".join(lines) + "\n"


@st.composite
def shuffled_games(draw):
    """Games with parallel edges, self-loops and negative weights, their
    edges given in shuffled order."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    weight = st.integers(-50, 50)
    owners = draw(st.lists(st.sampled_from(list(Owner)), min_size=n, max_size=n))
    edges = [(v, draw(vertex), draw(weight)) for v in range(n)]  # no vertex is a sink
    edges += draw(st.lists(st.tuples(vertex, vertex, weight), max_size=30))
    u, v = draw(vertex), draw(vertex)
    edges += [(u, v, draw(weight)), (u, v, draw(weight)), (u, v, -1), (u, u, draw(st.integers(-50, -1)))]
    edges += draw(st.lists(st.sampled_from(edges), max_size=5))  # equal triples too
    return GameGraph(n, owners, draw(st.permutations(edges)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(shuffled_games())
def test_render_follows_the_sorted_edge_triples(g):
    assert render_game(g) == _edge_order_render(g)
    assert parse_game(render_game(g)) == g


class TestResultFormat:
    def test_infinite_entries(self):
        text = render_values([0, 12, INF, INF])
        assert text.splitlines() == ["v 0 0", "v 1 12", "v 2 inf", "v 3 inf"]


class TestStrategyFormat:
    def test_empty_strategy_renders_nothing(self):
        assert render_strategy(PositionalStrategy(Owner.MIN, {})) == ""

    def test_round_trip(self):
        s = PositionalStrategy(Owner.MAX, {3: 1, 0: 2})
        assert render_strategy(s).splitlines() == ["s 0 2", "s 3 1"]


class TestWitnessFormat:
    def test_blocks_are_indexed(self):
        res = solve_lwub(memory_game(), 15)
        text = render_witness(res.min_witness)
        lines = text.splitlines()
        assert lines.count("k 0") == 1 and lines.count("k 1") == 1
        assert lines[0] == "k 0"
        assert any(line.startswith("s 2 ") for line in lines)

    def test_earlier_blocks_hold_the_differences(self):
        # FORMAT.md's example: Min owns 1, 3 and 6; strategy 0 differs from 1
        # at vertex 1, and strategy 1 from 2 at vertices 3 and 6
        sequence = [{1: 4, 3: 5, 6: 0}, {1: 2, 3: 5, 6: 0}, {1: 2, 3: 7, 6: 8}]
        witness = MinWitness([PositionalStrategy(Owner.MIN, c) for c in sequence], [None] * 7)
        text = render_witness(witness)
        assert text.splitlines() == ["k 0", "s 1 4", "k 1", "s 3 5", "s 6 0", "k 2", "s 1 2", "s 3 7", "s 6 8"]
        assert expand_witness(text) == _full_blocks(witness)

    def test_round_trip_below_the_reduction_bound(self):
        rng = random.Random(20240917)
        multi = 0
        for _ in range(300):
            g = random_game(rng, n_max=8)
            if reduction_bound(g) == 0:
                continue
            witness = solve_lwub(g, rng.randrange(reduction_bound(g))).min_witness
            text = render_witness(witness)
            assert expand_witness(text) == _full_blocks(witness)
            blocks = text.split("k ")[1:]
            # each iteration but the last switched a vertex
            assert all(block.count("\n") > 1 for block in blocks[:-1])
            multi += len(blocks) > 1
        assert multi > 50  # the corpus really exercised switch lists

    @pytest.mark.parametrize("sequence", [
        [{1: 4, 3: 5}, {1: 2, 3: 5, 6: 0}],
        [{1: 4, 3: 5, 6: 0}, {1: 2, 3: 5}],
        [{1: 4, 3: 5, 7: 0}, {1: 2, 3: 5, 6: 0}],
        [{1: 2, 3: 5, 6: 0}, {1: 2, 6: 0}, {1: 2, 3: 5, 6: 0}],
    ], ids=["missing", "extra", "other", "middle"])
    def test_blocks_on_different_vertices_rejected(self, sequence):
        witness = MinWitness([PositionalStrategy(Owner.MIN, c) for c in sequence], [None] * 8)
        with pytest.raises(InvalidStrategy, match="witness strategies cover different vertices"):
            render_witness(witness)


def _full_blocks(witness):
    """The witness with every strategy in full, as ``render_witness`` wrote
    it before earlier blocks came to hold only their differences."""
    return "".join(f"k {j}\n{render_strategy(s)}" for j, s in enumerate(witness.strategies))
