"""Property tests: KASI, its results certified, and VI, against the
brute-force oracle.
The game strategies reach what ``random_game`` rarely or never draws: games
that are not strongly connected, single-owner games, bound 0, and parallel
edges and self-loops on purpose.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from mpgsolve import GameGraph, Owner, max_abs_weight, oracle_lb, oracle_lwub, vi_solve
from conftest import certified

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
OWNERS = st.sampled_from([Owner.MAX, Owner.MIN])
WEIGHTS = st.integers(-4, 4)


@st.composite
def games(draw, owner=OWNERS, split=False, n_max=6):
    """A game with out-degrees 1..4 and weights in [-4, 4].

    With ``split``, no edge leaves the upper half of the vertices, so a game
    with vertices on both sides is not strongly connected.  Some edges are
    drawn twice with fresh weights, giving parallel edges.
    """
    n = draw(st.integers(2 if split else 1, n_max))
    owners = [draw(owner) for _ in range(n)]
    cut = draw(st.integers(1, n - 1)) if split else 0
    edges = []
    for v in range(n):
        lo = cut if v >= cut else 0
        for u in draw(st.lists(st.integers(lo, n - 1), min_size=1, max_size=4)):
            edges.append((v, u, draw(WEIGHTS)))
    for v, u, _ in draw(st.lists(st.sampled_from(edges), max_size=3)):
        edges.append((v, u, draw(WEIGHTS)))
    return GameGraph(n, owners, edges)


def _self_loops(n):
    """Every vertex keeps a self-loop, and Min and Max alternate."""
    return st.lists(WEIGHTS, min_size=n, max_size=n).map(
        lambda ws: GameGraph(
            n,
            [Owner.MAX if v % 2 else Owner.MIN for v in range(n)],
            [(v, v, w) for v, w in enumerate(ws)] + [(v, (v + 1) % n, -1) for v in range(n)],
        )
    )


@SETTINGS
@given(games(), st.integers(0, 8))
def test_lwub_matches_oracle(game, bound):
    want = oracle_lwub(game, bound)
    assert certified(game, bound).lwub == want
    assert vi_solve(game, bound) == want


@SETTINGS
@given(games(split=True), st.integers(0, 8))
def test_not_strongly_connected(game, bound):
    want = oracle_lwub(game, bound)
    assert certified(game, bound).lwub == want
    assert vi_solve(game, bound) == want


@SETTINGS
@given(games(owner=st.just(Owner.MAX)) | games(owner=st.just(Owner.MIN)), st.integers(0, 8))
def test_single_owner(game, bound):
    want = oracle_lwub(game, bound)
    assert certified(game, bound).lwub == want
    assert vi_solve(game, bound) == want


@SETTINGS
@given(games())
def test_bound_zero(game):
    got = certified(game, 0).lwub
    assert got == oracle_lwub(game, 0)
    assert vi_solve(game, 0) == got
    assert all(x in (0, float("inf")) for x in got)


@SETTINGS
@given(st.integers(1, 5).flatmap(_self_loops), st.integers(0, 8))
def test_self_loops(game, bound):
    want = oracle_lwub(game, bound)
    assert certified(game, bound).lwub == want
    assert vi_solve(game, bound) == want


@SETTINGS
@given(games(n_max=5))
def test_lb_matches_oracle(game):
    want = oracle_lb(game)
    assert certified(game).lwub == want
    # the unbounded answers are the bounded ones at the reduction bound
    assert vi_solve(game, (game.vertex_count - 1) * max_abs_weight(game)) == want
