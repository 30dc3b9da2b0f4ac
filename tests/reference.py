"""Test-only references, kept apart from the package they check.

* :func:`oracle_value_sign`, full enumeration of both players' positional
  strategies for the sign of the mean value, sound because positional
  strategies suffice for both: criterion 4's reference for
  ``winning_sign``;
* :func:`vi_step`, one synchronous value-iteration round over a
  :class:`ViState`, the textbook iteration on which the k-step semantics
  are tested; iterated, it reaches ``vi_solve``'s fixpoint;
* :func:`longest_paths`, longest admissible paths to a target set by one
  Dijkstra-style search, and :func:`reference_evaluation`, a strategy
  evaluation by such searches from the whole candidate set until it stops
  shrinking: the references for ``evaluate_strategy``, whose passes
  repair a forest instead;
* :func:`one_vertex_game`, the minimal legal game;
* :func:`expand_witness`, a rendered witness with every block in full,
  the format before earlier blocks came to hold only their differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import product

from mpgsolve.core import NEG_INF, GameGraph, Owner, PositionalStrategy
from mpgsolve.errors import BudgetExceeded
from mpgsolve.value_iteration import _value


#: Default ceiling on |Max strategies| * |Min strategies| for enumeration.
DEFAULT_PAIR_BUDGET = 10**5


def _positional_choices(game: GameGraph, player: Owner) -> tuple[list[int], list[list[int]]]:
    vertices = game.vertices_of(player)
    options = [sorted({u for u, _ in game.out_adjacency[v]}) for v in vertices]
    return vertices, options


def _cycle_totals(n, nxt, wnxt):
    """Total weight of the cycle eventually reached from each vertex of a
    functional graph (its sign equals the sign of the cycle mean)."""
    totals: list = [None] * n
    state = [0] * n  # 0 unseen, 1 on stack, 2 done
    for s in range(n):
        if state[s]:
            continue
        path = []
        v = s
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            v = nxt[v]
        if state[v] == 1:
            # found a fresh cycle; add up its edge weights
            i = path.index(v)
            total = sum(wnxt[u] for u in path[i:])
            for u in path[i:]:
                totals[u] = total
                state[u] = 2
            tail = path[:i]
        else:
            tail = path
        for u in reversed(tail):
            totals[u] = totals[nxt[u]]
            state[u] = 2
    return totals


def oracle_value_sign(
    game: GameGraph, *, budget: int = DEFAULT_PAIR_BUDGET
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sign partition of the mean value by strategy enumeration.

    A vertex has value >= 0 iff some Max positional strategy forces, against
    every Min positional strategy, a non-negative cycle in the doubly
    restricted functional graph.
    """
    n = game.vertex_count
    max_vs, max_opts = _positional_choices(game, Owner.MAX)
    min_vs, min_opts = _positional_choices(game, Owner.MIN)
    pairs = 1
    for opts in max_opts + min_opts:
        pairs *= len(opts)
        if pairs > budget:
            raise BudgetExceeded(pairs, budget, what="strategy pairs")

    # Max traverses the heaviest parallel edge, Min the lightest.
    best_w = [dict() for _ in range(n)]
    for v in range(n):
        take_max = game.owners[v] is Owner.MAX
        for u, w in game.out_adjacency[v]:
            cur = best_w[v].get(u)
            if cur is None or (w > cur if take_max else w < cur):
                best_w[v][u] = w

    nonneg = [False] * n
    nxt = [0] * n
    wnxt = [0] * n
    for sigma in product(*max_opts):
        for v, u in zip(max_vs, sigma):
            nxt[v] = u
            wnxt[v] = best_w[v][u]
        good = [True] * n
        for pi in product(*min_opts):
            for v, u in zip(min_vs, pi):
                nxt[v] = u
                wnxt[v] = best_w[v][u]
            totals = _cycle_totals(n, nxt, wnxt)
            for v in range(n):
                if totals[v] < 0:
                    good[v] = False
        for v in range(n):
            if good[v]:
                nonneg[v] = True
    return (
        tuple(v for v in range(n) if nonneg[v]),
        tuple(v for v in range(n) if not nonneg[v]),
    )


@dataclass
class ViState:
    """Current vector plus the vertices whose value may still increase."""

    d: list
    dirty: set[int] = field(default_factory=set)

    @classmethod
    def initial(cls, game: GameGraph) -> "ViState":
        return cls(d=[0] * game.vertex_count, dirty=set(range(game.vertex_count)))


def vi_step(game: GameGraph, bound: int, state: ViState) -> ViState:
    """One synchronous update round over the dirty vertices.

    Vertices outside the dirty set cannot change (no successor moved last
    round), so iterating from the all-dirty initial state reproduces the
    plain simultaneous iteration exactly.
    """
    out = game.out_adjacency
    inc = game.in_adjacency
    is_max = [o is Owner.MAX for o in game.owners]
    d = state.d
    new_d = list(d)
    grew = []
    for v in state.dirty:
        x = _value(out[v], d, bound, is_max[v])
        if x > d[v]:
            new_d[v] = x
            grew.append(v)
    dirty = set()
    for v in grew:
        for u, _, _ in inc[v]:
            dirty.add(u)
    return ViState(d=new_d, dirty=dirty)


def one_vertex_game(loop_weight: int, owner: Owner = Owner.MAX) -> GameGraph:
    """The minimal legal game: a single vertex with one self-loop."""
    return GameGraph(1, [owner], [(0, 0, loop_weight)])


def expand_witness(text: str) -> str:
    """The witness ``text`` with every block in full: the last block is
    read as a whole strategy, and each earlier block is laid over the
    expanded block after it."""
    blocks = []
    for line in text.splitlines():
        if line.startswith("k "):
            blocks.append([])
        else:
            blocks[-1].append(line)
    choice, full = {}, []
    for lines in reversed(blocks):
        for line in lines:
            _, v, u = line.split()
            choice[int(v)] = int(u)
        full.append("".join(f"s {v} {u}\n" for v, u in sorted(choice.items())))
    return "".join(f"k {j}\n{body}" for j, body in enumerate(reversed(full)))


def longest_paths(game: GameGraph, pi: list, bound: int, targets: set, pot: list) -> list:
    """Longest admissible paths to ``targets``, by max-priority search.

    ``pi[v]`` is Min's ``(u, w)`` choice at ``v``, None at a Max vertex.
    The search starts from the targets at 0 and runs backward over
    restricted in-edges into every other vertex whose potential is finite;
    one at ``-inf`` is known losing.  Keys are ``pot(x) - d(x)``, so the
    transformed weights ``w(x, y) - pot(x) + pot(y)`` must be non-positive
    for a Dijkstra-style settle order, and a relaxation whose candidate
    ``d(y) + w(x, y)`` drops below ``-bound`` is rejected: every suffix of
    an admissible path weighs at least ``-bound``.
    """
    n = game.vertex_count
    d = [NEG_INF] * n
    settled = [False] * n
    heap = []
    for t in sorted(targets):
        d[t] = 0
        heappush(heap, (pot[t], t))
    while heap:
        key, y = heappop(heap)
        if settled[y]:
            continue
        settled[y] = True
        for x, _, w in game.in_adjacency[y]:
            if x in targets or pot[x] == NEG_INF:
                continue
            if pi[x] is not None:
                if pi[x][0] != y:
                    continue
                w = pi[x][1]
            cand = d[y] + w
            if -bound <= cand and cand > d[x]:
                assert pot[x] - cand >= key, f"edge ({x}, {y}) has a positive transformed weight"
                d[x] = cand
                heappush(heap, (pot[x] - cand, x))
    assert all(dv <= pv for dv, pv in zip(d, pot)), "a value exceeds its potential"
    return d


def reference_evaluation(game: GameGraph, bound: int, strategy: PositionalStrategy, d_prev: list) -> list:
    """``evaluate_strategy``'s values from valid entry values ``d_prev``:
    each pass is one :func:`longest_paths` from ``B``, the vertices at 0
    that keep a non-negative restricted edge, with the previous values as
    potentials, until ``B`` stops shrinking."""
    out = game.out_adjacency
    pi = [None] * game.vertex_count
    for v, u in strategy.choice.items():
        pi[v] = (u, min(w for t, w in out[v] if t == u))

    def keeps(v, d):
        return any(w + d[u] >= 0 for u, w in (out[v] if pi[v] is None else [pi[v]]))

    targets = {v for v, dv in enumerate(d_prev) if dv == 0 and keeps(v, d_prev)}
    d = list(d_prev)
    while True:
        d = longest_paths(game, pi, bound, targets, d)
        left = {v for v in targets if not keeps(v, d)}
        if not left:
            return d
        targets -= left
