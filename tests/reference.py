"""Test-only references, kept apart from the package they check.

* :func:`oracle_value_sign`, full enumeration of both players' positional
  strategies for the sign of the mean value, sound because positional
  strategies suffice for both: criterion 4's reference for
  ``winning_sign``;
* :func:`vi_step`, one synchronous value-iteration round over a
  :class:`ViState`, the textbook iteration on which the k-step semantics
  are tested; iterated, it reaches ``vi_solve``'s fixpoint;
* :func:`one_vertex_game`, the minimal legal game;
* :func:`expand_witness`, a rendered witness with every block in full,
  the format before earlier blocks came to hold only their differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from mpgsolve.core import GameGraph, Owner
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
