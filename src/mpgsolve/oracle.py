"""Brute-force ground truth for small instances.

Two independent oracles:

* an energy-state safety game over (vertex, clamped energy) pairs whose
  greatest fixpoint yields the bounded energy requirement directly from its
  definition, and
* full enumeration of both players' positional strategies for the sign of
  the mean value, sound because positional strategies suffice for both.

No bookkeeping for the "no segment below -b" condition is needed: energy is
clamped at b, and from a clamped state a segment of weight below -b drives
the energy below zero; conversely a play whose clamped energy never drops
below zero contains no such segment and keeps every prefix sum afloat.
These are exactly the two losing conditions of the bounded problem.
"""

from __future__ import annotations

from itertools import product

from .core import INF, GameGraph, Owner, check_bound, reduction_bound
from .errors import BudgetExceeded


#: Default ceiling on |V| * (b + 1) states for the safety fixpoint.
DEFAULT_STATE_BUDGET = 10**6

#: Default ceiling on |Max strategies| * |Min strategies| for enumeration.
DEFAULT_PAIR_BUDGET = 10**5


def oracle_lwub(game: GameGraph, bound: int, *, budget: int = DEFAULT_STATE_BUDGET) -> list:
    """Bounded energy requirement via the safety-game greatest fixpoint."""
    bound = check_bound(bound)
    n = game.vertex_count
    width = bound + 1
    needed = n * width
    if needed > budget:
        raise BudgetExceeded(needed, budget)

    is_max = [o is Owner.MAX for o in game.owners]
    out = game.out_adjacency
    safe = bytearray(b"\x01" * needed)  # state id = v * width + e
    # Max states count their safe successors, Min states their unsafe ones.
    succ_count = [0] * needed
    queue = []
    for v in range(n):
        base = v * width
        for e in range(width):
            alive = 0
            doomed = 0
            for u, w in out[v]:
                e2 = e + w
                if e2 > bound:
                    e2 = bound
                if e2 < 0:
                    doomed += 1
                else:
                    alive += 1
            sid = base + e
            if is_max[v]:
                succ_count[sid] = alive
                if alive == 0:
                    safe[sid] = 0
                    queue.append(sid)
            elif doomed:
                safe[sid] = 0
                queue.append(sid)

    inc = game.in_adjacency
    for sid in queue:  # grows while walked; a state joins once, on turning unsafe
        u, e2 = divmod(sid, width)
        for v, _, w in inc[u]:
            base = v * width
            # which source energies reach (u, e2) over this edge, given clamping
            if e2 == bound:
                lo = bound - w
                if lo < 0:
                    lo = 0
                hi = bound
            else:
                lo = hi = e2 - w
                if lo < 0 or lo > bound:
                    continue
            for e in range(lo, hi + 1):
                pid = base + e
                if not safe[pid]:
                    continue
                if is_max[v]:
                    succ_count[pid] -= 1
                    if succ_count[pid] == 0:
                        safe[pid] = 0
                        queue.append(pid)
                else:
                    safe[pid] = 0
                    queue.append(pid)

    result = []
    for v in range(n):
        base = v * width
        for e in range(width):
            if safe[base + e]:
                result.append(e)
                break
        else:
            result.append(INF)
    return result


def oracle_lb(game: GameGraph, *, budget: int = DEFAULT_STATE_BUDGET) -> list:
    """Unbounded energy requirement via the reduction bound (|V|-1) * W."""
    return oracle_lwub(game, reduction_bound(game), budget=budget)


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
