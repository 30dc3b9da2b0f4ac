"""Brute-force ground truth for small instances: an energy-state safety
game over (vertex, clamped energy) pairs whose greatest fixpoint yields the
bounded energy requirement directly from its definition.

No bookkeeping for the "no segment below -b" condition is needed: energy is
clamped at b, and from a clamped state a segment of weight below -b drives
the energy below zero; conversely a play whose clamped energy never drops
below zero contains no such segment and keeps every prefix sum afloat.
These are exactly the two losing conditions of the bounded problem.
"""

from __future__ import annotations

from .core import INF, GameGraph, Owner, check_bound, reduction_bound
from .errors import BudgetExceeded


#: Default ceiling on |V| * (b + 1) states for the safety fixpoint.
DEFAULT_STATE_BUDGET = 10**6


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
    # Max states count their safe successors; Min states need no count.
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
