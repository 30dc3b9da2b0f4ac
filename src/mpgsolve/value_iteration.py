"""Value-iteration baseline for the bounded energy problem.

Iterates, from the all-zero vector, the update

    x = min over edges (v, u) of max(0, d(u) - w(v, u))   at Max vertices,
    x = max over edges (v, u) of max(0, d(u) - w(v, u))   at Min vertices,

storing infinity as soon as x exceeds the bound, until two consecutive
vectors agree.  After k rounds ``d_k(v)`` is the minimum initial energy
surviving a k-step play, so the fixpoint is the bounded energy requirement,
and at the reduction bound ``(|V|-1) * W`` it solves the unbounded problem.

:func:`vi_solve` is the counter-based lifting algorithm of Brim, Chaloupka,
Doyen, Gentilini and Raskin ("Faster algorithms for mean-payoff games",
FMSD 2011).  A popped vertex passes its value to its predecessors once, as
``told``.  A Min predecessor rises at once to the larger successor value.  A
Max predecessor keeps the number of out-edges that still justify its value,
and rescans its out-edges only when that number reaches zero.  Values never
fall and ``told <= d`` holds throughout, so no value passes the least
fixpoint, and an empty worklist leaves every vertex consistent.
"""

from __future__ import annotations

from collections import deque

from .core import DEADLINE_STRIDE, INF, GameGraph, Owner, check_bound, deadline_after


def _value(out_v, d, bound, minimize):
    best = None
    for u, w in out_v:
        c = d[u] - w
        if c < 0:
            c = 0
        if best is None:
            best = c
        elif minimize:
            if c < best:
                best = c
        elif c > best:
            best = c
    if best is None or best > bound:
        return INF
    return best


def vi_solve(
    game: GameGraph,
    bound: int,
    *,
    time_limit: float | None = None,
    stats: dict | None = None,
) -> list:
    """Iterate to the fixpoint with counters; returns the bounded energy
    requirement.  ``stats["iterations"]`` receives the worklist pops."""
    bound = check_bound(bound)
    deadline = deadline_after(time_limit)
    n = game.vertex_count
    out = game.out_adjacency
    inc = game.in_adjacency
    is_max = [o is Owner.MAX for o in game.owners]
    # told[v] is the value v last passed to its predecessors; count[p], at a
    # Max vertex, is the number of out-edges (p, u, w) with told[u] - w <= d[p]
    told = [0] * n
    d = [_value(out[v], told, bound, is_max[v]) for v in range(n)]
    count = [0] * n
    for v in range(n):
        if is_max[v]:
            x = d[v]
            count[v] = sum(1 for _, w in out[v] if -w <= x)
    queue = deque(v for v in range(n) if d[v] > 0)
    in_queue = bytearray(n)
    for v in queue:
        in_queue[v] = 1
    pops, poll = 0, DEADLINE_STRIDE
    while queue:
        v = queue.popleft()
        in_queue[v] = 0
        pops += 1
        if pops == poll:  # cheaper than a remainder on every pop
            poll += DEADLINE_STRIDE
            deadline()
        old = told[v]
        new = told[v] = d[v]
        for p, _, w in inc[v]:
            x = new - w
            dp = d[p]
            if x <= dp:  # also when d[p] is infinity, which is final
                continue
            if is_max[p]:
                if old - w > dp:  # the edge was not counted
                    continue
                c = count[p] - 1
                if c:
                    count[p] = c
                    continue
                # no out-edge justifies d[p] any more: rescan for the new
                # minimum, which exceeds d[p] >= 0, and its multiplicity
                best = INF
                c = 0
                for u, wu in out[p]:
                    y = told[u] - wu
                    if y < best:
                        best = y
                        c = 1
                    elif y == best:
                        c += 1
                d[p] = best if best <= bound else INF
                count[p] = c
            else:
                # Min maximises, so one larger successor raises her at once
                d[p] = x if x <= bound else INF
            if not in_queue[p]:
                in_queue[p] = 1
                queue.append(p)
    if stats is not None:
        stats["iterations"] = pops
    return d
