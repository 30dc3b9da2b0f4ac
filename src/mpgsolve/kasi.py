"""Keep-alive strategy improvement (KASI) solver.

Solves the lower-bound and lower-weak-upper-bound problems: the minimum
initial energy per vertex that lets Max keep the running sum of edge
weights non-negative forever, where for the bounded problem the energy is
truncated at ``b`` (equivalently, no traversed segment may weigh less than
``-b``).

The solver maintains a vector ``d`` with ``-d`` a lower estimate of the
answer: ``d(v)`` is the weight of a longest admissible path from ``v`` to
the candidate set ``B`` of vertices that need no initial energy.  It
iterates two phases until a fixpoint:

* *evaluation* solves the one-player game obtained by fixing Min's current
  positional strategy and restricting to the vertices still presumed
  winnable, via repeated longest-path searches to a shrinking ``B``;
* *improvement* scans every Min vertex and switches her choice wherever
  an edge ``(v, u)`` has ``d(v) > d(u) + w(v, u)``.

Evaluation is incremental, after Ramalingam and Reps ("An incremental
algorithm for a generalization of the shortest-path problem", J. Algorithms
1996): every pass is a repair (:func:`_repair`).  Within a solve values
only fall, so a vertex whose longest-path forest path avoids every *root*
keeps that path and its value; the roots are the vertices that just left
``B`` and, in the first pass after an improvement, the Min vertices that
switched.  A pass resets the forest subtrees below the roots and runs the
one search, :func:`_search`, on them alone, seeded from their edges into
the untouched part.  With no forest (a solve's first evaluation, and every
one of :func:`evaluate_strategy`) one scan, :func:`_entry`, checks the
entry conditions and reads ``B``; the roots are all finite vertices outside
``B``, and the untouched part is ``B`` at 0 and the known-losing vertices
at -inf, whose values are final.  An empty forest has no subtree below a
root, so that pass walks none.

Outside the searches nothing stores ``B``: it is read off ``d``.  A pass
gives its targets 0 and every other vertex a negative value, since a vertex
outside ``B`` has no non-negative restricted edge left.  A ``B`` vertex had
one under the values the pass started from, so it can only lose it along a
restricted edge into a changed value, and one leave test serves every
pass: it reads only the ``B`` vertices with such an edge.  After an
improvement ``B`` is the previous ``B`` minus the switched vertices, as
only a switch gives up a non-negative edge.  A heap entry is the integer
``key * n + v``, which orders as ``(key, v)`` does.

Parallel edges: the evaluation walks a one-player graph, so choices that
really belong to Min must be resolved adversarially.  Min's choice
``pi[v]`` is a ``(u, w)`` pair of the game's own out-adjacency row, her
lightest edge to her target ``u``, and every helper reads her weight off
it.  Max's edges stay as the game lists them: longest paths pick the
heaviest parallel anyway, and Max's strategy is read off them in
adjacency order.

Max wins with a single positional strategy, read off the final ``d`` alone
by :func:`_extract_max_strategy`.  Min's optimal play is a sequence of
positional strategies replayed by per-vertex death index
(:func:`checker.verify_min_witness` checks it).  Below the bound
``(n - 1) * W`` she may need memory, and the solve records her strategy
of every iteration.  At a bound of at least ``(n - 1) * W``, every lb
solve among them, her last strategy alone is optimal (:func:`_solve`
proves it), so the witness is that one block, with death index 0 at
every losing vertex.

The solver checks its own invariants as it goes (entry conditions,
transformed weights, descent, budgets); :func:`checker.certify` checks a
finished result from the answer alone.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from heapq import heapify, heappop, heappush
from itertools import compress
from operator import ne
from typing import Sequence

from .core import (
    DEADLINE_STRIDE,
    INF,
    NEG_INF,
    GameGraph,
    MinWitness,
    Owner,
    PositionalStrategy,
    SolveResult,
    SolveStats,
    check_bound,
    deadline_after,
    max_abs_weight,
    reduction_bound,
    validate_strategy,
)
from .errors import InvalidSpec, InvariantViolation, PreconditionViolated

def _residual(out, pi, v, d):
    """``(best, u)``: the largest ``w + d(u)`` over the strategy-restricted
    out-edges ``(v, u)`` of ``v``, and the first ``u`` reaching it
    (``(-inf, -1)`` when none does).  ``out`` is the game's out-adjacency,
    which the caller reads once."""
    if pi[v] is not None:  # Min's choice, at its weight
        u, w = pi[v]
        return w + d[u], u
    best, arg = NEG_INF, -1
    for u, w in out[v]:
        t = w + d[u]
        if t > best:
            best, arg = t, u
    return best, arg


def _search(game, pi, bound, pot, d, parent, heap, opened, deadline):
    """The longest-path search of :func:`_repair`, by max-priority order.

    Settles the entries of ``heap`` and relaxes the restricted in-edges of
    each settled vertex into the vertices marked in ``opened``, updating
    ``d`` and ``parent`` in place.  It runs backward over in-edges with the
    potential transformation ``w'(x, y) = w(x, y) - pot(x) + pot(y)``; a
    push below the popped key, a positive transformed weight, raises
    InvariantViolation, so keys pop in order and each vertex settles once,
    as in Dijkstra's search.  No checked input reaches it, as every
    evaluation without a forest checks its entry conditions
    (:func:`_entry`) and each pass keeps them.

    A relaxation is rejected when the candidate true weight ``d(y) + w(x,
    y)`` drops below ``-bound``.  The rejection is sound: extending a path
    by the maximal admissible suffix both maximizes its weight and weakens
    no earlier suffix constraint (every suffix of the extended path is
    either the whole path, checked here, or a suffix of the admissible
    sub-path, admissible by induction), and a smaller value at ``y`` can
    only produce a smaller, thus still inadmissible, candidate at ``x``.
    Greedy extraction therefore computes exactly the longest path whose
    every suffix weighs at least ``-bound``, and leaves ``d(x) = -inf``
    when no such path exists.  Returns the number of heap pops.
    """
    n = game.vertex_count
    pred = game.in_adjacency
    pops, poll = 0, DEADLINE_STRIDE
    while heap:
        item = heappop(heap)
        pops += 1
        if pops == poll:  # cheaper than a remainder on every pop
            poll += DEADLINE_STRIDE
            deadline()
        y = item % n
        dy = d[y]
        key = pot[y] - dy
        if item != key * n + y:
            continue  # stale heap entry (lazy deletion)
        for x, _, w in pred[y]:
            if not opened[x]:
                continue
            choice = pi[x]
            if choice is not None:  # Min's tail: her choice, at its weight
                if choice[0] != y:
                    continue  # edge removed by the strategy restriction
                w = choice[1]
            cand = dy + w
            if cand < -bound:
                continue  # admissibility pruning, see above
            if cand > d[x]:
                kx = pot[x] - cand  # below key by the transformed weight
                if kx < key:
                    raise InvariantViolation(f"edge ({x}, {y}) has transformed weight {key - kx} > 0")
                d[x] = cand
                parent[x] = y
                heappush(heap, kx * n + x)
    return pops


def _repair(game, pi, bound, pot, parent, roots, deadline):
    """One evaluation pass: the longest admissible paths to this pass's
    targets, among the vertices whose potential is finite, given ``pot``
    and ``parent``, the values and forest of a previous pass whose targets
    or strategy differed only at ``roots``, distinct vertices, or None, an
    empty forest with every finite vertex outside ``B`` a root (see the
    module docstring).  Values outside the region below the roots must be
    final.  Returns ``(d, parent, changed, pops)``: the values, the new
    forest (``parent`` itself, updated in place, unless it was None), the
    vertices whose value fell and the search's heap pops.  The search is
    :func:`_search`, opened on the region alone and seeded from the
    region's edges out of it.
    """
    pred, out = game.in_adjacency, game.out_adjacency
    n = game.vertex_count
    d = list(pot)
    # the region: the roots and every forest descendant of one
    in_region = bytearray(n)
    region = sorted(roots)  # the seeding below depends on the region's order
    for r in region:
        in_region[r] = 1
    if parent is None:
        parent = [-1] * n  # an empty forest: no root has a descendant
    else:
        for y in region:  # grows while it is walked
            for x, _, _ in pred[y]:
                if parent[x] == y and not in_region[x]:
                    in_region[x] = 1
                    region.append(x)
    for x in region:
        d[x] = NEG_INF
        parent[x] = -1
    # seed each region vertex from its restricted out-edges: values outside
    # the region are final, and a region vertex seeded earlier in this loop
    # already holds its seed (a lower bound on its value), others -inf
    heap = []
    for x in region:
        best, arg = _residual(out, pi, x, d)
        if best >= -bound:
            d[x] = best
            parent[x] = arg
            heap.append((pot[x] - best) * n + x)
    heapify(heap)
    pops = _search(game, pi, bound, pot, d, parent, heap, in_region, deadline)
    return d, parent, [x for x in region if d[x] != pot[x]], pops


def _entry(game, pi, d_prev):
    """``B`` at entry, the vertices at 0 that keep a non-negative restricted
    edge, once the evaluation entry conditions are checked, at every size:

    (ii) d < 0 on D minus A and d(v) >= d(u) + w(v, u) along restricted edges;
    (i)  every cycle of the strategy restriction within D minus A is negative.
    Given (ii), such a cycle weighs at most 0, and exactly 0 only when each
    of its edges is tight, d(v) = d(u) + w(v, u); so (i) holds exactly when
    the tight restricted edges within D minus A form no cycle (Goldberg,
    "Scaling algorithms for the shortest paths problem", 1995).  One pass
    reads each vertex once, one at 0 by a single residual test, so with
    ``d_prev`` all 0, as in a solve's first evaluation, nothing is sorted.
    """
    out = game.out_adjacency
    entry = set()
    tight = {}  # each vertex of D minus A -> the heads of its tight edges
    for v, dv in enumerate(d_prev):
        if dv == 0:
            if _residual(out, pi, v, d_prev)[0] >= 0:
                entry.add(v)
            continue
        if dv == NEG_INF:
            continue
        if dv > 0:
            raise PreconditionViolated("ii", f"d({v}) = {dv} > 0")
        tight[v] = heads = []
        for u, w in out[v] if pi[v] is None else [pi[v]]:
            if dv < d_prev[u] + w:
                raise PreconditionViolated("ii", f"d({v}) < d({u}) + w along edge ({v}, {u})")
            if dv == d_prev[u] + w:
                heads.append(u)
    try:
        TopologicalSorter(tight).prepare()
    except CycleError as exc:
        raise PreconditionViolated("i", f"restriction has a zero-weight cycle through {exc.args[1][0]}") from None
    return entry


def _evaluate(game, pi, bound, d_prev, prev=None, deadline=deadline_after(None)):
    """One strategy evaluation: returns ``(d, parents, passes, pops)``, the
    values and forest of the last pass, the number of passes and their heap
    pops.  ``B`` ends as the vertices with ``d = 0``.

    Every pass is a :func:`_repair`.  ``prev`` is None, or the parents
    that came with ``d_prev`` plus the Min vertices switched since; with
    None the first pass starts from an empty forest (see the module
    docstring), once :func:`_entry` has checked ``d_prev``.  Every pass but
    the last shrinks ``B``, so more than ``max(1, n)`` passes mean a broken
    invariant.
    """
    n, pred, out = game.vertex_count, game.in_adjacency, game.out_adjacency
    if prev is None:
        entry = _entry(game, pi, d_prev)
        # with no forest, every finite vertex outside B is a root
        prev = None, [v for v in range(n) if d_prev[v] != NEG_INF and v not in entry]
    parent, roots = prev
    pot = d_prev
    passes = pops = 0
    while True:
        deadline()
        passes += 1
        if passes > max(1, n):
            raise InvariantViolation(f"evaluation needs more than {passes - 1} passes on {n} vertices")
        d, parent, changed, k = _repair(game, pi, bound, pot, parent, roots, deadline)
        pops += k
        # the leave test (see the module docstring): a vertex at 0 whose
        # restricted edge into a changed value turned negative leaves B when
        # no restricted edge of it stays non-negative; a Min choice is her
        # lightest edge into y, so her lightest parallel triple tests it
        drop = {
            x for y in changed for x, _, w in pred[y]
            if d[x] == 0 and d[y] + w < 0
            and (pi[x][0] == y if pi[x] is not None else _residual(out, pi, x, d)[0] < 0)
        }
        if not drop:
            return d, parent, passes, pops
        pot = d
        roots = drop


def _improve(game, pi, d):
    """Switch Min's choice at every vertex with an improving edge; returns
    the switched vertices.

    Every out-edge of the game is a candidate, and the smallest
    ``(d(u) + w, u)`` wins: the smallest value, then the lowest target
    index, at the lightest of that target's parallel edges.
    """
    switched = []
    out = game.out_adjacency
    for v in compress(range(game.vertex_count), pi):  # Min's vertices
        dv = d[v]
        if dv == NEG_INF:
            continue
        cur = pi[v][0]
        best = None
        for e in out[v]:
            u, w = e
            if u == cur:
                continue  # re-picking the current target is a no-op
            cand = d[u] + w
            if dv > cand and (best is None or (cand, u) < best):
                best, choice = (cand, u), e
        if best is not None:
            pi[v] = choice
            switched.append(v)
    return switched


def _snapshot(pi):
    return PositionalStrategy(Owner.MIN, {v: e[0] for v, e in enumerate(pi) if e is not None})


def _initial_pi(game, strategy):
    """Min's choice per vertex, None at Max's, from ``strategy`` once checked
    by :func:`validate_strategy` to choose an edge at every Min vertex and
    nowhere else: her lightest edge to the chosen target."""
    validate_strategy(game, strategy, Owner.MIN)
    out = game.out_adjacency
    pi = [None] * game.vertex_count
    for v, u in strategy.choice.items():
        pi[v] = min(e for e in out[v] if e[0] == u)
    return pi


def _solve(game, bound, time_limit):
    """KASI on a validated game at a non-negative bound, from Min's
    lowest-indexed successors at their lightest weights.

    At a bound of at least ``(n - 1) * W`` Min's last strategy ``sigma``
    alone is optimal, so the solve keeps no earlier one.  Write ``D_i`` for
    the vertices at -inf after evaluation ``i`` and ``pi_i`` for the
    strategy it evaluated; ``D_i`` only grows.

    * A finite energy of a one-player game on ``n`` vertices with weights
      in ``[-W, W]`` is at most ``(n - 1) * W``, so at such a bound the
      truncation changes no finite answer.
    * Evaluation ``i`` solves the one-player game of ``pi_i`` with
      ``D_{i-1}`` as losing sinks.  A vertex it sends to -inf has no
      restricted successor of finite value, for through that successor its
      energy would be finite, hence within the bound.
    * So ``D_i`` is closed under ``pi_i``'s restricted moves: ``D_i minus
      D_{i-1}`` by the step above, and ``D_{i-1}`` because it was closed
      under ``pi_{i-1}``, which :func:`_improve` left unchanged at -inf.
    * By induction Max loses from every vertex of ``D_i`` against
      ``pi_i``: a play from ``D_i minus D_{i-1}`` loses there or enters
      the closed ``D_{i-1}``, where ``pi_i`` plays as ``pi_{i-1}`` did.
    * The last evaluation is thus ``sigma``'s one-player game with a
      losing trap as sinks, and its values are Max's energies against
      ``sigma``: Min needs no other strategy, and every losing vertex
      starts, and stays, on block 0.

    Below that bound the second step fails, which is why Min needs memory
    there (see :func:`instances.memory_game`).  :func:`checker.certify`
    tests the closure of the final -inf set.  Energy games are
    positionally determined (Chakrabarti, de Alfaro, Henzinger & Stoelinga,
    EMSOFT 2003); this shows that KASI's own last strategy is such a
    positional strategy.
    """
    n = game.vertex_count
    pi = [min(row) if o is Owner.MIN else None for row, o in zip(game.out_adjacency, game.owners)]
    d_prev = [0] * n
    one_block = bound >= (n - 1) * max_abs_weight(game)
    strategies: list[PositionalStrategy] = []
    death: list[int | None] = [None] * n
    prev = None
    stats = SolveStats(passes=[], heap_pops=[], switches=[])
    # d only falls, each iteration after the first lowers some d(v), and
    # d(v) is one of 0, -1, ..., -bound, -inf
    max_main = n * (bound + 1) + 1
    deadline = deadline_after(time_limit)
    for iteration in range(max_main):
        if not one_block:
            strategies.append(_snapshot(pi))
        d, parents, passes, pops = _evaluate(game, pi, bound, d_prev, prev, deadline)
        if iteration > 0 and d == d_prev:
            # every iteration after an improvement must strictly decrease d
            raise InvariantViolation("improvement iteration left d unchanged")
        if not one_block:
            for v in compress(range(n), map(ne, d, d_prev)):
                if d[v] == NEG_INF:
                    death[v] = iteration
        switched = _improve(game, pi, d)
        stats.passes.append(passes)
        stats.heap_pops.append(pops)
        stats.switches.append(len(switched))
        if not switched:
            break
        prev = (parents, switched)
        d_prev = d
    else:
        raise InvariantViolation(f"main loop needs more than {max_main} iterations")
    if one_block:
        strategies = [_snapshot(pi)]
        death = [0 if dv == NEG_INF else None for dv in d]

    return SolveResult(
        lwub=[(-dv if dv != NEG_INF else INF) for dv in d],
        max_strategy=_extract_max_strategy(game, d),
        min_witness=MinWitness(strategies=strategies, death_index=death),
        final_d=d,
        iterations=iteration + 1,
        stats=stats,
    )


def solve_lwub(
    game: GameGraph,
    bound: int,
    *,
    time_limit: float | None = None,
) -> SolveResult:
    """Solve the bounded energy problem for ``game`` at truncation bound
    ``bound``; :func:`checker.certify` checks the result."""
    return _solve(game, check_bound(bound), time_limit)


def solve_lb(
    game: GameGraph,
    *,
    time_limit: float | None = None,
) -> SolveResult:
    """Solve the unbounded problem via the reduction bound ``(|V|-1) * W``."""
    return _solve(game, reduction_bound(game), time_limit)


def winning_sign(game: GameGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Partition vertices into (mean value >= 0, mean value < 0).

    A vertex has non-negative value exactly when its unbounded energy
    requirement is finite.
    """
    res = solve_lb(game)
    nonneg = tuple(v for v in range(game.vertex_count) if res.lwub[v] != INF)
    neg = tuple(v for v in range(game.vertex_count) if res.lwub[v] == INF)
    return nonneg, neg


def _vector(game, values, name):
    """``values`` as a list, once checked to hold one int <= 0 (not a bool)
    or -inf per vertex; raises InvalidSpec."""
    values = list(values)
    if len(values) != game.vertex_count:
        raise InvalidSpec(f"{name} has {len(values)} entries for {game.vertex_count} vertices")
    for v, dv in enumerate(values):
        if not (type(dv) is int and dv <= 0 or dv == NEG_INF):
            raise InvalidSpec(f"{name}[{v}] = {dv!r} is not an int <= 0 or -inf")
    return values


def evaluate_strategy(
    game: GameGraph,
    bound: int,
    strategy: PositionalStrategy,
    d_prev: Sequence,
) -> list:
    """Evaluate a Min strategy: d with -d the bounded energy requirement of
    the one-player restriction to the still-winnable vertices.  ``d_prev``
    needs one int <= 0 or -inf per vertex and the entry conditions (i) and
    (ii) of ``_entry``; one breaking either raises PreconditionViolated."""
    d_prev = _vector(game, d_prev, "d_prev")
    pi = _initial_pi(game, strategy)
    return _evaluate(game, pi, check_bound(bound), d_prev)[0]


def improve_strategy(
    game: GameGraph,
    d: Sequence,
    strategy: PositionalStrategy,
) -> tuple[PositionalStrategy, bool]:
    """Apply the switch condition ``d(v) > d(u) + w(v, u)`` to a Min
    strategy.  ``d`` needs one int <= 0 or -inf per vertex."""
    d = _vector(game, d, "d")
    pi = _initial_pi(game, strategy)
    switched = _improve(game, pi, d)
    return _snapshot(pi), bool(switched)


def _extract_max_strategy(game, d) -> PositionalStrategy:
    """Max's optimal positional strategy, read off the final values ``d``:
    each Max vertex ``v`` takes its first out-edge ``(u, w)`` with
    ``w + d(u) >= d(v)``, the first non-negative edge at ``d = 0``, the
    first edge at ``-inf`` and a tight one in between.  Then ``x = -d`` is
    an energy progress measure (Brim, Chaloupka, Doyen, Gentilini & Raskin,
    "Faster algorithms for mean-payoff games", 2011): at the fixpoint no Min
    switch improves, so every edge out of a finite Min vertex satisfies the
    same inequality, and along any play energy ``e >= -d(v)`` stays
    ``e + w >= -d(u)``; truncation at ``b`` keeps it, as ``d >= -b``.
    """
    choice: dict[int, int] = {}
    out = game.out_adjacency
    for v in game.vertices_of(Owner.MAX):
        dv = d[v]
        for u, w in out[v]:
            if w + d[u] >= dv:
                choice[v] = u
                break
        else:
            raise InvariantViolation(f"vertex {v} has no edge covering d = {dv}")
    return PositionalStrategy(Owner.MAX, choice)
