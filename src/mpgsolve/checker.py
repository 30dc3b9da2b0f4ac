"""Checks of a solve's answer, apart from the solver.

:func:`certify` checks a whole result: that every value is the minimum
sufficient energy, that Max's strategy achieves it, and that Min's witness
wins wherever Max loses.  :func:`verify_min_witness` replays Min's witness
from one losing vertex and returns a losing play.  Both read only the game
and the result, core types all, and work out Min's moves themselves, taking
her lightest edge to each chosen target, so a fault in the solver's own
reading of a game cannot hide from them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

from .core import INF, GameGraph, MinWitness, Owner, SolveResult, check_bound, max_abs_weight, validate_strategy
from .errors import InvalidSpec, InvalidStrategy, InvariantViolation, WitnessIncomplete


@dataclass(frozen=True)
class ViolationTrace:
    """A losing play prefix: vertices visited and the edge weights taken."""

    vertices: tuple[int, ...]
    weights: tuple[int, ...]

    def min_segment_weight(self) -> int:
        best = 0
        running = 0
        for w in self.weights:
            running = min(running, 0) + w
            best = min(best, running)
        return best


def _check_witness(game: GameGraph, witness: MinWitness) -> None:
    """Raise InvalidSpec unless the death index has one entry per vertex,
    each None or the index of a block, and InvalidStrategy unless the last
    strategy is a Min strategy of the game and every switch one of its
    vertices' edges, so that every block is a Min strategy too."""
    n = game.vertex_count
    death = witness.death_index
    if len(death) != n:
        raise InvalidSpec(f"death_index has {len(death)} entries for {n} vertices")
    k = len(witness.switches) + 1
    for v, j in enumerate(death):
        if j is not None and (type(j) is not int or not 0 <= j < k):
            raise InvalidSpec(f"death_index[{v}] = {j!r} names none of the {k} strategies")
    validate_strategy(game, witness.last, Owner.MIN)
    last, out = witness.last.choice, game.out_adjacency
    for block in witness.switches:
        for v, u in block.items():
            if not type(v) is type(u) is int:
                raise InvalidStrategy(f"choice {v!r} -> {u!r} is not a pair of ints")
            if v not in last:
                raise InvalidStrategy("witness strategies cover different vertices")
            if all(t != u for t, _ in out[v]):
                raise InvalidStrategy(f"choice {v} -> {u} is not an edge")


def _explore(game: GameGraph, bound: int, witness: MinWitness, starts):
    """Every state ``(vertex, clamped energy, block index)`` Max can reach
    from ``starts`` against the witness, breadth first.

    Min plays the block indexed by the death index of the current losing
    region, switching only to lower indices, along her lightest parallel
    edge to its target; Max branches over all edges.  The blocks are
    expanded to full strategies here, once.  Energy is clamped to
    ``bound`` from above, and with that clamp a traversed segment of weight
    below ``-bound`` is exactly a drop of the clamped energy below zero, so
    a single absorbing "violated" outcome covers both losing conditions.
    Max survives from some start exactly when the explored graph of
    non-violated states has a cycle, which raises WitnessIncomplete.
    Returns ``(parent, violation)``: each state's predecessor and the
    weight taken from it, and the first violating move found, as ``(state,
    final vertex, final weight)``, or None.
    """
    death = witness.death_index
    choice = [s.choice for s in witness.strategies]
    out = game.out_adjacency
    owners = game.owners
    parent = dict.fromkeys(starts)  # state -> (state before, weight taken)
    kids = {}  # state -> its non-violated successor states
    violation = None
    queue = list(parent)
    for state in queue:  # grows while it is walked
        v, e, j = state
        moves = out[v]
        if owners[v] is Owner.MIN:
            u = choice[j][v]
            moves = [(u, min(w for t, w in moves if t == u))]
        kids[state] = row = []
        for u, w in moves:
            e2 = min(e + w, bound)
            if e2 < 0:
                if violation is None:
                    violation = (state, u, w)
                continue
            du = death[u]
            nxt = (u, e2, j if du is None or du >= j else du)
            row.append(nxt)
            if nxt not in parent:
                parent[nxt] = (state, w)
                queue.append(nxt)
    try:
        TopologicalSorter(kids).prepare()
    except CycleError as exc:
        raise WitnessIncomplete(f"a play may cycle safely through state {exc.args[1][0]}") from None
    return parent, violation


def verify_min_witness(
    game: GameGraph,
    bound: int,
    witness: MinWitness,
    vertex: int,
    credit: int,
) -> ViolationTrace:
    """Check that the witness beats every Max behavior from a losing vertex.

    Explores Min's playback (see :func:`_explore`) from the one state
    ``(vertex, min(credit, bound), death_index[vertex])``; the states are
    explored breadth first, so the play returned is a shortest one.

    Returns one violating play; raises WitnessIncomplete when some Max
    behavior survives, which signals an implementation bug.  A vertex out
    of range or a malformed witness raises InvalidSpec, and a block that
    is not a Min strategy of the game InvalidStrategy.
    """
    bound = check_bound(bound)
    check_bound(credit, "credit")
    n = game.vertex_count
    if type(vertex) is not int or not 0 <= vertex < n:
        raise InvalidSpec(f"vertex {vertex!r} is not in range({n})")
    _check_witness(game, witness)
    j = witness.death_index[vertex]
    if j is None:
        raise InvalidSpec(f"vertex {vertex} is not losing; nothing to verify")
    start = (vertex, min(credit, bound), j)
    parent, violation = _explore(game, bound, witness, [start])
    if violation is None:
        raise WitnessIncomplete("exploration found no violating play")
    state, u, w = violation
    vertices, weights = [u], [w]
    while state != start:
        vertices.append(state[0])
        state, w = parent[state]
        weights.append(w)
    vertices.append(vertex)
    return ViolationTrace(tuple(reversed(vertices)), tuple(reversed(weights)))


def certify(game: GameGraph, bound: int, result: SolveResult) -> None:
    """Check a solve of ``game`` at ``bound`` from its answer alone; raises
    InvariantViolation when the answer is wrong.

    Write ``x`` for ``result.lwub``.  Every finite ``x`` must be an int in
    ``[0, bound]``, and the death index must be None exactly where ``x`` is.

    * **x is not too low**, one pass over the edges: at a finite Max vertex
      the chosen edge, at its heaviest parallel weight, and at a finite Min
      vertex every edge, leads to a finite ``x(u)`` with ``x(u) - w <=
      x(v)``.  Then Max keeps ``e >= x`` along every play from energy
      ``x(v)`` (Brim, Chaloupka, Doyen, Gentilini & Raskin, "Faster
      algorithms for mean-payoff games", 2011); the clamp keeps it, as
      ``x <= bound``.
    * **A finite x is not too high**, over the restricted edges, every Max
      edge and Min's choice in the last block: at a vertex with ``0 < x(v)``
      each one into a finite ``u`` must have ``x(u) - w >= x(v)``, and the
      tight ones, with equality, must form no cycle.  From energy ``e <
      x(v)`` each such move keeps ``e < x``, and a cycle of them weighs at
      most 0, exactly 0 only when all its edges are tight (Goldberg,
      "Scaling algorithms for the shortest paths problem", 1995).  So
      against that block Max's energy drains until it drops below 0, at
      the latest on reaching ``x = 0``, or he enters the ``inf`` set.
    * **Min wins from the ``inf`` set** with any energy.  At a bound of at
      least ``(n - 1) * W`` a one-block witness must keep every play among
      the losing vertices, and the losing vertices must hold no cycle of
      weight ``>= 0`` under it: a queue-based Bellman-Ford with a
      walk-length counter (Cherkassky & Goldberg, "Negative-cycle
      detection algorithms", 1999) on the weights ``w * (n + 1) + 1``,
      which turn ">= 0" into "> 0".  Otherwise :func:`_explore` runs from
      ``(v, bound, death_index[v])`` at every losing ``v`` at once.

    A malformed result, such as a Max strategy that misses a vertex, is
    wrong too.  A bad ``bound`` raises InvalidSpec.
    """
    bound = check_bound(bound)
    try:
        _certify(game, bound, result)
    except (InvalidSpec, InvalidStrategy) as exc:
        raise InvariantViolation(f"malformed result: {exc}") from None


def _certify(game, bound, result):
    n = game.vertex_count
    out, owners = game.out_adjacency, game.owners
    x, witness = result.lwub, result.min_witness
    if len(x) != n:
        raise InvariantViolation(f"{len(x)} values for {n} vertices")
    validate_strategy(game, result.max_strategy, Owner.MAX)
    _check_witness(game, witness)
    death = witness.death_index
    for v, xv in enumerate(x):
        if xv != INF and not (type(xv) is int and 0 <= xv <= bound):
            raise InvariantViolation(f"x({v}) = {xv!r} is neither inf nor an int in [0, {bound}]")
        if (death[v] is None) != (xv != INF):
            raise InvariantViolation(f"death_index[{v}] = {death[v]!r} disagrees with x({v}) = {xv}")

    chosen = {**result.max_strategy.choice, **witness.last.choice}
    tight = {}  # each vertex with 0 < x < inf -> the heads of its tight restricted edges
    for v, xv in enumerate(x):
        if xv == INF:
            continue
        row, u = out[v], chosen[v]
        is_min = owners[v] is Owner.MIN
        pick = (u, (min if is_min else max)(w for t, w in row if t == u))
        for u, w in row if is_min else [pick]:  # x is not too low
            if x[u] - w > xv:
                raise InvariantViolation(f"x({v}) = {xv} does not cover edge ({v}, {u}) of weight {w}")
        if xv == 0:
            continue
        tight[v] = heads = []
        for u, w in [pick] if is_min else row:  # a finite x is not too high
            if x[u] - w < xv:
                raise InvariantViolation(f"edge ({v}, {u}) of weight {w} lets Max do with less than x({v}) = {xv}")
            if x[u] - w == xv:
                heads.append(u)
    try:
        TopologicalSorter(tight).prepare()
    except CycleError as exc:
        raise InvariantViolation(f"a zero-weight cycle through vertex {exc.args[1][0]} keeps x finite") from None

    losing = [v for v in range(n) if x[v] == INF]
    if not witness.switches and bound >= (n - 1) * max_abs_weight(game):
        _check_losing_set(game, x, witness.last.choice, losing)
    else:
        _explore(game, bound, witness, [(v, bound, death[v]) for v in losing])


def _check_losing_set(game, x, sigma, losing):
    """Raise InvariantViolation unless every Max edge out of a losing
    vertex, and ``sigma``'s choice at a losing Min vertex, leads to a
    losing vertex, and unless the losing vertices hold no cycle of weight
    ``>= 0`` under those moves (see :func:`certify`)."""
    n, out, owners = game.vertex_count, game.out_adjacency, game.owners
    rows = {}
    for v in losing:
        row = out[v]
        if owners[v] is Owner.MIN:
            u = sigma[v]
            row = [(u, min(w for t, w in row if t == u))]
        for u, _ in row:
            if x[u] != INF:
                raise InvariantViolation(f"edge ({v}, {u}) leaves the losing set")
        rows[v] = [(u, w * (n + 1) + 1) for u, w in row]
    label, arcs = dict.fromkeys(losing, 0), dict.fromkeys(losing, 0)
    queue, queued = deque(losing), set(losing)
    while queue:
        v = queue.popleft()
        queued.remove(v)
        for u, w in rows[v]:
            if label[v] + w > label[u]:
                label[u] = label[v] + w
                arcs[u] = arcs[v] + 1
                if arcs[u] >= len(losing):  # the walk repeats a vertex, on a cycle that gained
                    raise InvariantViolation(f"a cycle of weight >= 0 among the losing vertices reaches vertex {u}")
                if u not in queued:
                    queued.add(u)
                    queue.append(u)
