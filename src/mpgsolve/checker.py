"""Exhaustive check of Min's witness, apart from the solver.

Min's optimal play is a *sequence* of positional strategies, replayed by
per-vertex death index.  :func:`verify_min_witness` checks it against every
behaviour of Max.  It reads only the game and the witness, core types both,
and computes Min's moves itself, so a fault in the solver's own reading of
a game cannot hide from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

from .core import GameGraph, MinWitness, Owner, check_bound, validate_strategy
from .errors import InvalidSpec, WitnessIncomplete


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


def verify_min_witness(
    game: GameGraph,
    bound: int,
    witness: MinWitness,
    vertex: int,
    credit: int,
) -> ViolationTrace:
    """Check that the witness beats every Max behavior from a losing vertex.

    Simulates Min's playback rule over states (vertex, clamped energy,
    strategy index): Min plays the strategy indexed by the death index of the
    current losing region, switching only to lower indices, and traverses
    the lightest parallel edge to her chosen target; Max branches over all
    edges.  Energy is clamped to ``bound`` from above, and with that clamp a
    traversed segment of weight below ``-bound`` is exactly a drop of the
    clamped energy below zero, so a single absorbing "violated" outcome
    covers both losing conditions.  The states are explored breadth first,
    so the play returned is a shortest one.

    Returns one violating play; raises WitnessIncomplete when some Max
    behavior survives, which signals an implementation bug.  A vertex out
    of range or a malformed witness raises InvalidSpec, and a block that
    is not a Min strategy of the game InvalidStrategy.
    """
    bound = check_bound(bound)
    check_bound(credit, "credit")
    n = game.vertex_count
    death = witness.death_index
    if len(death) != n:
        raise InvalidSpec(f"death_index has {len(death)} entries for {n} vertices")
    if type(vertex) is not int or not 0 <= vertex < n:
        raise InvalidSpec(f"vertex {vertex!r} is not in range({n})")
    k = len(witness.strategies)
    for v, j in enumerate(death):
        if j is not None and (type(j) is not int or not 0 <= j < k):
            raise InvalidSpec(f"death_index[{v}] = {j!r} names none of the {k} strategies")
    for strategy in witness.strategies:
        validate_strategy(game, strategy, Owner.MIN)
    if death[vertex] is None:
        raise InvalidSpec(f"vertex {vertex} is not losing; nothing to verify")
    choice = [s.choice for s in witness.strategies]
    out = game.out_adjacency
    owners = game.owners

    start = (vertex, min(credit, bound), death[vertex])
    parent = {start: None}  # state -> (state before, weight taken)
    kids = {}  # state -> its non-violated successor states
    violation = None  # (state, final vertex, final weight)
    queue = [start]
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

    # Max survives iff the explored graph of non-violated states has a cycle.
    try:
        TopologicalSorter(kids).prepare()
    except CycleError as exc:
        raise WitnessIncomplete(f"a play may cycle safely through state {exc.args[1][0]}") from None
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
