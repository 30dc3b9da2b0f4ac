"""Domain types for two-player energy games on weighted digraphs.

A game is a finite directed graph with integer edge weights in which every
vertex belongs to exactly one of two players, Max and Min, and has at least
one outgoing edge.  Vertices are dense non-negative integers so that value
vectors are flat lists; external names belong to the IO layer.

Value-vector conventions used throughout the package:

* potential vectors live in ``int | float('-inf')`` per vertex,
* energy vectors live in ``int | float('inf')`` per vertex.

Every way of building a game (the constructor, and through it parsing,
generation, :func:`induced_subgame` and :func:`restrict_to_strategy`)
yields one that passes :func:`validate`, the one place that decides whether
a game is well formed and inside the 64-bit envelope; the solvers take that
for granted.  :func:`reduction_bound` is the one place that derives the lb
reduction bound and checks its envelope.  A graph holds its edges as three
columns, tails, heads and weights, and builds its edge triples and
adjacency rows from them on read, so a game that no search reads holds no
tuple per edge.  Its columns, adjacency rows and outer adjacency sequences
are tuples, so a write into them raises; its attributes cannot be
rebound.  Graphs are safe to share between solver
runs; strategies and vectors are independent values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from numbers import Real
from typing import Iterable, Sequence

from .errors import (
    DanglingEdge,
    InvalidSpec,
    InvalidStrategy,
    OverflowRisk,
    TimeLimitExceeded,
    ValidationError,
    ZeroOutDegree,
)

#: Weight added to vertices that lose all successors in an induced subgame.
#: Any negative value makes such a vertex losing for Max at every finite
#: bound; -1 keeps the maximum absolute weight small.
SUBGAME_SELF_LOOP_WEIGHT = -1

#: Accumulations up to |V| * W must fit well inside 64-bit signed arithmetic
#: so that results stay portable to fixed-width implementations.
WEIGHT_ENVELOPE = 2**63

#: The solvers look at the clock once per this many steps (heap or
#: worklist pops).
DEADLINE_STRIDE = 4096

#: The infinite entries of potential and energy vectors.
NEG_INF = float("-inf")
INF = float("inf")


class Owner(Enum):
    MAX = "MAX"
    MIN = "MIN"


class GameGraph:
    """Finite weighted digraph with per-vertex ownership, valid by construction.

    Parallel edges and self-loops are permitted.  The constructor converts
    no field: it splits the edge triples, in one pass and in input order,
    into three columns, ``tails``, ``heads`` and ``weights``, stores them
    with the count and the owners as tuples, and runs :func:`validate`, so
    every graph that exists passes it and no solver checks a graph again.
    ``edges`` is ``tuple(zip(tails, heads, weights))``, made afresh on each
    read.  The adjacency rows are built from the columns on first read and
    kept: ``out_adjacency[u]`` holds a ``(v, w)`` pair per edge ``(u, v,
    w)``; ``in_adjacency[v]`` a ``(u, v, w)`` triple per edge whose head is
    ``v``.  Both keep input order.  A game that no search reads, such as
    one generated, cut and rendered, holds three column slots per edge and
    no tuple of its own; once both row sets are read, an edge also costs
    one pair and one triple.  The columns, the rows and both outer
    sequences are tuples and no attribute can be rebound, so a write raises
    instead of bypassing the only check.  Parsing, the ``sprand``,
    ``torus`` and ``layered`` generators and :func:`induced_subgame` take
    every vertex id from one ``list(range(n))``, so each id is one int
    object however many edges name it; that saves memory only above 256
    vertices, since CPython already caches smaller ints.
    """

    __slots__ = ("vertex_count", "owners", "tails", "heads", "weights", "_out", "_in")

    def __init__(self, vertex_count: int, owners: Sequence[Owner], edges: Iterable[tuple[int, int, int]]):
        for name, value in (("owners", owners), ("edges", edges)):
            if not isinstance(value, Iterable):
                raise ValidationError(f"{name} {value!r} is not iterable")
        owners = tuple(owners)
        tails, heads, weights = [], [], []
        for e in edges:
            try:
                u, v, w = e
            except (TypeError, ValueError):
                # the faults validate would find before this edge come first
                _check_owners(vertex_count, owners)
                _check_edges(vertex_count, zip(tails, heads, weights))
                raise ValidationError(f"edge {e!r} is not a triple of ints") from None
            del e  # a zip reuses its tuple for the next edge once no name holds it
            tails.append(u)
            heads.append(v)
            weights.append(w)
        values = (vertex_count, owners, tuple(tails), tuple(heads), tuple(weights), None, None)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        validate(self)

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """The ``(u, v, w)`` triples in input order, made from the columns on
        each read and not kept."""
        return tuple(zip(self.tails, self.heads, self.weights))

    @property
    def out_adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, a ``(v, w)`` pair per out-edge, built on first read."""
        rows = self._out
        if rows is None:
            out = [[] for _ in range(self.vertex_count)]
            for u, v, w in zip(self.tails, self.heads, self.weights):
                out[u].append((v, w))
            rows = tuple(map(tuple, out))
            object.__setattr__(self, "_out", rows)
        return rows

    @property
    def in_adjacency(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per vertex, a ``(u, v, w)`` triple per in-edge, built on first read."""
        rows = self._in
        if rows is None:
            inc = [[] for _ in range(self.vertex_count)]
            for e in zip(self.tails, self.heads, self.weights):
                inc[e[1]].append(e)
            rows = tuple(map(tuple, inc))
            object.__setattr__(self, "_in", rows)
        return rows

    def __setattr__(self, name, value):
        raise AttributeError(f"GameGraph attribute {name!r} cannot be rebound")

    def __delattr__(self, name):
        raise AttributeError(f"GameGraph attribute {name!r} cannot be deleted")

    def __eq__(self, other) -> bool:
        if not isinstance(other, GameGraph):
            return NotImplemented
        # identity up to edge order: the edge list is a multiset
        return (
            self.vertex_count == other.vertex_count
            and self.owners == other.owners
            and sorted(zip(self.tails, self.heads, self.weights))
            == sorted(zip(other.tails, other.heads, other.weights))
        )

    def __repr__(self) -> str:
        return f"GameGraph(|V|={self.vertex_count}, |E|={len(self.tails)})"

    def vertices_of(self, player: Owner) -> list[int]:
        return [v for v in range(self.vertex_count) if self.owners[v] is player]


@dataclass(frozen=True)
class PositionalStrategy:
    """Total successor choice for one player's vertices."""

    player: Owner
    choice: dict[int, int]

    def __post_init__(self):
        object.__setattr__(self, "choice", dict(self.choice))


@dataclass
class MinWitness:
    """Min's optimal play: the strategy sequence plus per-vertex death index.

    ``death_index[v]`` names the block Min starts from at ``v``: the index
    of the evaluation that drove ``d(v)`` to minus infinity, or None while
    the vertex stays winnable for Max.  An lb witness, or one at a bound of
    at least ``(|V|-1) * W``, is one block, and the index is 0 at every
    losing vertex.  Every strategy is held in full, on the same vertices;
    ``formats.render_witness`` writes the last in full and each earlier one
    as its differences from the next.
    """

    strategies: list[PositionalStrategy]
    death_index: list[int | None]


@dataclass
class SolveStats:
    """The work of a KASI solve, one entry per improvement iteration: the
    evaluation passes, the heap pops of their searches (stale entries
    included) and the Min vertices the improvement switched, 0 in the last
    iteration.  They depend on the game and the bound alone."""

    passes: list[int]
    heap_pops: list[int]
    switches: list[int]


@dataclass
class SolveResult:
    lwub: list  # int or float('inf') per vertex
    max_strategy: PositionalStrategy
    min_witness: MinWitness
    final_d: list  # int or float('-inf') per vertex
    iterations: int  # strategy evaluations, one per improvement iteration
    stats: SolveStats


def validate(graph: GameGraph) -> None:
    """Check the structural invariants, raising on the first violation.

    The vertex count and every edge field must be ints, not merely
    convertible to one.  Raises ZeroOutDegree, DanglingEdge or
    ValidationError itself (their base class), and OverflowRisk when
    |V| * W leaves the 64-bit envelope.
    """
    n = graph.vertex_count
    _check_owners(n, graph.owners)
    has_out = _check_edges(n, zip(graph.tails, graph.heads, graph.weights))
    if 0 in has_out:
        raise ZeroOutDegree(has_out.index(0))
    if n * max_abs_weight(graph) >= WEIGHT_ENVELOPE:
        raise OverflowRisk("|V| * W exceeds the 64-bit accumulation envelope")


def _check_owners(n, owners) -> None:
    """The checks of :func:`validate` that precede the edges."""
    if type(n) is not int:
        raise ValidationError(f"vertex count {n!r} is not an int")
    if n <= 0:
        raise ValidationError("a game needs at least one vertex")
    if len(owners) != n:
        raise ValidationError(f"{len(owners)} owner entries for {n} vertices")
    if not {*map(type, owners)} <= {Owner}:
        v, o = next((v, o) for v, o in enumerate(owners) if type(o) is not Owner)
        raise ValidationError(f"vertex {v} has owner {o!r}, expected Owner.MAX or Owner.MIN")


def _check_edges(n: int, edges) -> bytearray:
    """Raise on the first of the ``(u, v, w)`` triples ``edges`` that is not
    one of ints inside the vertex range; returns a byte per vertex, 1 where
    an edge leaves it."""
    has_out = bytearray(n)
    for u, v, w in edges:
        if not (type(u) is type(v) is type(w) is int and 0 <= u < n and 0 <= v < n):
            if not type(u) is type(v) is type(w) is int:
                raise ValidationError(f"edge {(u, v, w)!r} is not a triple of ints")
            raise DanglingEdge((u, v, w))
        has_out[u] = 1
    return has_out


def check_bound(value, name: str = "bound") -> int:
    """``value`` once checked to be a non-negative int; raises InvalidSpec."""
    if type(value) is not int or value < 0:
        raise InvalidSpec(f"{name} must be a non-negative int, got {value!r}")
    return value


def reduction_bound(graph: GameGraph) -> int:
    """The bound ``(|V|-1) * W`` at which lwub solves lb; raises OverflowRisk
    when ``(|V|-1) * W * |V|`` leaves the 64-bit envelope."""
    n = graph.vertex_count
    bound = (n - 1) * max_abs_weight(graph)
    if bound * n >= WEIGHT_ENVELOPE:
        raise OverflowRisk(f"(|V|-1)*W*|V| = {bound * n} exceeds the 64-bit envelope")
    return bound


def deadline_after(time_limit: float | None):
    """A callable raising TimeLimitExceeded once ``time_limit`` seconds have
    passed from now; without a limit, one that does nothing.  A limit that
    is not a real number, is a bool, or is NaN and so would never expire,
    raises InvalidSpec, and so does a negative one."""
    if time_limit is None:
        return lambda: None
    if not isinstance(time_limit, Real) or isinstance(time_limit, bool) or time_limit != time_limit:
        raise InvalidSpec(f"time limit must be a number, got {time_limit!r}")
    if time_limit < 0:
        raise InvalidSpec(f"time limit must be >= 0, got {time_limit!r}")
    at = time.perf_counter() + time_limit

    def expire():
        if time.perf_counter() > at:
            raise TimeLimitExceeded(f"solve exceeded {time_limit} s")

    return expire


def validate_strategy(graph: GameGraph, strategy: PositionalStrategy, player: Owner) -> None:
    """Check that a strategy is one of ``player``'s, defined on all and only
    that player's vertices, and always picks an actual successor.  Vertex
    ids and targets must be ints, not merely equal to one."""
    if strategy.player is not player:
        raise InvalidStrategy(f"expected a {player.name.capitalize()} strategy")
    choice, out = strategy.choice, graph.out_adjacency
    for v, u in choice.items():
        if not type(v) is type(u) is int:
            raise InvalidStrategy(f"choice {v!r} -> {u!r} is not a pair of ints")
    owned = set(graph.vertices_of(player))
    if choice.keys() != owned:
        missing, extra = sorted(owned - choice.keys()), sorted(choice.keys() - owned)
        raise InvalidStrategy(f"strategy domain mismatch (missing {missing}, extra {extra})")
    for v, u in choice.items():
        for t, _ in out[v]:
            if t == u:
                break
        else:
            raise InvalidStrategy(f"choice {v} -> {u} is not an edge")


def restrict_to_strategy(graph: GameGraph, strategy: PositionalStrategy) -> GameGraph:
    """Remove every edge from the strategy owner's vertices except the chosen
    one (parallel edges to the chosen successor all survive)."""
    player = strategy.player
    validate_strategy(graph, strategy, player)
    kept = [
        (u, v, w)
        for u, v, w in zip(graph.tails, graph.heads, graph.weights)
        if graph.owners[u] is not player or strategy.choice[u] == v
    ]
    return GameGraph(graph.vertex_count, graph.owners, kept)


def induced_subgame(graph: GameGraph, keep: Iterable[int]) -> GameGraph:
    """Subgame induced by a vertex set, with losing self-loops patched in.

    Vertices are re-indexed densely in increasing original order.  A kept
    vertex whose successors were all dropped receives a self-loop of weight
    ``SUBGAME_SELF_LOOP_WEIGHT`` so it is losing for Max at every bound.
    Every entry of ``keep`` must be an int, not merely equal to one.
    """
    keep = list(keep)
    for v in keep:
        if type(v) is not int:
            raise ValidationError(f"keep set contains {v!r}, which is not an int")
    kept = sorted(set(keep))
    if not kept:
        raise ValidationError("cannot induce a subgame on the empty vertex set")
    n = graph.vertex_count
    for v in kept:
        if not (0 <= v < n):
            raise ValidationError(f"keep set contains out-of-range vertex {v}")
    ids = list(range(len(kept)))
    index = dict(zip(kept, ids))
    edges = [
        (index[u], index[v], w)
        for u, v, w in zip(graph.tails, graph.heads, graph.weights)
        if u in index and v in index
    ]
    has_out = [False] * len(kept)
    for u, _, _ in edges:
        has_out[u] = True
    for i in ids:
        if not has_out[i]:
            edges.append((i, i, SUBGAME_SELF_LOOP_WEIGHT))
    owners = tuple(graph.owners[v] for v in kept)
    return GameGraph(len(kept), owners, edges)


def max_abs_weight(graph: GameGraph) -> int:
    """Maximum absolute edge weight W; 0 when every weight is zero."""
    return max(map(abs, graph.weights), default=0)
