"""Independent checks of the text that one operation renders.

The checks read the rendered values, Max strategy and Min witness with
parsers of their own and test them against the generated game:

* fixpoint: the values are a fixpoint of the value-iteration update.  The
  true answer is that update's least fixpoint, so no value is too low.
* Max strategy: following the rendered Max strategy from a vertex with a
  finite value, Max never needs more energy than that value, so the
  strategy attains the values.
* trap (unbounded problem): the ``inf`` set is a trap for Max under the
  last strategy of Min's witness and holds no cycle of weight >= 0, so no
  ``inf`` is too high.
* finite subgame (unbounded problem): value iteration on the subgame
  induced by the finite vertices reproduces their values, so no finite
  value is too high.
* reference (bounded problem): the values equal those of value iteration.

Together they pin every value down, so a check that passes on a wrong
answer is a fault of the checks.

A failed check raises CheckFailed.
"""

from __future__ import annotations

from collections import deque

from mpgsolve.core import GameGraph, Owner, induced_subgame, max_abs_weight
from mpgsolve.value_iteration import vi_solve

INF = float("inf")


class CheckFailed(Exception):
    pass


def lb_bound(game: GameGraph) -> int:
    """The bound (|V|-1) * W at which the bounded problem is the unbounded one."""
    return (game.vertex_count - 1) * max_abs_weight(game)


def _fields(line: str, tag: str) -> tuple[int, str]:
    """The id and the value of a ``<tag> <id> <value>`` line."""
    parts = line.split()
    if len(parts) != 3 or parts[0] != tag or not parts[1].isdigit():
        raise CheckFailed(f"malformed line {line!r}")
    return int(parts[1]), parts[2]


def parse_values(text: str, n: int) -> list:
    values = []
    for i, line in enumerate(text.splitlines()):
        v, x = _fields(line, "v")
        if v != i or not (x == "inf" or x.isdigit()):
            raise CheckFailed(f"value line {i} reads {line!r}")
        values.append(INF if x == "inf" else int(x))
    if len(values) != n:
        raise CheckFailed(f"{len(values)} values for {n} vertices")
    return values


def _parse_choices(lines) -> dict[int, int]:
    choice = {}
    for line in lines:
        v, u = _fields(line, "s")
        if v in choice or not u.isdigit():
            raise CheckFailed(f"bad strategy line {line!r}")
        choice[v] = int(u)
    return choice


def _check_domain(game: GameGraph, choice: dict[int, int], player: Owner) -> None:
    owned = {v for v in range(game.vertex_count) if game.owners[v] is player}
    if set(choice) != owned:
        raise CheckFailed(f"{player.value} strategy covers {len(choice)} of {len(owned)} vertices")
    for v, u in choice.items():
        if all(t != u for t, _ in game.out_adjacency[v]):
            raise CheckFailed(f"strategy choice {v} -> {u} is not an edge")


def parse_max_strategy(text: str, game: GameGraph) -> dict[int, int]:
    choice = _parse_choices(text.splitlines())
    _check_domain(game, choice, Owner.MAX)
    return choice


def witness_blocks(text: str) -> list[list[str]]:
    """The witness's strategy blocks, each a list of ``s`` lines."""
    blocks: list[list[str]] = []
    for line in text.splitlines():
        if line.startswith("k "):
            if line != f"k {len(blocks)}":
                raise CheckFailed(f"witness block {line!r} out of order")
            blocks.append([])
        elif blocks:
            blocks[-1].append(line)
        else:
            raise CheckFailed("witness does not start with a 'k 0' line")
    if not blocks:
        raise CheckFailed("empty witness")
    return blocks


def last_min_strategy(text: str, game: GameGraph) -> dict[int, int]:
    choice = _parse_choices(witness_blocks(text)[-1])
    _check_domain(game, choice, Owner.MIN)
    return choice


def check_fixpoint(game: GameGraph, bound: int, x: list) -> None:
    """x equals the value-iteration update of x at every vertex."""
    for v in range(game.vertex_count):
        is_max = game.owners[v] is Owner.MAX
        best = None
        for u, w in game.out_adjacency[v]:
            c = max(0, x[u] - w)
            if best is None or (c < best if is_max else c > best):
                best = c
        if best > bound:
            best = INF
        if best != x[v]:
            raise CheckFailed(f"not a fixpoint at vertex {v}: {x[v]} against update {best}")


def check_max_strategy(game: GameGraph, bound: int, x: list, sigma: dict[int, int]) -> None:
    """From a finite vertex, the energy x(v) suffices against every Min move
    when Max follows sigma: x is a progress measure of the restricted game."""
    for v in range(game.vertex_count):
        if x[v] == INF:
            continue
        if x[v] > bound:
            raise CheckFailed(f"value {x[v]} at vertex {v} exceeds the bound {bound}")
        if game.owners[v] is Owner.MAX:
            u = sigma[v]
            # Max takes the heaviest of parallel edges to its chosen target
            moves = [(u, max(w for t, w in game.out_adjacency[v] if t == u))]
        else:
            moves = game.out_adjacency[v]
        for u, w in moves:
            if x[u] == INF or max(0, x[u] - w) > x[v]:
                raise CheckFailed(f"energy {x[v]} at vertex {v} does not cover the move to {u}")


def has_nonnegative_cycle(vertex_count: int, edges: list[tuple[int, int, int]]) -> bool:
    """Bellman-Ford longest walks with the path-length test.

    Weights are scaled to ``(L + 1) * w + 1``, so a cycle of weight >= 0
    becomes positive and a negative one stays negative.  Without positive
    cycles every walk the search records is simple, so a recorded walk of L
    edges proves one.  (Counting relaxations per vertex instead misfires on
    parallel edges, which relax one vertex several times per round.)
    """
    L = vertex_count
    inc: list[list[tuple[int, int]]] = [[] for _ in range(L)]
    for a, b, w in edges:
        inc[b].append((a, (L + 1) * w + 1))
    d = [0] * L
    length = [0] * L
    queue = deque(range(L))
    queued = bytearray(b"\x01" * L)
    while queue:
        b = queue.popleft()
        queued[b] = 0
        db = d[b]
        walk = length[b] + 1
        for a, w in inc[b]:
            if db + w > d[a]:
                d[a] = db + w
                length[a] = walk
                if walk >= L:
                    return True
                if not queued[a]:
                    queued[a] = 1
                    queue.append(a)
    return False


def check_inf_trap(game: GameGraph, x: list, pi: dict[int, int]) -> None:
    """Under Min's strategy pi, Max cannot leave the inf set, and every cycle
    inside it is negative: each play from it has negative mean payoff."""
    lost = [v for v in range(game.vertex_count) if x[v] == INF]
    index = {v: i for i, v in enumerate(lost)}
    edges = []
    for v in lost:
        if game.owners[v] is Owner.MAX:
            moves = game.out_adjacency[v]
        else:
            # Min takes the lightest of parallel edges to her chosen target
            moves = [(pi[v], min(w for t, w in game.out_adjacency[v] if t == pi[v]))]
        for u, w in moves:
            if u not in index:
                raise CheckFailed(f"the inf set is no trap: edge {v} -> {u} leaves it")
            edges.append((index[v], index[u], w))
    if has_nonnegative_cycle(len(lost), edges):
        raise CheckFailed("the inf set holds a cycle of weight >= 0")


def check_finite_subgame(game: GameGraph, x: list, solve_vi=vi_solve) -> None:
    """Value iteration on the subgame of finite vertices gives x there.

    ``solve_vi`` is called as ``vi_solve``; the benchmark passes a traced
    wrapper.
    """
    finite = [v for v in range(game.vertex_count) if x[v] != INF]
    if not finite:
        return
    sub = induced_subgame(game, finite)
    y = solve_vi(sub, lb_bound(sub))
    for i, v in enumerate(finite):
        if y[i] != x[v]:
            raise CheckFailed(f"finite-subgame value iteration gives {y[i]} at vertex {v}, not {x[v]}")


def check_reference(x: list, reference: list, what: str) -> None:
    for v, (a, b) in enumerate(zip(x, reference)):
        if a != b:
            raise CheckFailed(f"vertex {v}: {a} against {b} from {what}")
    if len(x) != len(reference):
        raise CheckFailed(f"{len(x)} values against {len(reference)} from {what}")


def check_kasi_lb(game: GameGraph, values: str, strategy: str, witness: str, solve_vi=vi_solve) -> list:
    """All unbounded-problem checks on one KASI output; returns the values."""
    bound = lb_bound(game)
    x = parse_values(values, game.vertex_count)
    check_fixpoint(game, bound, x)
    check_max_strategy(game, bound, x, parse_max_strategy(strategy, game))
    check_inf_trap(game, x, last_min_strategy(witness, game))
    check_finite_subgame(game, x, solve_vi)
    return x


def check_lwub(game: GameGraph, bound: int, values: str, strategy: str | None,
               witness: str | None, reference: list) -> list:
    """Bounded-problem checks; strategy and witness are None for value
    iteration's output.  ``reference`` is value iteration's answer."""
    x = parse_values(values, game.vertex_count)
    check_fixpoint(game, bound, x)
    if strategy is not None:
        check_max_strategy(game, bound, x, parse_max_strategy(strategy, game))
        last_min_strategy(witness, game)
    check_reference(x, reference, "value iteration")
    return x
