"""Text formats for games, results, strategies, witnesses and bench CSV.

Game grammar (see FORMAT.md for the ABNF):

    c <free text>          comment, anywhere
    p mpg <n> <m>          exactly one header, before owners and edges
    o <v> <MAX|MIN>        one line per vertex, ids 0-based
    e <u> <v> <w>          one line per edge, signed decimal weight

Rendering is deterministic: owners by vertex id, edges sorted by source,
then target, then weight, so parse(render(g)) equals g up to edge order.
"""

from __future__ import annotations

from typing import Sequence

from .core import GameGraph, Owner, PositionalStrategy, max_abs_weight, validate
from .core import INF, WEIGHT_ENVELOPE, MinWitness, SolveResult
from .errors import OverflowRisk, ParseError

INF_TOKEN = "inf"


def parse_game(text: str) -> GameGraph:
    """Parse the game grammar; raises ParseError or a ValidationError."""
    n = m = None
    owners: list[Owner | None] = []
    edges: list[tuple[int, int, int]] = []
    seen_owner: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "p":
            if n is not None:
                raise ParseError(lineno, "duplicate header")
            if len(fields) != 4 or fields[1] != "mpg":
                raise ParseError(lineno, "header must be 'p mpg <n> <m>'")
            n, m = _int(fields[2], lineno), _int(fields[3], lineno)
            if n <= 0 or m < 0:
                raise ParseError(lineno, "header counts out of range")
            owners = [None] * n
        elif tag == "o":
            if n is None:
                raise ParseError(lineno, "owner line before header")
            if len(fields) != 3:
                raise ParseError(lineno, "owner line must be 'o <v> <MAX|MIN>'")
            v = _int(fields[1], lineno)
            if not 0 <= v < n:
                raise ParseError(lineno, f"vertex {v} out of range")
            if v in seen_owner:
                raise ParseError(lineno, f"duplicate owner for vertex {v}")
            seen_owner.add(v)
            try:
                owners[v] = Owner(fields[2])
            except ValueError:
                raise ParseError(lineno, f"unknown owner {fields[2]!r}") from None
        elif tag == "e":
            if n is None:
                raise ParseError(lineno, "edge line before header")
            if len(fields) != 4:
                raise ParseError(lineno, "edge line must be 'e <u> <v> <w>'")
            u, v, w = (_int(f, lineno) for f in fields[1:])
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(lineno, f"edge ({u}, {v}) out of range")
            edges.append((u, v, w))
        else:
            raise ParseError(lineno, f"unknown record {tag!r}")
    if n is None:
        raise ParseError(0, "missing header")
    if len(seen_owner) != n:
        missing = next(v for v in range(n) if v not in seen_owner)
        raise ParseError(0, f"missing owner line for vertex {missing}")
    if len(edges) != m:
        raise ParseError(0, f"header announced {m} edges, found {len(edges)}")
    graph = GameGraph(n, owners, edges)
    validate(graph)
    if n * max_abs_weight(graph) >= WEIGHT_ENVELOPE:
        raise OverflowRisk("|V| * W exceeds the 64-bit accumulation envelope")
    return graph


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"not an integer: {token!r}") from None


def render_game(graph: GameGraph) -> str:
    lines = [f"p mpg {graph.vertex_count} {len(graph.edges)}"]
    for v, o in enumerate(graph.owners):
        lines.append(f"o {v} {o.value}")
    for u, v, w in sorted(graph.edges):
        lines.append(f"e {u} {v} {w}")
    return "\n".join(lines) + "\n"


def _value_token(x) -> str:
    return INF_TOKEN if x == INF else str(int(x))


def render_values(values: Sequence) -> str:
    return "".join(f"v {v} {_value_token(x)}\n" for v, x in enumerate(values))


def parse_values(text: str) -> list:
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] != "v" or len(fields) != 3:
            raise ParseError(lineno, "result line must be 'v <id> <value|inf>'")
        v = _int(fields[1], lineno)
        entries[v] = INF if fields[2] == INF_TOKEN else _int(fields[2], lineno)
    if set(entries) != set(range(len(entries))):
        raise ParseError(0, "result lines must cover a dense vertex range")
    return [entries[v] for v in range(len(entries))]


def render_result(result) -> str:
    """Value lines for an energy vector or a solve result."""
    values = result.lwub if isinstance(result, SolveResult) else result
    return render_values(values)


def render_strategy(strategy: PositionalStrategy) -> str:
    return "".join(f"s {v} {u}\n" for v, u in sorted(strategy.choice.items()))


def parse_strategy(text: str, player: Owner) -> PositionalStrategy:
    choice = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] != "s" or len(fields) != 3:
            raise ParseError(lineno, "strategy line must be 's <id> <target>'")
        v = _int(fields[1], lineno)
        if v in choice:
            raise ParseError(lineno, f"duplicate choice for vertex {v}")
        choice[v] = _int(fields[2], lineno)
    return PositionalStrategy(player, choice)


def render_witness(witness: MinWitness) -> str:
    """Ordered strategy blocks separated by 'k <index>' lines."""
    parts = []
    for i, strategy in enumerate(witness.strategies):
        parts.append(f"k {i}\n")
        parts.append(render_strategy(strategy))
    return "".join(parts)


def render_bench_row(
    instance: str,
    n: int,
    m: int,
    problem: str,
    bound,
    algorithm: str,
    seconds: float,
    iterations: int,
) -> str:
    return f"{instance},{n},{m},{problem},{bound},{algorithm},{seconds:.6f},{iterations}\n"


BENCH_HEADER = "instance,n,m,problem,bound,algorithm,seconds,iterations\n"
