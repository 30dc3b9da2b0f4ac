"""Text formats: games are parsed and rendered; results, strategies and
witnesses are only rendered (FORMAT.md documents them all).

Game grammar (see FORMAT.md for the ABNF):

    c <free text>          comment, anywhere
    p mpg <n> <m>          exactly one header, before owners and edges
    o <v> <MAX|MIN>        one line per vertex, ids 0-based
    e <u> <v> <w>          one line per edge, signed decimal weight

Rendering is deterministic: owners by vertex id, edges sorted by source,
then target, then weight, so parse(render(g)) equals g up to edge order.
"""

from __future__ import annotations

import re
from typing import Sequence

from .core import INF, GameGraph, MinWitness, Owner, PositionalStrategy
from .errors import InvalidStrategy, InvariantViolation, ParseError

INF_TOKEN = "inf"


#: The bytes of a game text that splits into lines as the line loop splits
#: it.  A text with any other byte (a comment's "c", a carriage return, a
#: form feed) is read in its cleaned form, as is one whose lines do not all
#: start with a tag.
_PLAIN = b" \t\n0123456789-mpgoeMAXIN"

#: The most lines of one tag that the tokeniser splits at once.
CHUNK_LINES = 4096

#: Up to CHUNK_LINES consecutive lines that start with the same tag.
_CHUNK = re.compile("|".join(rf"(?:{tag}[^\n]*\n?){{1,{CHUNK_LINES}}}" for tag in "poe"))

_OWNER = {o.value: o for o in Owner}


def parse_game(text: str) -> GameGraph:
    """Parse the game grammar; raises ParseError, a ValidationError or
    OverflowRisk.

    Every well-formed file takes one path, :func:`_records`: each run of
    at most ``CHUNK_LINES`` consecutive records with the same tag is
    tokenised by one ``split()`` and converted a column at a time, so a
    parse holds one chunk's tokens at a time beside the game's own
    columns.  A file that path rejects goes through the line loop of
    :func:`_raise_line_error`, which only words the error.
    """
    plain = text.isascii() and not text.encode().translate(None, _PLAIN)
    # otherwise the lines the line loop reads as records, stripped and joined by LF
    parts = (plain and _records(text)) or _records(
        "\n".join(line for line in map(str.strip, text.splitlines()) if line and line[0] != "c")
    )
    if parts is None:
        _raise_line_error(text)
    n, owners, tails, heads, weights = parts
    return GameGraph(n, owners, zip(tails, heads, weights))


def _records(text: str):
    """``(n, owners, tails, heads, weights)`` of a game text split into lines
    at LF alone, or None unless every line is a record and they make a
    well-formed game.

    The text is read a chunk at a time (``_CHUNK``).  The header's counts
    are checked against the text's line count before anything is built
    for them, so a huge header on a short text allocates nothing; then
    the owners and the three edge columns are lists of ``n`` and ``m``
    slots, filled a chunk at a time.  Each chunk's ids are converted,
    checked against ``n`` and mapped onto one shared int object per vertex
    id before the next chunk is tokenised.  :func:`parse_game` zips the
    three columns for the constructor, which splits them back into the
    game's columns, so the zip's one reused tuple is the only triple a
    parse makes."""
    n = None
    owned = 0
    edges = 0
    pos = 0
    try:
        while pos < len(text):
            chunk = _CHUNK.match(text, pos)
            if chunk is None:
                return None
            tag, tokens, pos = text[pos], chunk.group().split(), chunk.end()
            k = len(tokens)
            if tag == "p" and n is None and k == 4 and tokens[:2] == ["p", "mpg"]:
                n, m = int(tokens[2]), int(tokens[3])
                # Every line starts with a tag, and no other field can, so with
                # as many lines as records each line holds exactly one record.
                lines = text.count("\n") + (not text.endswith("\n"))
                if n <= 0 or m < 0 or lines != 1 + n + m:
                    return None
                shared = list(range(n)).__getitem__  # one int object per vertex id
                by_id = [None] * n
                tails, heads, weights = [None] * m, [None] * m, [None] * m
            elif tag == "o" and n is not None and tokens[::3].count("o") * 3 == k:
                ids = list(map(int, tokens[1::3]))
                if not 0 <= min(ids) <= max(ids) < n:
                    return None
                owned += len(ids)
                for v, o in zip(ids, map(_OWNER.__getitem__, tokens[2::3])):
                    by_id[v] = o
            elif tag == "e" and n is not None and tokens[::4].count("e") * 4 == k:
                us, vs = list(map(int, tokens[1::4])), list(map(int, tokens[2::4]))
                if not (0 <= min(us) <= max(us) < n and 0 <= min(vs) <= max(vs) < n):
                    return None
                at, edges = edges, edges + len(us)
                if edges > m:
                    return None
                tails[at:edges] = map(shared, us)
                heads[at:edges] = map(shared, vs)
                weights[at:edges] = map(int, tokens[3::4])
            else:
                return None
    except (ValueError, KeyError):
        return None
    if n is None or owned != n or None in by_id or edges != m:
        return None
    return n, by_id, tails, heads, weights


def _raise_line_error(text: str) -> None:
    """Raise the ParseError of a game text the tokeniser rejected, worded
    line by line: the first offending line and its number, or line 0 for
    the file as a whole."""
    n = m = None
    edges = 0
    seen_owner: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("c"):
            continue
        tag = fields[0]
        if tag == "p":
            if n is not None:
                raise ParseError(lineno, "duplicate header")
            if len(fields) != 4 or fields[1] != "mpg":
                raise ParseError(lineno, "header must be 'p mpg <n> <m>'")
            n, m = _int(fields[2], lineno), _int(fields[3], lineno)
            if n <= 0 or m < 0:
                raise ParseError(lineno, "header counts out of range")
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
            if fields[2] not in _OWNER:
                raise ParseError(lineno, f"unknown owner {fields[2]!r}")
        elif tag == "e":
            if n is None:
                raise ParseError(lineno, "edge line before header")
            if len(fields) != 4:
                raise ParseError(lineno, "edge line must be 'e <u> <v> <w>'")
            u, v, w = (_int(f, lineno) for f in fields[1:])
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(lineno, f"edge ({u}, {v}) out of range")
            edges += 1
        else:
            raise ParseError(lineno, f"unknown record {tag!r}")
    if n is None:
        raise ParseError(0, "missing header")
    if len(seen_owner) != n:
        missing = next(v for v in range(n) if v not in seen_owner)
        raise ParseError(0, f"missing owner line for vertex {missing}")
    if edges != m:
        raise ParseError(0, f"header announced {m} edges, found {edges}")
    raise InvariantViolation("the tokeniser rejected a game the line loop accepts")


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"not an integer: {token!r}") from None


def render_game(graph: GameGraph) -> str:
    """The game text, edges sorted by source, then target, then weight.  It
    reads the edge columns and no adjacency row."""
    lines = [f"p mpg {graph.vertex_count} {len(graph.tails)}"]
    max_ = Owner.MAX
    lines += [f"o {v} {'MAX' if o is max_ else 'MIN'}" for v, o in enumerate(graph.owners)]
    lines += [f"e {u} {v} {w}" for u, v, w in sorted(zip(graph.tails, graph.heads, graph.weights))]
    return "\n".join(lines) + "\n"


def _value_token(x) -> str:
    return INF_TOKEN if x == INF else str(int(x))


def render_values(values: Sequence) -> str:
    return "".join(f"v {v} {_value_token(x)}\n" for v, x in enumerate(values))


def render_strategy(strategy: PositionalStrategy) -> str:
    return "".join(f"s {v} {u}\n" for v, u in sorted(strategy.choice.items()))


def render_witness(witness: MinWitness) -> str:
    """Min's strategies as blocks introduced by ``k <index>`` lines, each
    choice written once: each earlier block ``j`` holds ``switches[j]``,
    sorted by vertex id, the vertices whose choice in strategy ``j``
    differs from strategy ``j + 1`` with their choice in ``j``, and the
    last block holds the last strategy in full.  Strategy ``j`` is block
    ``j`` laid over strategy ``j + 1``.  Raises InvalidStrategy when a
    switch names a vertex outside the last strategy, as the blocks could
    not be laid over it."""
    last = witness.last.choice
    parts = []
    for j, block in enumerate(witness.switches):
        if not block.keys() <= last.keys():
            raise InvalidStrategy("witness strategies cover different vertices")
        parts.append(f"k {j}\n")
        parts += [f"s {v} {u}\n" for v, u in sorted(block.items())]
    parts += [f"k {len(witness.switches)}\n", render_strategy(witness.last)]
    return "".join(parts)
