"""Small named instances used by tests and demos, and shift balancing for
generated ones."""

from __future__ import annotations

from dataclasses import replace

from .core import GameGraph, Owner
from .errors import InvalidSpec
from .generators import GenSpec, generate
from .kasi import winning_sign

#: Truncation bound under which the memory game below shows its point.
MEMORY_GAME_BOUND = 15


def memory_game() -> GameGraph:
    """Four-vertex game on which Min needs memory to win.

    Max owns 0, 1 and 3; Min owns vertex 2.  At bound 15 the answers are
    (0, 12, inf, inf), yet neither of Min's two positional strategies alone
    beats vertex 2:

    * fixing 2 -> 0 lets Max survive the single -13 edge with credit 13;
    * fixing 2 -> 3 lets Max circle the non-negative 2/3 cycle forever.

    Min wins by sending the play to 3 first and redirecting it to 0 once it
    returns, making it traverse the path 3 -> 2 -> 0 of weight -20 < -15.
    This instance is a reconstruction pinned down by the published answer
    vector and the -20 segment; it is oracle-verified in the test-suite.
    """
    owners = [Owner.MAX, Owner.MAX, Owner.MIN, Owner.MAX]
    edges = [
        (0, 0, 0),
        (1, 0, -12),
        (1, 2, 1),
        (2, 0, -13),
        (2, 3, 7),
        (3, 2, -7),
    ]
    return GameGraph(4, owners, edges)


def two_vertex_duel() -> GameGraph:
    """Max vertex 0 (self-loop 0, escape -3) against Min vertex 1 (-3 back).

    At bound 3 the answers are (0, 3).
    """
    owners = [Owner.MAX, Owner.MIN]
    edges = [(0, 1, -3), (0, 0, 0), (1, 0, -3)]
    return GameGraph(2, owners, edges)


def find_balancing_shift(spec: GenSpec, lo: int, hi: int) -> int:
    """Smallest shift in [lo, hi] whose instance has both value signs.

    A ``sprand``, ``torus`` or ``layered`` game draws the same weights less
    the shift at every shift, so each mean value falls by exactly the shift;
    the other families ignore it.  So the negative class only grows and the
    non-negative one only shrinks: the least shift with a negative vertex,
    found by binary search, is the one candidate.  Desk-scale only.
    """
    if lo > hi:
        raise InvalidSpec("empty shift range")

    def classes(shift: int):
        g = generate(replace(spec, shift=shift))
        return winning_sign(g)

    a, b = lo, hi
    while a < b:
        mid = (a + b) // 2
        _, neg = classes(mid)
        if neg:
            b = mid
        else:
            a = mid + 1
    nonneg, neg = classes(a)
    if nonneg and neg:
        return a
    raise InvalidSpec(f"no shift in [{lo}, {hi}] yields both winning classes")
