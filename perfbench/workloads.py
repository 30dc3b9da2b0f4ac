"""The benchmark's workloads: which games each one generates from its seed,
and which operations it runs on them.

An operation is what ``mpg solve`` does with one game file: parse the game
text, solve one problem with one algorithm, and render the values (plus,
for KASI, the Max strategy and the Min witness).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from mpgsolve.generators import GenSpec

KASI = "kasi"
VI = "vi"
LB = "lb"
LWUB = "lwub"


@dataclass(frozen=True)
class GameDef:
    spec: GenSpec
    #: When set, the game is cut down to the subgame induced by a random
    #: three quarters of its vertices, drawn from this seed, which leaves
    #: it without strong connectivity.
    cut_seed: int | None = None


@dataclass(frozen=True)
class Op:
    game: int  # index into Workload.games
    algorithm: str  # KASI or VI
    problem: str  # LB or LWUB
    bound: int | None = None  # truncation bound, LWUB only


@dataclass(frozen=True)
class Workload:
    name: str
    games: tuple[GameDef, ...]
    #: One round: every operation once, in this order.
    ops: tuple[Op, ...]
    #: Compare answers with the brute-force oracles where their default
    #: state budget allows.
    oracle_check: bool = False


def _large_games(seed: int, sprands: int) -> tuple[GameDef, ...]:
    # The criterion-11 shape and a torus with zero-mean weights: the shapes
    # on which the paper's claim and its reversal are seen.  Times and
    # witness sizes of the criterion-11 games repeat within about 10% from
    # seed to seed; those of the torus do not (10 to 33 iterations, 0% to
    # 100% of vertices at inf), so one torus rides along with several of them.
    games = [GameDef(GenSpec(family="sprand", seed=sub_seed, n=20000, edge_factor=2.0,
                             weight_lo=1, weight_hi=10, shift=6))
             for sub_seed in range(3 * seed, 3 * seed + sprands)]
    games.append(GameDef(GenSpec(family="torus", seed=seed, rows=100, cols=100,
                                 weight_lo=-5, weight_hi=5)))
    return tuple(games)


def lb_large(seed: int) -> Workload:
    games = _large_games(seed, 3)
    return Workload(
        name="lb-large",
        games=games,
        ops=tuple(Op(k, KASI, LB) for k in range(len(games))),
    )


#: Fixed bounds.  On every seed tried the criterion-11 shape ends with
#: finite and infinite answers at both of its bounds.  At 20 it loses a fifth
#: of its finite vertices to the bound, so admissibility pruning is active,
#: and VI is 6-10 times faster than KASI; at 400 the two take about as long,
#: and beyond it KASI wins.  The half-average default of ``mpg bench`` is
#: avoided: on this shape it sends every vertex to ``inf``.
SPRAND_BOUNDS = (20, 400)
TORUS_BOUND = 100


def lwub_bounded(seed: int) -> Workload:
    # Each game is solved by KASI and by VI at the same bound.  Were all VI
    # operations several times faster than all KASI ones, the median
    # operation would fall in the gap between the two kinds; the bound of
    # 400 puts operations of both kinds in the middle of the range.
    games = _large_games(seed, 2)
    ops = []
    for k, gd in enumerate(games):
        for bound in SPRAND_BOUNDS if gd.spec.family == "sprand" else (TORUS_BOUND,):
            ops += [Op(k, KASI, LWUB, bound), Op(k, VI, LWUB, bound)]
    return Workload(name="lwub-bounded", games=games, ops=tuple(ops))


#: Twice the largest absolute weight of most small games: answers are mixed.
SMALL_BOUND = 10

#: Games per family in small-many.  The sizes follow a fixed schedule so
#: that the seed changes structure, weights and owners but not the size mix.
SMALL_PER_FAMILY = 16

_GRIDS = ((4, 5), (5, 5), (5, 6), (6, 6), (6, 7), (7, 7), (7, 8), (8, 8),
          (8, 9), (9, 9), (9, 10), (10, 10), (10, 12), (12, 12), (12, 14), (14, 14))


def _small_spec(family: str, i: int, seed: int) -> GenSpec:
    rows, cols = _GRIDS[i]
    if family == "sprand":
        return GenSpec(family="sprand", seed=seed, n=50 + 10 * i, edge_factor=2.0,
                       weight_lo=1, weight_hi=10, shift=6)
    if family == "torus":
        return GenSpec(family="torus", seed=seed, rows=rows, cols=cols,
                       weight_lo=-5, weight_hi=5)
    if family == "layered":
        return GenSpec(family="layered", seed=seed, layers=cols, width=rows,
                       weight_lo=-5, weight_hi=5)
    if family == "collect":  # n = 2 * grid^2 * phases <= 196
        return GenSpec(family="collect", seed=seed, grid=3 + i % 5, phases=1 + i // 8,
                       docks=1 + i % 3)
    if family == "supply":  # n = sites + sites^2 * max_request <= 150
        return GenSpec(family="supply", seed=seed, sites=2 + i % 5, max_request=1 + i // 5 % 4,
                       refill=2 + i % 4)
    if family == "taxi":  # n = zones + zones^2 * (zones - 1) <= 186
        return GenSpec(family="taxi", seed=seed, zones=3 + i % 4, margin=1 + i // 4)
    raise ValueError(family)


def small_many(seed: int) -> Workload:
    games = []
    ops = []
    for family in ("sprand", "torus", "layered", "collect", "supply", "taxi"):
        for i in range(SMALL_PER_FAMILY):
            sub_seed = seed * 1000 + len(games)
            # sprand games contain a Hamiltonian cycle, so they stay whole;
            # the odd-indexed games of the other families are cut, which
            # leaves most of them without strong connectivity
            cut = sub_seed if family != "sprand" and i % 2 else None
            k = len(games)
            games.append(GameDef(_small_spec(family, i, sub_seed), cut))
            ops.append(Op(k, KASI, LB))
            ops.append(Op(k, KASI, LWUB, SMALL_BOUND))
    return Workload(name="small-many", games=tuple(games), ops=tuple(ops), oracle_check=True)


WORKLOADS = {
    "lb-large": lb_large,
    "lwub-bounded": lwub_bounded,
    "small-many": small_many,
}


def cut_keep(vertex_count: int, cut_seed: int) -> list[int]:
    """The random three quarters of the vertices that a cut game keeps."""
    rng = random.Random(cut_seed)
    return rng.sample(range(vertex_count), max(1, vertex_count * 3 // 4))
