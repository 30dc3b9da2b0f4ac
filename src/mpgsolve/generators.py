"""Seeded instance generators.

Families:

* ``sprand``  - a random Hamiltonian cycle plus extra uniform random edges,
  weights uniform in a range and then shifted down by a constant;
* ``torus``   - a 2-d grid with wrap-around (right and down neighbours),
  optionally with extra random cycles;
* ``layered`` - layers connected forward and wrapping around in the layer
  dimension, a documented approximation of layered networks on a torus;
* ``collect`` / ``supply`` / ``taxi`` - small reactive-system models, see
  the builders below.

Generation is a pure function of the spec.  Randomness comes from the
stdlib Mersenne Twister with one substream per phase (structure, weights,
owners), derived as ``seed * 8 + phase``, so adding structure never
perturbs the weights already drawn and owner assignment is independent of
both.  The ``sprand``, ``torus`` and ``layered`` builders take their vertex
ids from one ``list(range(n))``, so each id is one int object in the game
they build.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import INF, GameGraph, Owner
from .errors import InvalidSpec

_PHASE_STRUCTURE = 1
_PHASE_WEIGHTS = 2
_PHASE_OWNERS = 3

# collect: robot action weights; a move onto the item cell stays negative
_IDLE_COST = -1
_MOVE_COST = -2
_RECHARGE = 5
_ITEM_VALUE = 1
# taxi: the fee for declining a ride
_IDLE_FEE = -1


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generated instance.  :func:`generate` checks every
    field, whatever the family; a family ignores the fields it does not
    read."""

    family: str
    seed: int = 0
    # sprand
    n: int = 0
    edge_factor: float = 2.0
    # torus / layered grids
    rows: int = 0
    cols: int = 0
    layers: int = 0
    width: int = 0
    added_cycles: int = 0
    cycle_len: int = 8
    # weights
    weight_lo: int = 1
    weight_hi: int = 10000
    shift: int = 0
    # collect
    grid: int = 3
    docks: int = 1
    phases: int = 2
    # supply
    sites: int = 2
    max_request: int = 2
    refill: int = 3
    # taxi
    zones: int = 3
    margin: int = 1


def _rng(spec: GenSpec, phase: int) -> random.Random:
    return random.Random(spec.seed * 8 + phase)


def _below(rng: random.Random, width: int) -> int:
    """The draw ``rng.randrange(width)`` makes for a positive ``width``, on
    the same stream, without its Python-level call chain: ``getrandbits``
    of the width's bit length until the value is below the width."""
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    return r


def _weight_draw(spec: GenSpec):
    """A callable returning the game's next weight, ``randint(weight_lo,
    weight_hi) - shift`` on the weight substream: ``randint(a, b)`` is
    ``randrange(a, b + 1)``, which is ``a`` plus a draw below the width."""
    rng = _rng(spec, _PHASE_WEIGHTS)
    lo, width = spec.weight_lo - spec.shift, spec.weight_hi - spec.weight_lo + 1
    return lambda: lo + _below(rng, width)


def _draw_owners(spec: GenSpec, n: int) -> list[Owner]:
    rng = _rng(spec, _PHASE_OWNERS)
    return [Owner.MAX if _below(rng, 2) == 0 else Owner.MIN for _ in range(n)]


def gen_sprand(spec: GenSpec) -> GameGraph:
    """Random Hamiltonian cycle plus ``edge_factor * n - n`` random edges."""
    n = spec.n
    m = int(spec.edge_factor * n)
    structure = _rng(spec, _PHASE_STRUCTURE)
    draw = _weight_draw(spec)
    ids = list(range(n))
    perm = ids[:]
    structure.shuffle(perm)
    edges = []
    for i in range(n):
        edges.append((perm[i], perm[(i + 1) % n], draw()))
    for _ in range(m - n):
        # choice(ids) would draw these ids
        u = ids[_below(structure, n)]
        v = ids[_below(structure, n)]
        edges.append((u, v, draw()))
    return GameGraph(n, _draw_owners(spec, n), edges)


def _add_cycles(spec: GenSpec, ids: list[int], edges, structure, draw) -> None:
    for _ in range(spec.added_cycles):
        k = min(spec.cycle_len, len(ids))
        cyc = structure.sample(ids, k)  # the indices sample(range(n), k) draws
        for i in range(k):
            edges.append((cyc[i], cyc[(i + 1) % k], draw()))


def _wrap_grid(spec: GenSpec, rows: int, cols: int, steps) -> GameGraph:
    """A ``rows`` by ``cols`` grid with wrap-around in both dimensions: each
    cell, in row-major order, has one edge per ``(dr, dc)`` step, plus the
    spec's added cycles."""
    n = rows * cols
    structure = _rng(spec, _PHASE_STRUCTURE)
    draw = _weight_draw(spec)
    ids = list(range(n))
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = ids[r * cols + c]
            for dr, dc in steps:
                edges.append((v, ids[(r + dr) % rows * cols + (c + dc) % cols], draw()))
    _add_cycles(spec, ids, edges, structure, draw)
    return GameGraph(n, _draw_owners(spec, n), edges)


def gen_torus(spec: GenSpec) -> GameGraph:
    """Grid with wrap-around: every cell points right and down."""
    return _wrap_grid(spec, spec.rows, spec.cols, ((0, 1), (1, 0)))


def gen_layered(spec: GenSpec) -> GameGraph:
    """Layered approximation: layer l feeds layer l+1 (wrapping), each vertex
    hitting the same and the next column of the next layer."""
    return _wrap_grid(spec, spec.layers, spec.width, ((1, 0), (1, 1)))


def _gen_collect(spec: GenSpec) -> GameGraph:
    """Robot-on-a-grid model.

    States are (cell, phase) pairs, doubled into a robot half (Max) and a
    scheduler half (Min).  The robot idles (-1), moves four-ways (-2),
    recharges on a dock cell (+5) and collects the phase's item cell on
    entry (+1, so the move still costs -1); after each robot action the
    scheduler re-picks the phase over weight-0 edges.  The energy account is
    the battery; it is not part of the state space.
    """
    side = spec.grid
    cells = side * side
    structure = _rng(spec, _PHASE_STRUCTURE)
    dock_cells = set(structure.sample(range(cells), spec.docks))
    item_cells = [structure.randrange(cells) for _ in range(spec.phases)]

    def robot(cell: int, phase: int) -> int:
        return 2 * (phase * cells + cell)

    def scheduler(cell: int, phase: int) -> int:
        return robot(cell, phase) + 1

    n = 2 * cells * spec.phases
    owners = [Owner.MAX] * n
    edges = []
    for phase in range(spec.phases):
        for cell in range(cells):
            owners[scheduler(cell, phase)] = Owner.MIN
            r, c = divmod(cell, side)
            moves = [(cell, _IDLE_COST)]
            for r2, c2 in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if 0 <= r2 < side and 0 <= c2 < side:
                    dest = r2 * side + c2
                    w = _MOVE_COST
                    if dest == item_cells[phase]:
                        w += _ITEM_VALUE
                    moves.append((dest, w))
            if cell in dock_cells:
                moves.append((cell, _RECHARGE))
            for dest, w in moves:
                edges.append((robot(cell, phase), scheduler(dest, phase), w))
            for phase2 in range(spec.phases):
                edges.append((scheduler(cell, phase), robot(cell, phase2), 0))
    return GameGraph(n, owners, edges)


def _gen_supply(spec: GenSpec) -> GameGraph:
    """Delivery-truck model.

    A dispatcher (Min) at each site issues a request (site, amount) over
    weight-0 edges; the truck (Max) either delivers straight away (-amount)
    or restocks first (+refill - amount).  The material stock is the energy
    account.  Site 0 is the depot.
    """
    sites, rmax = spec.sites, spec.max_request

    def dispatch(s: int) -> int:
        return s

    def pending(s: int, t: int, a: int) -> int:
        return sites + ((s * sites + t) * rmax + (a - 1))

    n = sites + sites * sites * rmax
    owners = [Owner.MIN] * sites + [Owner.MAX] * (sites * sites * rmax)
    edges = []
    for s in range(sites):
        for t in range(sites):
            for a in range(1, rmax + 1):
                edges.append((dispatch(s), pending(s, t, a), 0))
                edges.append((pending(s, t, a), dispatch(t), -a))
                edges.append((pending(s, t, a), dispatch(t), spec.refill - a))
    return GameGraph(n, owners, edges)


def _gen_taxi(spec: GenSpec) -> GameGraph:
    """Taxi model.

    Riders (Min) request trips between zones on a ring; the taxi (Max)
    either accepts (earning the trip distance plus a margin, minus the
    deadhead distance to the pickup) or declines and pays an idle fee of 1.
    The cash balance is the energy account.
    """
    zones = spec.zones

    def ring(a: int, b: int) -> int:
        d = abs(a - b)
        return min(d, zones - d)

    def idle(z: int) -> int:
        return z

    offered: dict[tuple[int, int, int], int] = {}
    for z in range(zones):
        for a in range(zones):
            for b in range(zones):
                if a != b:
                    offered[(z, a, b)] = zones + len(offered)

    n = zones + len(offered)
    owners = [Owner.MIN] * zones + [Owner.MAX] * len(offered)
    edges = []
    for (z, a, b), o in offered.items():
        edges.append((idle(z), o, 0))
        edges.append((o, idle(b), -ring(z, a) + ring(a, b) + spec.margin))
        edges.append((o, idle(z), _IDLE_FEE))
    return GameGraph(n, owners, edges)


FAMILIES = {
    "sprand": gen_sprand,
    "torus": gen_torus,
    "layered": gen_layered,
    "collect": _gen_collect,
    "supply": _gen_supply,
    "taxi": _gen_taxi,
}


def _check_spec(spec: GenSpec) -> None:
    """Raise InvalidSpec at the first field of ``spec`` out of range.  Every
    field is checked whatever the family, so a flag meant for another family
    cannot pass silently, and no message names a family; only the sizes
    that default to 0 (``n``, ``rows``, ``cols``, ``layers``, ``width``)
    have a larger least value in the family that reads them."""
    family = spec.family
    n = 1 if family == "sprand" else 0
    grid = 2 if family == "torus" else 0
    layers, width = (2, 1) if family == "layered" else (0, 0)
    for bad, message in (
        (family not in FAMILIES, f"unknown family {family!r}; choose from {sorted(FAMILIES)}"),
        (spec.n < n, f"n must be >= {n}"),
        (not 1 <= spec.edge_factor < INF, "edge_factor must be finite and >= 1"),  # NaN included
        (min(spec.rows, spec.cols) < grid, f"rows and cols must be >= {grid}"),
        (spec.layers < layers or spec.width < width, f"layers must be >= {layers} and width >= {width}"),
        (spec.added_cycles < 0, "added_cycles must be >= 0"),
        (spec.cycle_len < 1, "cycle_len must be >= 1"),
        (spec.weight_lo > spec.weight_hi, f"empty weight range [{spec.weight_lo}, {spec.weight_hi}]"),
        (spec.grid < 1 or spec.phases < 1, "grid and phases must be >= 1"),
        (not 0 <= spec.docks <= spec.grid * spec.grid, "docks out of range"),
        (spec.sites < 1 or spec.max_request < 1, "sites and max_request must be >= 1"),
        (spec.refill <= 0, "refill must be positive"),
        (spec.zones < 2, "zones must be >= 2"),
    ):
        if bad:
            raise InvalidSpec(message)


def generate(spec: GenSpec) -> GameGraph:
    """Dispatch on ``spec.family``, once :func:`_check_spec` has checked
    ``spec``."""
    _check_spec(spec)
    return FAMILIES[spec.family](spec)
