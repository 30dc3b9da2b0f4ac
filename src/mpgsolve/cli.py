"""Command-line frontend: solve, gen and verify subcommands.

Exit codes: 0 ok, 1 broken internal invariant, 2 input error, 3 budget or
time limit exceeded.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import fields
from pathlib import Path

from . import formats, kasi, oracle
from .checker import certify
from .core import GameGraph, induced_subgame, reduction_bound
from .errors import (
    BudgetExceeded,
    GameError,
    InvalidSpec,
    OverflowRisk,
    ParseError,
    TimeLimitExceeded,
    ValidationError,
)
from .generators import FAMILIES, GenSpec, generate
from .value_iteration import vi_solve


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def cmd_solve(args) -> int:
    graph = formats.parse_game(_read_input(args.input))
    if args.problem == "lwub" and args.bound is None:
        raise InvalidSpec("--bound is required when --problem lwub")
    if args.problem == "lb" and args.bound is not None:
        raise InvalidSpec("--bound only applies to --problem lwub")
    if args.algorithm == "kasi":
        if args.problem == "lb":
            res = kasi.solve_lb(graph, time_limit=args.time_limit)
        else:
            res = kasi.solve_lwub(graph, args.bound, time_limit=args.time_limit)
        if args.check:
            certify(graph, reduction_bound(graph) if args.problem == "lb" else args.bound, res)
        values = res.lwub
        if args.emit_strategy:
            _write_output(args.emit_strategy, formats.render_strategy(res.max_strategy))
        if args.emit_witness:
            _write_output(args.emit_witness, formats.render_witness(res.min_witness))
    else:
        if args.check or args.emit_strategy or args.emit_witness:
            raise InvalidSpec("--check, --emit-strategy and --emit-witness need --algorithm kasi")
        bound = reduction_bound(graph) if args.problem == "lb" else args.bound
        values = vi_solve(graph, bound, time_limit=args.time_limit)
    _write_output(args.output, formats.render_values(values))
    return 0


def cmd_gen(args) -> int:
    # the gen flags are named after the GenSpec fields they set
    spec = GenSpec(**{f.name: getattr(args, f.name) for f in fields(GenSpec)})
    graph = generate(spec)
    _write_output(args.output, formats.render_game(graph))
    return 0


def _verify_one(graph: GameGraph, bound: int, budget: int):
    """Returns None on agreement, else (expected, kasi, vi)."""
    want = oracle.oracle_lwub(graph, bound, budget=budget)
    res = kasi.solve_lwub(graph, bound)
    via_vi = vi_solve(graph, bound)
    if want == res.lwub == via_vi:
        certify(graph, bound, res)  # Max's strategy and Min's witness too
        return None
    return want, res.lwub, via_vi


def _shrink(graph: GameGraph, bound: int, budget: int) -> GameGraph:
    # greedily delete vertices while the solvers still disagree
    current = graph
    improved = True
    while improved and current.vertex_count > 1:
        improved = False
        for v in range(current.vertex_count):
            keep = [u for u in range(current.vertex_count) if u != v]
            smaller = induced_subgame(current, keep)
            try:
                if _verify_one(smaller, bound, budget) is not None:
                    current = smaller
                    improved = True
                    break
            except GameError:
                continue
    return current


def _small_spec(rng: random.Random, family: str, n_max: int, w_max: int) -> GenSpec:
    """A random instance of ``family`` with 1 to 21 vertices (sprand: 1 to
    ``2 * n_max``); ``w_max`` bounds the weights of sprand, torus and layered."""
    seed = rng.randrange(2**32)
    weights = {"weight_lo": -w_max, "weight_hi": w_max}
    if family == "sprand":
        return GenSpec(family=family, seed=seed, n=rng.randint(1, 2 * n_max),
                       edge_factor=rng.choice([1.0, 1.5, 2.0, 3.0]), **weights)
    if family == "torus":
        return GenSpec(family=family, seed=seed, rows=rng.randint(2, 4), cols=rng.randint(2, 4),
                       **weights)
    if family == "layered":
        return GenSpec(family=family, seed=seed, layers=rng.randint(2, 4),
                       width=rng.randint(1, 4), **weights)
    if family == "collect":
        return GenSpec(family=family, seed=seed, grid=rng.randint(1, 2),
                       phases=rng.randint(1, 2), docks=rng.randint(0, 1))
    if family == "supply":
        return GenSpec(family=family, seed=seed, sites=rng.randint(1, 3),
                       max_request=rng.randint(1, 2), refill=rng.randint(1, 3))
    return GenSpec(family=family, seed=seed, zones=rng.randint(2, 3), margin=rng.randint(0, 2))


def cmd_verify(args) -> int:
    for flag, least in (("n_max", 1), ("bound_max", 0), ("w_max", 0), ("trials", 0), ("budget", 0)):
        value = getattr(args, flag)
        if value < least:
            raise InvalidSpec(f"--{flag.replace('_', '-')} must be >= {least}, got {value}")
    rng = random.Random(args.seed)
    for trial in range(args.trials):
        graph = generate(_small_spec(rng, rng.choice(list(FAMILIES)), args.n_max, args.w_max))
        # cut to at most n_max vertices, which leaves most games without
        # strong connectivity
        size = min(graph.vertex_count, rng.randint(1, args.n_max))
        graph = induced_subgame(graph, rng.sample(range(graph.vertex_count), size))
        bound = rng.randint(0, args.bound_max)
        disagreement = _verify_one(graph, bound, args.budget)
        if disagreement is not None:
            shrunk = _shrink(graph, bound, args.budget)
            print(f"disagreement at trial {trial} (bound {bound}); minimized instance:")
            sys.stdout.write(formats.render_game(shrunk))
            want, got, via_vi = _verify_one(shrunk, bound, args.budget) or disagreement
            print(f"oracle: {want}")
            print(f"kasi:   {got}")
            print(f"vi:     {via_vi}")
            return 1
    print(f"{args.trials}/{args.trials} agree")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mpg",
        description="Solvers, generators and a differential tester for energy problems on mean-payoff games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance")
    p.add_argument("input", help="game file, or - for standard input")
    p.add_argument("--algorithm", choices=["kasi", "vi"], default="kasi")
    p.add_argument("--problem", choices=["lb", "lwub"], default="lb")
    p.add_argument("--bound", type=int, default=None, help="truncation bound (lwub only)")
    p.add_argument("--output", default=None, help="result file (default stdout)")
    p.add_argument("--emit-strategy", default=None, help="write the optimal Max strategy here")
    p.add_argument("--emit-witness", default=None, help="write Min's strategy sequence here: her last strategy in full, "
                   "each earlier one as its differences from the next (one block for lb)")
    p.add_argument("--check", action="store_true",
                   help="certify the answer before writing it, exit 1 if it is wrong (kasi only; "
                   "--time-limit bounds the solve, not the certificate)")
    p.add_argument("--time-limit", type=float, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--family", required=True, choices=FAMILIES)
    for f in fields(GenSpec)[1:]:  # family, the one field without a default, is first
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="differential-test the solvers against the oracle")
    p.add_argument("--n-max", type=int, default=7)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--bound-max", type=int, default=10)
    p.add_argument("--w-max", type=int, default=4,
                   help="weight range [-w, w] of the sprand, torus and layered games")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_STATE_BUDGET)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, InvalidSpec, OverflowRisk, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceeded, TimeLimitExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except GameError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
