"""Benchmark of mpgsolve: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload lb-large --seed 0 --seconds 10 --trace 0

The run generates the workload's games from the seed and renders them to
game text (set-up, repeated and timed), then runs whole rounds of the
workload's operations until the operations have taken ``--seconds`` of
wall time.  Every answer goes through the independent checks of
``answer_checks`` outside the timed region.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  A fuller result, and with
``--trace 1`` every recorded span, go to ``perfbench/out/``.

With ``--trace 1`` untraced and traced rounds alternate.  Traced rounds
record a span around each call into the library; the difference between
the two kinds of round is the tracing overhead.  Each KASI solve is also
replayed once through ``evaluate_strategy`` and ``improve_strategy``, which
must reproduce the witness's strategy sequence and the final ``d``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
if not (ROOT / "src" / "mpgsolve" / "__init__.py").is_file():
    sys.exit(f"error: no mpgsolve sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from mpgsolve import formats, kasi, oracle  # noqa: E402
from mpgsolve.core import GameGraph, induced_subgame, validate  # noqa: E402
from mpgsolve.errors import BudgetExceeded  # noqa: E402
from mpgsolve.generators import generate  # noqa: E402
from mpgsolve.value_iteration import vi_solve  # noqa: E402

import answer_checks  # noqa: E402
from answer_checks import CheckFailed  # noqa: E402
from workloads import KASI, LB, VI, WORKLOADS, Op, Workload, cut_keep  # noqa: E402

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3

#: Per-layer metric -> the spans whose self time it sums.
LAYER_SPANS = {
    "generators.generate_s": ("generators.generate",),
    "formats.render_game_s": ("formats.render_game",),
    "formats.parse_game_s": ("formats.parse_game",),
    "core.validate_s": ("core.validate",),
    "kasi.solve_s": ("kasi.solve_lb", "kasi.solve_lwub"),
    "kasi.evaluate_s": ("kasi.evaluate_strategy",),
    "kasi.improve_s": ("kasi.improve_strategy",),
    "value_iteration.vi_solve_s": ("value_iteration.vi_solve",),
    "formats.render_values_s": ("formats.render_values",),
    "formats.render_strategy_s": ("formats.render_strategy",),
    "formats.render_witness_s": ("formats.render_witness",),
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index].

    While ``on`` is false, ``span`` records nothing.
    """

    def __init__(self) -> None:
        self.on = False
        self.spans: list[list] = []
        self.open = -1

    def span(self, name: str, root: bool = False):
        """A span under the innermost open one, or a top-level one if ``root``."""
        return _Span(self, name, root) if self.on else _NO_SPAN

    def totals(self, root: str) -> list[dict[str, float]]:
        """Per span named ``root`` (a top-level span), the self time of its
        descendants summed by name."""
        n = len(self.spans)
        top = [0] * n
        child_time = [0.0] * n
        for i, (_, start, end, parent) in enumerate(self.spans):
            top[i] = i if parent < 0 else top[parent]
            if parent >= 0:
                child_time[parent] += end - start
        per_root: dict[int, dict[str, float]] = {
            i: {} for i, s in enumerate(self.spans) if s[3] < 0 and s[0] == root
        }
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0 and top[i] in per_root:
                acc = per_root[top[i]]
                acc[name] = acc.get(name, 0.0) + (end - start) - child_time[i]
        return list(per_root.values())

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


class _Span:
    __slots__ = ("tracer", "index", "enclosing")

    def __init__(self, tracer: Tracer, name: str, root: bool) -> None:
        self.tracer = tracer
        self.index = len(tracer.spans)
        self.enclosing = tracer.open
        tracer.spans.append([name, 0.0, 0.0, -1 if root else tracer.open])

    def __enter__(self):
        self.tracer.open = self.index
        self.tracer.spans[self.index][1] = time.perf_counter()

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer.open = self.enclosing


class _NoSpan:
    def __enter__(self):
        pass

    def __exit__(self, *exc):
        pass


_NO_SPAN = _NoSpan()


@dataclass
class Output:
    game: GameGraph  # as parsed by the operation
    values: str
    strategy: str | None = None
    witness: str | None = None
    result: kasi.SolveResult | None = None
    vi_pops: int = 0

    def summary(self) -> dict:
        """The counts a run reports, which repeat exactly from round to round."""
        return {
            "output_bytes": len(self.values) + len(self.strategy or "") + len(self.witness or ""),
            "witness_bytes": len(self.witness or ""),
            "iterations": self.result.iterations if self.result is not None else 0,
            "vi_pops": self.vi_pops,
            "inf": self.values.count("inf"),
        }


def set_up(workload: Workload, tracer: Tracer) -> tuple[list[GameGraph], list[str]]:
    """Generate the workload's games and render them to game text."""
    graphs, texts = [], []
    for gd in workload.games:
        with tracer.span("generators.generate"):
            g = generate(gd.spec)
        if gd.cut_seed is not None:
            with tracer.span("core.induced_subgame"):
                g = induced_subgame(g, cut_keep(g.vertex_count, gd.cut_seed))
        with tracer.span("formats.render_game"):
            texts.append(formats.render_game(g))
        graphs.append(g)
    return graphs, texts


def run_op(op: Op, text: str, tracer: Tracer) -> Output:
    """The library calls ``mpg solve`` makes for one game file."""
    with tracer.span("formats.parse_game"):
        g = formats.parse_game(text)
    if op.algorithm == KASI:
        if op.problem == LB:
            with tracer.span("kasi.solve_lb"):
                res = kasi.solve_lb(g)
        else:
            with tracer.span("kasi.solve_lwub"):
                res = kasi.solve_lwub(g, op.bound)
        with tracer.span("formats.render_values"):
            values = formats.render_values(res.lwub)
        with tracer.span("formats.render_strategy"):
            strategy = formats.render_strategy(res.max_strategy)
        with tracer.span("formats.render_witness"):
            witness = formats.render_witness(res.min_witness)
        return Output(g, values, strategy, witness, res)
    stats: dict = {}
    with tracer.span("value_iteration.vi_solve"):
        x = vi_solve(g, op.bound, stats=stats)
    with tracer.span("formats.render_values"):
        values = formats.render_values(x)
    return Output(g, values, vi_pops=stats["iterations"])


def replay(out: Output, bound: int, tracer: Tracer) -> int:
    """Re-run the solve's improvement loop through the public API; returns
    the number of Min switches."""
    res = out.result
    strategies = res.min_witness.strategies
    d = [0] * out.game.vertex_count
    switches = 0
    for k, strategy in enumerate(strategies):
        with tracer.span("kasi.evaluate_strategy"):
            d = kasi.evaluate_strategy(out.game, bound, strategy, d)
        with tracer.span("kasi.improve_strategy"):
            nxt, changed = kasi.improve_strategy(out.game, d, strategy)
        if k + 1 == len(strategies):
            if changed:
                raise CheckFailed("replay: the last strategy still improves")
        elif not changed or nxt != strategies[k + 1]:
            raise CheckFailed(f"replay: iteration {k} does not reproduce witness strategy {k + 1}")
        else:
            switches += sum(1 for v, u in strategy.choice.items() if nxt.choice[v] != u)
    if d != res.final_d:
        raise CheckFailed("replay: final d differs from the solve's")
    return switches


class Verifier:
    """Runs the answer checks on one rendered output per operation.

    The reference answer for a game and bound is that of the workload's VI
    operation on them, which must therefore be checked first, or else one
    that the check computes with ``vi_solve``.
    """

    def __init__(self, workload: Workload, graphs: list[GameGraph], tracer: Tracer) -> None:
        self.workload = workload
        self.graphs = graphs
        self.tracer = tracer
        self.references: dict[tuple[int, int], list] = {}
        self.vi_pops = 0  # value-iteration pops spent by the checks
        self.oracle_checked = 0
        self.oracle_skipped = 0

    def _vi(self, game: GameGraph, bound: int) -> list:
        stats: dict = {}
        with self.tracer.span("value_iteration.vi_solve"):
            x = vi_solve(game, bound, stats=stats)
        self.vi_pops += stats["iterations"]
        return x

    def check(self, op: Op, rendered: tuple) -> None:
        game = self.graphs[op.game]
        with self.tracer.span("check", root=True):
            if op.problem == LB:
                x = answer_checks.check_kasi_lb(game, *rendered, solve_vi=self._vi)
            else:
                key = (op.game, op.bound)
                if op.algorithm == VI:
                    self.references.setdefault(key, answer_checks.parse_values(rendered[0], game.vertex_count))
                elif key not in self.references:
                    self.references[key] = self._vi(game, op.bound)
                x = answer_checks.check_lwub(game, op.bound, *rendered, reference=self.references[key])
            if self.workload.oracle_check:
                self._check_oracle(game, op, x)

    def _check_oracle(self, game: GameGraph, op: Op, x: list) -> None:
        try:
            if op.problem == LB:
                want = oracle.oracle_lb(game)
            else:
                want = oracle.oracle_lwub(game, op.bound)
        except BudgetExceeded:
            self.oracle_skipped += 1
            return
        answer_checks.check_reference(x, want, "the oracle")
        self.oracle_checked += 1


def _p99(values: list[float]) -> float:
    """The 99th percentile when at least ten samples lie beyond it; a run
    with fewer than 1,000 operations has no such tail, and gets the median."""
    if len(values) < 1000:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def run(workload: Workload, seconds: float, trace: bool) -> dict:
    tracer = Tracer()
    tracer.on = trace
    problems: list[str] = []

    setup_times = []
    graphs, texts = None, None
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        with tracer.span("setup"):
            g2, t2 = set_up(workload, tracer)
        setup_times.append(time.perf_counter() - t0)
        if texts is None:
            graphs, texts = g2, t2
        elif t2 != texts:
            problems.append("set-up is not deterministic")
    del g2, t2

    verifier = Verifier(workload, graphs, tracer)
    bounds = [op.bound if op.problem != LB else answer_checks.lb_bound(graphs[op.game])
              for op in workload.ops]
    # the set-up's games stay alive all run; keep the collector off them
    gc.collect()
    gc.freeze()
    times: dict[bool, list[float]] = {False: [], True: []}  # op wall times, untraced / traced
    spent = 0.0
    attempted = failed = 0
    outputs: dict[int, tuple] = {}  # op index -> rendered output of its first run
    summaries: dict[int, dict] = {}
    untraced_times: list[list[float]] = [[] for _ in workload.ops]  # per op index
    replayed: dict[int, int] = {}  # op index -> Min switches
    traced_round = False
    while True:
        gc.collect()
        tracer.on = traced_round
        with tracer.span("round"):
            for i, op in enumerate(workload.ops):
                attempted += 1
                t0 = time.perf_counter()
                try:
                    with tracer.span("op"):
                        out = run_op(op, texts[op.game], tracer)
                except Exception as exc:  # counted, and the run goes on
                    spent += time.perf_counter() - t0
                    failed += 1
                    print(f"operation {i} failed: {exc!r}", file=sys.stderr)
                    continue
                dt = time.perf_counter() - t0
                spent += dt
                times[traced_round].append(dt)
                if not traced_round:
                    untraced_times[i].append(dt)
                rendered = (out.values, out.strategy, out.witness)
                if outputs.setdefault(i, rendered) != rendered:
                    problems.append(f"operation {i}: output differs between rounds")
                summaries.setdefault(i, out.summary())
                if traced_round:
                    with tracer.span("core.validate"):
                        validate(out.game)
                    if out.result is not None and i not in replayed:
                        try:
                            with tracer.span("replay", root=True):
                                replayed[i] = replay(out, bounds[i], tracer)
                        except CheckFailed as exc:
                            problems.append(f"operation {i}: {exc}")
                del out, rendered
        if trace:
            traced_round = not traced_round
        if spent >= seconds and not traced_round:
            break
    # read before the checks, whose own memory is no part of the workload
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer.on = trace
    for i, rendered in sorted(outputs.items(), key=lambda item: workload.ops[item[0]].algorithm != VI):
        try:
            verifier.check(workload.ops[i], rendered)
        except CheckFailed as exc:
            problems.append(f"operation {i}: {exc}")
    tracer.on = False

    ops = list(summaries.values())
    if trace:
        metrics = _layer_metrics(workload, tracer, ops, verifier, replayed, times)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{workload.name}-spans.jsonl")
    else:
        op_times = times[False]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_s": statistics.median(op_times),
            "op_p99_s": _p99(op_times),
            "ops_per_s": len(op_times) / sum(op_times),
            "peak_rss_mb": peak_rss_mb,
            "output_bytes": sum(s["output_bytes"] for s in ops),
        }
    return {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": _details(workload, graphs, summaries, bounds, untraced_times, replayed, verifier),
    }


def _layer_metrics(workload, tracer, ops, verifier, replayed, times) -> dict:
    def median_of(root: str, metric: str) -> float:
        per_root = tracer.totals(root)
        return statistics.median(sum(t.get(s, 0.0) for s in LAYER_SPANS[metric]) for t in per_root)

    def total_of(root: str, metric: str) -> float:
        return sum(t.get(s, 0.0) for t in tracer.totals(root) for s in LAYER_SPANS[metric])

    vi_in_ops = any(op.algorithm != KASI for op in workload.ops)
    metrics = {
        "generators.generate_s": median_of("setup", "generators.generate_s"),
        "formats.render_game_s": median_of("setup", "formats.render_game_s"),
        "kasi.evaluate_s": total_of("replay", "kasi.evaluate_s"),
        "kasi.improve_s": total_of("replay", "kasi.improve_s"),
        "value_iteration.vi_solve_s": (median_of("round", "value_iteration.vi_solve_s") if vi_in_ops
                                       else total_of("check", "value_iteration.vi_solve_s")),
        "value_iteration.pops": sum(s["vi_pops"] for s in ops) if vi_in_ops else verifier.vi_pops,
        "kasi.iterations": sum(s["iterations"] for s in ops),
        "kasi.min_switches": sum(replayed.values()),
        "formats.witness_bytes": sum(s["witness_bytes"] for s in ops),
        "trace.overhead_pct": 100 * (sum(times[True]) / sum(times[False]) - 1),
    }
    for name in ("formats.parse_game_s", "core.validate_s", "kasi.solve_s", "formats.render_values_s",
                 "formats.render_strategy_s", "formats.render_witness_s"):
        metrics[name] = median_of("round", name)
    return metrics


def _details(workload, graphs, summaries, bounds, untraced_times, replayed, verifier) -> dict:
    """The workload's make-up, for the record: sizes, bounds, answers."""
    rows = []
    for i, summary in sorted(summaries.items()):
        op = workload.ops[i]
        g = graphs[op.game]
        rows.append({
            "op": i,
            "family": workload.games[op.game].spec.family,
            "n": g.vertex_count,
            "m": len(g.edges),
            "algorithm": op.algorithm,
            "problem": op.problem,
            "bound": bounds[i],
            **summary,
            "median_s": statistics.median(untraced_times[i]) if untraced_times[i] else None,
            "min_switches": replayed.get(i),
        })
    return {
        "ops": rows,
        "untraced_runs_per_op": len(untraced_times[0]),
        "oracle_checked": verifier.oracle_checked,
        "oracle_skipped": verifier.oracle_skipped,
        "python": sys.version.split()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload](args.seed)
    result = run(workload, args.seconds, bool(args.trace))
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    line = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**line, "details": result["details"]}, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
