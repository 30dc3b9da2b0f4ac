"""Acceptance suite: one test per criterion, one printed pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 11 times 20k-vertex instances and dominates the runtime
of this module (a few minutes); everything else finishes in seconds.
"""

import random
import statistics
import time

import pytest

from mpgsolve import (
    GenSpec,
    Owner,
    PositionalStrategy,
    generate,
    improve_strategy,
    memory_game,
    MEMORY_GAME_BOUND,
    oracle_lb,
    oracle_lwub,
    restrict_to_strategy,
    solve_lb,
    solve_lwub,
    verify_min_witness,
    vi_solve,
    winning_sign,
)
from mpgsolve.core import max_abs_weight
from mpgsolve.errors import TimeLimitExceeded
from mpgsolve.cli import main as cli_main
from conftest import certified, evaluated, random_game
from reference import oracle_value_sign

INF = float("inf")


def _report(num: int, name: str, detail: str = ""):
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num:2d} ({name}): pass{suffix}")


@pytest.fixture(scope="module")
def small_corpus():
    """2000 seeded games, |V| <= 7, W <= 4, bounds in 0..10, each result
    certified."""
    rng = random.Random(987001)
    corpus = []
    for _ in range(2000):
        g = random_game(rng, n_max=7, w_max=4)
        b = rng.randint(0, 10)
        res = certified(g, b)
        corpus.append((g, b, res))
    return corpus


def test_criterion_01_oracle_equivalence_lwub(small_corpus):
    t0 = time.perf_counter()
    for g, b, res in small_corpus:
        assert res.lwub == oracle_lwub(g, b)
    _report(1, "oracle equivalence, bounded", f"2000 games, {time.perf_counter() - t0:.1f}s")


def test_criterion_02_oracle_equivalence_lb(small_corpus):
    for g, _, _ in small_corpus:
        assert certified(g).lwub == oracle_lb(g)
    _report(2, "oracle equivalence, unbounded", "2000 games")


def _mixed_corpus():
    rng = random.Random(444555)
    specs = []
    for i in range(200):
        specs.append(GenSpec(family="sprand", n=rng.choice([20, 50, 100, 150, 200]),
                             edge_factor=rng.choice([1.5, 2.0, 3.0]),
                             weight_lo=-5, weight_hi=5, seed=i))
    for i in range(100):
        specs.append(GenSpec(family="torus", rows=rng.randint(4, 14), cols=rng.randint(4, 14),
                             added_cycles=rng.randint(0, 3), cycle_len=rng.randint(3, 8),
                             weight_lo=-5, weight_hi=5, seed=i))
    for i in range(50):
        specs.append(GenSpec(family="layered", layers=rng.randint(4, 20),
                             width=rng.randint(2, 10), weight_lo=-5, weight_hi=5, seed=i))
    for i in range(50):
        specs.append(GenSpec(family="collect", grid=rng.randint(2, 3), docks=rng.randint(0, 2),
                             phases=rng.randint(1, 2), seed=i))
    for i in range(50):
        specs.append(GenSpec(family="supply", sites=rng.randint(1, 3),
                             max_request=rng.randint(1, 3), refill=rng.randint(1, 4), seed=i))
    for i in range(50):
        specs.append(GenSpec(family="taxi", zones=rng.randint(2, 4),
                             margin=rng.randint(0, 2), seed=i))
    for spec in specs:
        g = generate(spec)
        if g.vertex_count <= 40 and rng.random() < 0.3:
            b = (g.vertex_count - 1) * max_abs_weight(g)  # reduction bound
        else:
            b = rng.randint(0, 40)
        yield g, b


def test_criterion_03_vi_agreement():
    t0 = time.perf_counter()
    count = 0
    for g, b in _mixed_corpus():
        assert vi_solve(g, b) == certified(g, b).lwub
        count += 1
    elapsed = time.perf_counter() - t0
    assert count >= 500
    assert elapsed < 120
    _report(3, "value-iteration agreement", f"{count} instances, {elapsed:.1f}s")


def test_criterion_04_sign_agreement():
    rng = random.Random(777)
    for _ in range(300):
        g = random_game(rng, n_max=6, w_max=4)
        sign = winning_sign(g)
        assert sign == oracle_value_sign(g)
        assert sign[1] == tuple(v for v, x in enumerate(certified(g).lwub) if x == INF)
    _report(4, "value-sign agreement", "300 games")


def _manual_run(g, b):
    """Drive the solver loop through the public per-step operations,
    returning every evaluation output (entry conditions checked each time,
    and each output compared with the reference evaluation)."""
    pi = PositionalStrategy(
        Owner.MIN,
        {v: min(u for u, _ in g.out_adjacency[v]) for v in g.vertices_of(Owner.MIN)},
    )
    d = [0] * g.vertex_count
    history = []
    while True:
        d2 = evaluated(g, b, pi, d)
        history.append(d2)
        pi2, changed = improve_strategy(g, d2, pi)
        if not changed:
            return history
        pi, d = pi2, d2


def test_criterion_05_descent(small_corpus):
    entries = 0
    for g, b, _ in small_corpus[:500]:
        history = _manual_run(g, b)
        entries += len(history)
        for earlier, later in zip(history, history[1:]):
            assert all(y <= x for x, y in zip(earlier, later))
            assert any(y < x for x, y in zip(earlier, later))
    _report(5, "strict descent per improvement", f"{entries} evaluations")


def test_criterion_06_iteration_budgets(small_corpus):
    for g, _, res in small_corpus:
        n = g.vertex_count
        w = max_abs_weight(g)
        assert res.iterations <= n * n * w + 1
    # inner evaluation passes are asserted inside every solve (<= |V|)
    _report(6, "iteration budgets", "2000 solves")


def test_criterion_07_entry_conditions(small_corpus):
    # a solve checks conditions (i) and (ii) only at its first evaluation,
    # so the manual loop checks them at every evaluation entry of the whole
    # corpus (condition (i) by a cycle test on the tight edges, at every
    # size), through the public evaluation operation
    entries = sum(len(_manual_run(g, b)) for g, b, _ in small_corpus)
    assert entries >= 2000
    _report(7, "entry conditions (i)/(ii)", f"{entries} checked entries")


def test_criterion_08_min_needs_memory():
    g = memory_game()
    b = MEMORY_GAME_BOUND
    res = certified(g, b)
    assert res.lwub == [0, 12, INF, INF]
    assert res.lwub == oracle_lwub(g, b)
    # neither positional strategy alone beats vertex 2
    for target in (0, 3):
        fixed = restrict_to_strategy(g, PositionalStrategy(Owner.MIN, {2: target}))
        assert oracle_lwub(fixed, b)[2] != INF
    trace = verify_min_witness(g, b, res.min_witness, 2, b)
    assert trace.min_segment_weight() == -20
    _report(8, "min-needs-memory witness", f"trace {trace.vertices}, segment -20")


def test_criterion_09_max_strategy_sufficiency(small_corpus):
    checked = 0
    for g, b, res in small_corpus:
        fixed = restrict_to_strategy(g, res.max_strategy)
        against = oracle_lwub(fixed, b)
        for v in range(g.vertex_count):
            if res.lwub[v] != INF:
                assert against[v] == res.lwub[v]
                checked += 1
    _report(9, "max strategy sufficiency", f"{checked} vertices")


def test_criterion_10_bound_monotonicity(small_corpus):
    for g, _, _ in small_corpus:
        previous = None
        for b in range(11):
            current = solve_lwub(g, b).lwub
            if previous is not None:
                assert all(x <= y for x, y in zip(current, previous))
            previous = current
        reduction = (g.vertex_count - 1) * max_abs_weight(g)
        assert solve_lwub(g, reduction).lwub == solve_lb(g).lwub
        if reduction >= 10:
            assert all(x <= y for x, y in zip(solve_lwub(g, reduction).lwub, previous))
    _report(10, "bound monotonicity", "b in 0..10 plus reduction bound")


def test_criterion_12_determinism(tmp_path):
    # generator and solver outputs are byte-identical across identical runs
    gen_argv = ["gen", "--family", "sprand", "--n", "200", "--edge-factor", "3",
                "--seed", "42", "--weight-lo", "-8", "--weight-hi", "8"]
    a, b = tmp_path / "a.mpg", tmp_path / "b.mpg"
    assert cli_main(gen_argv + ["--output", str(a)]) == 0
    assert cli_main(gen_argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    outputs = []
    for tag in ("x", "y"):
        out = tmp_path / f"{tag}.out"
        sig = tmp_path / f"{tag}.sigma"
        wit = tmp_path / f"{tag}.witness"
        assert cli_main(["solve", "--problem", "lwub", "--bound", "40",
                         "--output", str(out), "--emit-strategy", str(sig),
                         "--emit-witness", str(wit), str(a)]) == 0
        outputs.append(out.read_bytes() + sig.read_bytes() + wit.read_bytes())
    assert outputs[0] == outputs[1]

    spec = GenSpec(family="torus", rows=6, cols=6, added_cycles=2, seed=9)
    assert generate(spec) == generate(spec)
    _report(12, "byte-identical reruns", "gen + solve outputs")


def test_criterion_11_runtime_ordering():
    """Desk-scale echo of the published comparison: on 20k-vertex random
    instances with a large negative-value region, the unbounded problem is
    at least 5x slower for value iteration than for strategy improvement.
    Value-iteration runs are cut off once they prove the 5x floor, so the
    reported numbers are lower bounds on its true runtime."""
    seeds = range(10)
    kasi_times = []
    games = []
    for seed in seeds:
        spec = GenSpec(family="sprand", n=20000, edge_factor=2.0, seed=seed,
                       weight_lo=1, weight_hi=10, shift=6)
        g = generate(spec)
        t0 = time.perf_counter()
        res = solve_lb(g)
        kasi_times.append(time.perf_counter() - t0)
        negative = sum(1 for x in res.lwub if x == INF)
        assert negative >= 0.25 * g.vertex_count
        games.append(g)
    kasi_median = statistics.median(kasi_times)

    cutoff = 5.05 * kasi_median
    vi_times = []
    finished = 0
    for g in games:
        bound = (g.vertex_count - 1) * max_abs_weight(g)
        t0 = time.perf_counter()
        try:
            vi_solve(g, bound, time_limit=cutoff)
            finished += 1
        except TimeLimitExceeded:
            pass
        vi_times.append(time.perf_counter() - t0)
    vi_median = statistics.median(vi_times)

    assert vi_median >= 5 * kasi_median
    detail = (
        f"kasi median {kasi_median:.2f}s, vi median >= {vi_median:.2f}s"
        f" ({10 - finished}/10 cut off)"
    )
    print(f"criterion 11 absolute times: kasi {['%.2f' % t for t in kasi_times]}")
    print(f"criterion 11 absolute times: vi   {['%.2f' % t for t in vi_times]} (lower bounds)")
    _report(11, "qualitative runtime ordering", detail)
