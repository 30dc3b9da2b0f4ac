import hashlib
import random

import pytest

from mpgsolve import (
    GenSpec,
    InvalidSpec,
    find_balancing_shift,
    generate,
    generators,
    oracle_lb,
    oracle_lwub,
    render_game,
    validate,
)

INF = float("inf")


class TestSprand:
    def test_factor_one_is_a_plain_cycle(self):
        g = generate(GenSpec(family="sprand", n=5, edge_factor=1.0, seed=11))
        assert g.vertex_count == 5
        assert len(g.edges) == 5
        assert all(len(g.out_adjacency[v]) == 1 for v in range(5))

    def test_rand_family_shape(self):
        spec = GenSpec(family="sprand", n=100, edge_factor=5.0, seed=3, shift=4000)
        g = generate(spec)
        assert g.vertex_count == 100
        assert len(g.edges) == 500
        assert all(1 - 4000 <= w <= 10000 - 4000 for _, _, w in g.edges)

    def test_deterministic(self):
        spec = GenSpec(family="sprand", n=40, edge_factor=2.5, seed=99)
        assert generate(spec) == generate(spec)

    def test_strongly_connected_via_hamiltonian_cycle(self):
        g = generate(GenSpec(family="sprand", n=30, edge_factor=2.0, seed=5))
        reach = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for u, _ in g.out_adjacency[v]:
                if u not in reach:
                    reach.add(u)
                    frontier.append(u)
        assert reach == set(range(30))

    def test_structure_stream_independent_of_weights(self):
        # growing the edge count must not change the weights already drawn
        small = generate(GenSpec(family="sprand", n=10, edge_factor=1.0, seed=1))
        large = generate(GenSpec(family="sprand", n=10, edge_factor=3.0, seed=1))
        assert small.edges == large.edges[: len(small.edges)]

    @pytest.mark.parametrize("spec, message", [
        (GenSpec(family="sprand", n=10, edge_factor=0.5), "edge_factor must be finite and >= 1"),
        (GenSpec(family="sprand", n=0), "n must be >= 1"),
        (GenSpec(family="torus", rows=2, cols=2, added_cycles=1, cycle_len=0), "cycle_len must be >= 1"),
        (GenSpec(family="torus", rows=2, cols=2, added_cycles=-3, cycle_len=-5), "added_cycles must be >= 0"),
        (GenSpec(family="torus", rows=2, cols=1), "rows and cols must be >= 2"),
        (GenSpec(family="layered", layers=1, width=3), "layers must be >= 2 and width >= 1"),
        (GenSpec(family="collect", grid=2, phases=0), "grid and phases must be >= 1"),
        (GenSpec(family="collect", grid=2, docks=5), "docks out of range"),
        (GenSpec(family="supply", sites=2, max_request=0), "sites and max_request must be >= 1"),
        (GenSpec(family="supply", refill=0), "refill must be positive"),
        (GenSpec(family="taxi", zones=1), "zones must be >= 2"),
        # a field another family reads is checked too
        (GenSpec(family="sprand", n=3, added_cycles=-3, cycle_len=-5), "added_cycles must be >= 0"),
        (GenSpec(family="torus", rows=2, cols=2, cycle_len=0), "cycle_len must be >= 1"),
        (GenSpec(family="collect", weight_lo=5, weight_hi=1), r"empty weight range \[5, 1\]"),
        (GenSpec(family="taxi", edge_factor=float("nan")), "edge_factor must be finite and >= 1"),
    ], ids=["edge_factor", "n", "cycle_len", "added_cycles", "torus", "layered", "collect", "docks", "supply",
            "refill", "taxi", "sprand-added_cycles", "torus-cycle_len", "collect-weights", "taxi-edge_factor"])
    def test_invalid_factor(self, spec, message):
        with pytest.raises(InvalidSpec, match=f"^{message}$"):
            generate(spec)


class TestTorus:
    def test_two_by_two_counts(self):
        g = generate(GenSpec(family="torus", rows=2, cols=2, seed=0))
        assert g.vertex_count == 4
        assert len(g.edges) == 8

    def test_added_cycles_count(self):
        g = generate(
            GenSpec(family="torus", rows=16, cols=16, added_cycles=3, cycle_len=8, seed=2)
        )
        assert g.vertex_count == 256
        assert len(g.edges) == 512 + 3 * 8

    def test_deterministic(self):
        spec = GenSpec(family="torus", rows=5, cols=7, added_cycles=2, seed=4)
        assert generate(spec) == generate(spec)


class TestLayered:
    def test_shape(self):
        g = generate(GenSpec(family="layered", layers=6, width=4, seed=8))
        assert g.vertex_count == 24
        assert len(g.edges) == 48
        validate(g)


class TestModels:
    def test_collect_with_dock_is_everywhere_winnable(self):
        g = generate(GenSpec(family="collect", grid=3, docks=1, phases=2, seed=13))
        lb = oracle_lb(g)
        assert all(x != INF for x in lb)

    def test_collect_without_dock_is_lost_everywhere(self):
        g = generate(GenSpec(family="collect", grid=3, docks=0, phases=2, seed=13))
        assert all(x == INF for x in oracle_lb(g))

    def test_supply_depot_survives_small_bound(self):
        g = generate(GenSpec(family="supply", sites=2, max_request=2, refill=3, seed=0))
        values = oracle_lwub(g, 6)
        assert values[0] != INF  # dispatch state of the depot

    def test_taxi_validates_and_is_deterministic(self):
        spec = GenSpec(family="taxi", zones=3, margin=1, seed=21)
        g = generate(spec)
        validate(g)
        assert g == generate(spec)

    def test_all_families_validate(self):
        specs = [
            GenSpec(family="sprand", n=25, edge_factor=2.0, seed=1),
            GenSpec(family="torus", rows=4, cols=4, added_cycles=1, seed=1),
            GenSpec(family="layered", layers=4, width=3, seed=1),
            GenSpec(family="collect", grid=2, docks=1, phases=2, seed=1),
            GenSpec(family="supply", sites=2, max_request=2, seed=1),
            GenSpec(family="taxi", zones=3, seed=1),
        ]
        for spec in specs:
            validate(generate(spec))

    def test_unknown_family(self):
        with pytest.raises(InvalidSpec):
            generate(GenSpec(family="nope"))


class TestPinnedBytes:
    """One game per family, byte for byte: SHA-256 digests of the rendered
    game, recorded before the fixed collect and taxi weights became module
    constants."""

    @pytest.mark.parametrize("spec, want", [
        (GenSpec(family="sprand", seed=3, n=40, edge_factor=2.5, weight_lo=-9, weight_hi=9, shift=1),
         "1718e7776178f3c0e2ea1647dc8095b7917cd2c29350e2aa3f8e9d18fbff291b"),
        (GenSpec(family="torus", seed=4, rows=5, cols=6, added_cycles=2, cycle_len=5,
                 weight_lo=-5, weight_hi=5),
         "1eb986d2289c7ca3b94d84a7cb0a9c4187163e24aee8d2a8921f21cf17b6ec1f"),
        (GenSpec(family="layered", seed=5, layers=4, width=5, added_cycles=1, weight_lo=-4, weight_hi=6),
         "2c4dba17771de37eb54377cf63de87ffc0f14116339fc86e1c45ee3fd0e4d1d5"),
        (GenSpec(family="collect", seed=6, grid=3, docks=2, phases=2),
         "9492388fd5845c70e8bb401f2101049337961136a5606daa556c5788f2c49705"),
        (GenSpec(family="supply", seed=7, sites=3, max_request=2, refill=3),
         "fd8ba629a754c62803c48764bd9c5f42d201288723a9572e4ac51e8c21db0731"),
        (GenSpec(family="taxi", seed=8, zones=4, margin=1),
         "3292539140145b95773b85c29e6f7f3bd0708bf94cbdb5380d065f1a50016cdc"),
    ], ids=lambda x: x.family if isinstance(x, GenSpec) else "")
    def test_rendered_game(self, spec, want):
        assert hashlib.sha256(render_game(generate(spec)).encode()).hexdigest() == want


class TestWeightStream:
    """Weights are ``randint(weight_lo, weight_hi) - shift`` on the weight
    substream ``seed * 8 + 2``, one draw per edge in edge order."""

    @pytest.mark.parametrize("spec", [
        GenSpec(family="sprand", seed=12, n=300, edge_factor=2.5, weight_lo=-700, weight_hi=2300, shift=41),
        GenSpec(family="torus", seed=13, rows=9, cols=11, added_cycles=4, cycle_len=6,
                weight_lo=-5, weight_hi=5, shift=-3),
        GenSpec(family="layered", seed=14, layers=7, width=9, added_cycles=3,
                weight_lo=1, weight_hi=10000, shift=5000),
    ], ids=lambda spec: spec.family)
    def test_weights_are_randint_minus_shift(self, spec):
        g = generate(spec)
        rng = random.Random(spec.seed * 8 + 2)
        want = [rng.randint(spec.weight_lo, spec.weight_hi) - spec.shift for _ in g.edges]
        assert [w for _, _, w in g.edges] == want

    @pytest.mark.parametrize("spec", [
        GenSpec(family="sprand", n=5, weight_lo=3, weight_hi=2),
        GenSpec(family="torus", rows=2, cols=3, weight_lo=0, weight_hi=-1),
        GenSpec(family="layered", layers=2, width=2, weight_lo=10, weight_hi=1, added_cycles=1),
    ], ids=lambda spec: spec.family)
    def test_empty_weight_range(self, spec):
        with pytest.raises(InvalidSpec, match=r"empty weight range \[-?\d+, -?\d+\]"):
            generate(spec)


class TestBelow:
    """``generators._below`` draws what ``randrange`` draws, from the same
    stream, and leaves the stream where ``randrange`` leaves it."""

    @pytest.mark.parametrize("width", [1, 2, 3, 2**16, 2**16 + 1, 2**40 + 3])
    def test_draw_by_draw_as_randrange(self, width):
        ours, theirs = random.Random(width), random.Random(width)
        for _ in range(500):
            assert generators._below(ours, width) == theirs.randrange(width)
        assert ours.getstate() == theirs.getstate()
        assert [ours.random() for _ in range(20)] == [theirs.random() for _ in range(20)]


class TestBalancingShift:
    def test_both_classes_present_at_found_shift(self):
        from dataclasses import replace

        from mpgsolve import winning_sign

        spec = GenSpec(family="sprand", n=20, edge_factor=3.0, seed=1,
                       weight_lo=1, weight_hi=10)
        shift = find_balancing_shift(spec, 0, 12)
        assert shift == 5
        nonneg, neg = winning_sign(generate(replace(spec, shift=shift)))
        assert nonneg and neg

    def test_unbalanceable_instance_is_reported(self):
        # every vertex flips sign at once on this strongly cyclic instance
        spec = GenSpec(family="sprand", n=12, edge_factor=2.0, seed=17,
                       weight_lo=1, weight_hi=10)
        with pytest.raises(InvalidSpec):
            find_balancing_shift(spec, 0, 12)
