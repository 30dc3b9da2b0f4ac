from dataclasses import fields
from pathlib import Path

from mpgsolve import GenSpec, InvariantViolation, generate, memory_game, parse_game, render_game, two_vertex_duel
from mpgsolve import cli
from mpgsolve.cli import build_parser, main


def write_memory_game(tmp_path: Path) -> Path:
    path = tmp_path / "memory.mpg"
    path.write_text(render_game(memory_game()))
    return path


def write_heavy_game(tmp_path: Path, weight: int) -> Path:
    # (|V|-1) * W * |V| = 2 * 2**61 * 3 leaves the 64-bit envelope, while
    # |V| * W = 3 * 2**61 stays inside it
    path = tmp_path / "heavy.mpg"
    path.write_text(f"p mpg 3 3\no 0 MAX\no 1 MIN\no 2 MAX\n"
                    f"e 0 1 {weight}\ne 1 2 0\ne 2 0 0\n")
    return path


class TestSolve:
    def test_kasi_lwub_on_memory_game(self, tmp_path, capsys):
        path = write_memory_game(tmp_path)
        out = tmp_path / "result.txt"
        strat = tmp_path / "sigma.txt"
        wit = tmp_path / "witness.txt"
        code = main([
            "solve", "--algorithm", "kasi", "--problem", "lwub", "--bound", "15",
            "--output", str(out), "--emit-strategy", str(strat),
            "--emit-witness", str(wit), str(path),
        ])
        assert code == 0
        assert out.read_text().splitlines() == ["v 0 0", "v 1 12", "v 2 inf", "v 3 inf"]
        assert strat.read_text().startswith("s 0 ")
        assert wit.read_text().startswith("k 0")

    def test_vi_lb_on_trivial_game(self, tmp_path, capsys):
        path = tmp_path / "trivial.mpg"
        path.write_text("p mpg 1 1\no 0 MAX\ne 0 0 0\n")
        code = main(["solve", "--algorithm", "vi", "--problem", "lb", str(path)])
        assert code == 0
        assert capsys.readouterr().out == "v 0 0\n"

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("p mpg 1 1\no 0 MAX\ne 0 0 -1\n"))
        code = main(["solve", "--problem", "lb", "-"])
        assert code == 0
        assert capsys.readouterr().out == "v 0 inf\n"

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.mpg"
        path.write_text("p mpg 1 1\ne 0 0 0\n")
        assert main(["solve", str(path)]) == 2

    def test_unreadable_input_exits_2(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path)]) == 2
        path = tmp_path / "binary.mpg"
        path.write_bytes(b"p mpg 1 1\xff\n")
        assert main(["solve", str(path)]) == 2
        assert "utf-8" in capsys.readouterr().err

    def test_missing_bound_exits_2(self, tmp_path, capsys):
        path = write_memory_game(tmp_path)
        assert main(["solve", "--problem", "lwub", str(path)]) == 2

    def test_bound_with_lb_exits_2(self, tmp_path, capsys):
        path = write_memory_game(tmp_path)
        assert main(["solve", "--problem", "lb", "--bound", "5", str(path)]) == 2
        captured = capsys.readouterr()
        assert "--bound only applies to --problem lwub" in captured.err
        assert captured.out == ""

    def test_broken_invariant_exits_1(self, tmp_path, capsys, monkeypatch):
        def broken(game, **kwargs):
            raise InvariantViolation("planted")

        monkeypatch.setattr("mpgsolve.kasi.solve_lb", broken)
        assert main(["solve", str(write_memory_game(tmp_path))]) == 1
        captured = capsys.readouterr()
        assert "internal invariant failure: planted" in captured.err
        assert captured.out == ""

    def test_check_certifies_the_answer(self, tmp_path, capsys, monkeypatch):
        # a solve that answers one unit too high at vertex 1 of the memory
        # game is written out as it is, but --check rejects it with exit 1
        path = write_memory_game(tmp_path)
        argv = ["solve", "--problem", "lwub", "--bound", "15", str(path)]
        assert main(["solve", "--check", *argv[1:]]) == 0
        assert capsys.readouterr().out == "v 0 0\nv 1 12\nv 2 inf\nv 3 inf\n"
        solve = cli.kasi.solve_lwub

        def tampered(game, bound, **kwargs):
            res = solve(game, bound, **kwargs)
            res.lwub[1] += 1
            return res

        monkeypatch.setattr("mpgsolve.kasi.solve_lwub", tampered)
        assert main(argv) == 0
        assert capsys.readouterr().out == "v 0 0\nv 1 13\nv 2 inf\nv 3 inf\n"
        assert main(["solve", "--check", *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert "internal invariant failure: edge (1, 0) of weight -12 lets Max do with less than x(1) = 13" in captured.err
        assert captured.out == ""

    def test_negative_bound_exits_2(self, tmp_path, capsys):
        path = write_memory_game(tmp_path)
        for algorithm in ("kasi", "vi"):
            code = main(["solve", "--algorithm", algorithm, "--problem", "lwub", "--bound", "-1", str(path)])
            assert code == 2
            assert "bound must be a non-negative int, got -1" in capsys.readouterr().err

    def test_lb_overflow_guard_exits_2(self, tmp_path, capsys):
        path = write_heavy_game(tmp_path, 2**61)
        assert main(["solve", "--problem", "lb", str(path)]) == 2
        assert "64-bit envelope" in capsys.readouterr().err

    def test_vi_lb_overflow_guard_exits_2(self, tmp_path, capsys):
        for weight in (2**61, -2**61):
            path = write_heavy_game(tmp_path, weight)
            assert main(["solve", "--algorithm", "vi", "--problem", "lb", str(path)]) == 2
            captured = capsys.readouterr()
            assert "64-bit envelope" in captured.err
            assert captured.out == ""

    def test_kasi_only_flags_with_vi_exit_2(self, tmp_path, capsys):
        path = tmp_path / "duel.mpg"
        path.write_text(render_game(two_vertex_duel()))
        for flag in (["--check"], ["--emit-strategy", str(tmp_path / "s")],
                     ["--emit-witness", str(tmp_path / "w")]):
            assert main(["solve", "--algorithm", "vi", *flag, str(path)]) == 2
            captured = capsys.readouterr()
            assert "need --algorithm kasi" in captured.err
            assert captured.out == ""

    def test_nan_time_limit_exits_2(self, tmp_path, capsys):
        # perf_counter() > nan is always false, so such a limit would never expire
        path = write_memory_game(tmp_path)
        for algorithm in ("kasi", "vi"):
            assert main(["solve", "--algorithm", algorithm, "--time-limit", "nan", str(path)]) == 2
            captured = capsys.readouterr()
            assert "time limit must be a number, got nan" in captured.err
            assert captured.out == ""

    def test_negative_time_limit_exits_2(self, tmp_path, capsys):
        # KASI once exited 3 at its first poll, and VI, which polls every
        # 4,096 pops, answered
        path = write_memory_game(tmp_path)
        for algorithm in ("kasi", "vi"):
            assert main(["solve", "--algorithm", algorithm, "--time-limit", "-1", str(path)]) == 2
            captured = capsys.readouterr()
            assert "time limit must be >= 0, got -1.0" in captured.err
            assert captured.out == ""

    def test_kasi_and_vi_agree_on_files(self, tmp_path, capsys):
        path = write_memory_game(tmp_path)
        outs = []
        for algorithm in ("kasi", "vi"):
            out = tmp_path / f"{algorithm}.txt"
            assert main(["solve", "--algorithm", algorithm, "--problem", "lwub",
                         "--bound", "15", "--output", str(out), str(path)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_rendered_outputs_identical_on_random_corpus(self):
        # 200 random desk instances, both algorithms, byte-for-byte
        import random

        from mpgsolve import GenSpec, generate, render_values, solve_lwub, vi_solve

        rng = random.Random(606)
        for i in range(200):
            g = generate(GenSpec(family="sprand", n=rng.randint(2, 40),
                                 edge_factor=rng.choice([1.5, 2.0]),
                                 weight_lo=-4, weight_hi=4, seed=i))
            b = rng.randint(0, 12)
            assert render_values(solve_lwub(g, b).lwub) == render_values(vi_solve(g, b))


class TestGen:
    def test_determinism_byte_for_byte(self, tmp_path, capsys):
        a, b = tmp_path / "a.mpg", tmp_path / "b.mpg"
        argv = ["gen", "--family", "sprand", "--n", "64", "--edge-factor", "5",
                "--seed", "7"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flags_default_to_the_genspec_defaults(self):
        args = build_parser().parse_args(["gen", "--family", "sprand"])
        assert GenSpec(**{f.name: getattr(args, f.name) for f in fields(GenSpec)}) == GenSpec("sprand")

    def test_bad_spec_exits_2(self, capsys):
        assert main(["gen", "--family", "sprand", "--n", "4", "--edge-factor", "0.1"]) == 2
        assert main(["gen", "--family", "sprand", "--n", "4", "--edge-factor", "nan"]) == 2
        assert main(["gen", "--family", "sprand", "--n", "4", "--edge-factor", "inf"]) == 2

    def test_game_outside_the_envelope_exits_2(self, tmp_path, capsys):
        # |V| * W = 4 * 2**62, which mpg solve would refuse to read
        out = tmp_path / "big.mpg"
        assert main(["gen", "--family", "sprand", "--n", "4", "--weight-lo", "1",
                     "--weight-hi", str(2**62), "--seed", "1", "--output", str(out)]) == 2
        assert "64-bit accumulation envelope" in capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    def test_small_differential_run(self, capsys):
        code = main(["verify", "--n-max", "5", "--trials", "40",
                     "--bound-max", "6", "--seed", "1"])
        assert code == 0
        assert "40/40 agree" in capsys.readouterr().out

    def test_draws_from_all_six_families(self, capsys, monkeypatch):
        specs = []

        def recording_generate(spec):
            specs.append(spec)
            return generate(spec)

        monkeypatch.setattr("mpgsolve.cli.generate", recording_generate)
        assert main(["verify", "--n-max", "5", "--trials", "40",
                     "--bound-max", "6", "--seed", "1"]) == 0
        assert len(specs) == 40
        assert {s.family for s in specs} == {"sprand", "torus", "layered", "collect",
                                              "supply", "taxi"}

    def test_empty_ranges_exit_2(self, capsys):
        assert main(["verify", "--n-max", "0"]) == 2
        assert "--n-max must be >= 1, got 0" in capsys.readouterr().err
        assert main(["verify", "--bound-max", "-1"]) == 2
        assert "--bound-max must be >= 0, got -1" in capsys.readouterr().err
        for seed in range(8):  # whether or not a weighted family is drawn
            assert main(["verify", "--w-max", "-3", "--trials", "1", "--seed", str(seed)]) == 2
            assert "--w-max must be >= 0, got -3" in capsys.readouterr().err
        assert main(["verify", "--trials", "-5"]) == 2
        captured = capsys.readouterr()
        assert "--trials must be >= 0, got -5" in captured.err
        assert captured.out == ""

    def test_budget_exceeded_exits_3(self, capsys):
        assert main(["verify", "--budget", "0", "--trials", "1"]) == 3
        captured = capsys.readouterr()
        assert "budget exceeded" in captured.err
        assert captured.out == ""

    def test_negative_budget_exits_2(self, capsys):
        # rejected up front, not read as a budget that every game exceeds
        assert main(["verify", "--budget", "-1", "--trials", "2"]) == 2
        captured = capsys.readouterr()
        assert "--budget must be >= 0, got -1" in captured.err
        assert captured.out == ""

    def test_disagreement_is_minimized_and_exits_1(self, capsys, monkeypatch):
        # a value iteration that always answers -1 disagrees on every game,
        # so the shrinking deletes vertices down to a single one
        monkeypatch.setattr("mpgsolve.cli.vi_solve", lambda game, bound: [-1] * game.vertex_count)
        assert main(["verify", "--n-max", "5", "--trials", "3", "--seed", "1"]) == 1
        header, rest = capsys.readouterr().out.split("\n", 1)
        assert header.startswith("disagreement at trial 0 (bound ")
        bound = int(header.split("(bound ")[1].split(")")[0])
        text, answers = rest.split("oracle: ")
        shrunk = parse_game(text)
        assert shrunk.vertex_count == 1  # so no larger than the original
        assert cli._verify_one(shrunk, bound, 10**6) is not None
        assert answers.splitlines()[-1] == "vi:     [-1]"
