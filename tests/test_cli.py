"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.matrices import write_mtx

from conftest import random_csr


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("cmd", ["multiply", "bench", "tune", "spy", "info"])
    def test_known_commands_parse(self, cmd):
        args = build_parser().parse_args([cmd])
        assert args.command == cmd


class TestMultiply:
    def test_generator_default(self, capsys):
        assert main(["multiply", "--family", "banded", "--size", "300"]) == 0
        out = capsys.readouterr().out
        assert "spECK" in out and "products" in out

    def test_all_methods(self, capsys):
        assert main(["multiply", "--family", "circuit", "--size", "200",
                     "--methods", "all"]) == 0
        out = capsys.readouterr().out
        for name in ("spECK", "nsparse", "MKL", "cuSPARSE"):
            assert name in out

    def test_subset_methods(self, capsys):
        assert main(["multiply", "--family", "mesh", "--size", "100",
                     "--methods", "spECK,MKL"]) == 0
        out = capsys.readouterr().out
        assert "MKL" in out and "nsparse" not in out

    def test_execute_mode(self, capsys):
        assert main(["multiply", "--family", "diagonal", "--size", "100",
                     "--execute"]) == 0
        assert "executed" in capsys.readouterr().out

    def test_from_mtx_file(self, tmp_path, rng, capsys):
        m = random_csr(rng, 30, 30, 0.1)
        path = tmp_path / "m.mtx"
        write_mtx(path, m)
        assert main(["multiply", "--mtx", str(path)]) == 0
        assert "30 x 30" in capsys.readouterr().out

    def test_rectangular_mtx_uses_transpose(self, tmp_path, rng, capsys):
        m = random_csr(rng, 10, 40, 0.2)
        path = tmp_path / "r.mtx"
        write_mtx(path, m)
        assert main(["multiply", "--mtx", str(path)]) == 0
        assert "10 x 40" in capsys.readouterr().out


class TestOtherCommands:
    def test_bench_small(self, capsys):
        assert main(["bench", "--small"]) == 0
        out = capsys.readouterr().out
        assert "#best" in out and "t/t_b" in out

    def test_tune_small(self, capsys):
        assert main(["tune", "--small"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out and "accuracy" in out

    def test_spy(self, capsys):
        assert main(["spy", "--family", "banded", "--size", "200",
                     "--grid", "12"]) == 0
        out = capsys.readouterr().out
        assert "#" in out

    def test_info(self, capsys):
        assert main(["info", "--family", "skew", "--size", "500"]) == 0
        out = capsys.readouterr().out
        assert "compaction" in out and "single-entry rows" in out

    def test_info_counts_match(self, capsys):
        assert main(["info", "--family", "diagonal", "--size", "64"]) == 0
        out = capsys.readouterr().out
        assert "single-entry rows of A: 64" in out


class TestDeviceOption:
    def test_device_preset_accepted(self, capsys):
        assert main(["multiply", "--family", "banded", "--size", "300",
                     "--device", "a100"]) == 0
        assert "spECK" in capsys.readouterr().out

    def test_unknown_device_rejected(self):
        with pytest.raises(SystemExit):
            main(["multiply", "--device", "gtx480"])

    def test_faster_device_reports_lower_time(self, capsys):
        main(["multiply", "--family", "banded", "--size", "20000",
              "--device", "titan-v"])
        out_titan = capsys.readouterr().out
        main(["multiply", "--family", "banded", "--size", "20000",
              "--device", "a100"])
        out_a100 = capsys.readouterr().out

        def speck_ms(text):
            for line in text.splitlines():
                if line.startswith("spECK"):
                    return float(line.split()[1])
            raise AssertionError("no spECK line")

        assert speck_ms(out_a100) < speck_ms(out_titan)


class TestFaultSpecErrors:
    def test_bad_probability_names_offending_rule(self, capsys):
        # A parse error in a multi-rule spec must name the rule that
        # tripped it, not just the generic constraint.
        assert main(["bench", "--small",
                     "--faults", "alloc:n=1;launch:p=2.5"]) == 2
        err = capsys.readouterr().err
        assert "invalid --faults spec" in err
        assert "launch:p=2.5" in err

    def test_unknown_site_names_token(self, capsys):
        assert main(["bench", "--small", "--faults", "frobnicate:n=1"]) == 2
        err = capsys.readouterr().err
        assert "frobnicate" in err

    def test_unknown_option_names_token_and_rule(self, capsys):
        assert main(["multiply", "--faults", "alloc:wibble=3"]) == 2
        err = capsys.readouterr().err
        assert "wibble" in err and "alloc:wibble=3" in err


class TestServeBench:
    def test_serve_bench_runs_and_reports(self, capsys):
        assert main(["serve-bench", "--duration", "0.05",
                     "--rate", "1000", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "serve-bench report" in out
        assert "hit rate" in out and "bit-identical: True" in out

    def test_serve_bench_writes_json(self, tmp_path, capsys):
        path = tmp_path / "serve.json"
        assert main(["serve-bench", "--duration", "0.05", "--rate", "1000",
                     "--seed", "1", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["offered"] > 0
        assert "metrics" in data and "hit_rate" in data

    def test_serve_bench_overload_sheds_and_exits_zero(self, capsys):
        assert main(["serve-bench", "--duration", "0.1", "--rate", "40000",
                     "--seed", "0", "--queue-depth", "32"]) == 0
        out = capsys.readouterr().out
        shed = int(out.split("shed ")[1].split(",")[0])
        assert shed > 0

    def test_serve_bench_under_faults_degrades_gracefully(self, capsys):
        assert main(["serve-bench", "--duration", "0.05", "--rate", "500",
                     "--seed", "0",
                     "--faults", "alloc:p=0.2;seed=3"]) == 0
        out = capsys.readouterr().out
        assert "serve-bench report" in out

    def test_serve_bench_rejects_bad_faults(self, capsys):
        assert main(["serve-bench", "--duration", "0.05",
                     "--faults", "alloc:p=nope"]) == 2
        err = capsys.readouterr().err
        assert "alloc:p=nope" in err


class TestBenchFlags:
    #: One non-default value per flag serve-bench and cluster-bench share.
    SHARED = {
        "--workers": ("3", "workers", 3),
        "--rate": ("123.5", "rate", 123.5),
        "--duration": ("0.75", "duration", 0.75),
        "--alpha": ("0.9", "alpha", 0.9),
        "--timeout": ("0", "timeout", 0.0),
        "--seed": ("4", "seed", 4),
        "--workload": ("chain", "workload", "chain"),
        "--chain-length": ("4", "chain_length", 4),
        "--mask-density": ("0.5", "mask_density", 0.5),
        "--delta-frac": ("0.1", "delta_frac", 0.1),
        "--cache-mb": ("8", "cache_mb", 8.0),
        "--queue-depth": ("9", "queue_depth", 9),
        "--faults": ("alloc:n=1", "faults", "alloc:n=1"),
        "--plan-store": ("dir", "plan_store", "dir"),
        "--estimate": (None, "estimate", True),
        "--speculative": (None, "speculative", True),
        "--json": ("r.json", "json", "r.json"),
    }

    def test_covers_every_shared_flag(self):
        from repro.cli import _BENCH_ARGS

        assert set(self.SHARED) == {flag for flag, _ in _BENCH_ARGS}

    @pytest.mark.parametrize("command", ["serve-bench", "cluster-bench"])
    def test_every_shared_flag_parses(self, command):
        argv = [command]
        for flag, (value, _, _) in self.SHARED.items():
            argv += [flag] if value is None else [flag, value]
        args = build_parser().parse_args(argv)
        for flag, (_, dest, want) in self.SHARED.items():
            assert getattr(args, dest) == want, flag

    @pytest.mark.parametrize(
        "command,rate,duration,timeout,queue_depth",
        [
            ("serve-bench", 4000.0, 5.0, 1.0, 256),
            ("cluster-bench", 80_000.0, 0.5, 0.25, 128),
        ],
    )
    def test_per_command_defaults(self, command, rate, duration, timeout,
                                  queue_depth):
        args = build_parser().parse_args([command])
        assert (args.rate, args.duration, args.timeout, args.queue_depth) == (
            rate, duration, timeout, queue_depth
        )
        assert (args.workers, args.alpha, args.workload, args.cache_mb) == (
            2, 1.1, "plain", 256.0
        )
