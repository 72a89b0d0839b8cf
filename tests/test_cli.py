"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.profile == "kdd12"
        assert args.workers == 10

    def test_rejects_bad_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--profile", "criteo"])


class TestInfo:
    def test_lists_components(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "sketchml" in out
        assert "kdd12" in out


class TestCompress:
    def test_sketchml(self, capsys):
        code = main(
            ["compress", "--method", "sketchml", "--nnz", "2000",
             "--dimension", "50000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "compression rate" in out
        assert "keys lossless     : True" in out

    def test_every_registered_method(self, capsys):
        from repro.compression import available_compressors

        for method in available_compressors():
            assert main(
                ["compress", "--method", method, "--nnz", "500",
                 "--dimension", "10000"]
            ) == 0

    def test_unknown_method(self, capsys):
        assert main(["compress", "--method", "brotli"]) == 2
        assert "unknown compressor" in capsys.readouterr().err

    def test_bad_sizes(self, capsys):
        assert main(["compress", "--nnz", "100", "--dimension", "10"]) == 2


class TestCompare:
    def test_report_includes_all_codecs(self, capsys):
        code = main(
            ["compare", "--nnz", "1000", "--dimension", "30000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sketchml" in out
        assert "identity" in out
        assert "SketchML-friendly" in out

    def test_bad_sizes(self, capsys):
        assert main(["compare", "--nnz", "10", "--dimension", "5"]) == 2


class TestTrain:
    def test_small_run(self, capsys):
        code = main(
            ["train", "--profile", "kdd10", "--scale", "0.05",
             "--workers", "2", "--epochs", "1", "--cluster", "cluster1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SketchML" in out
        assert "test loss" in out

    def test_ablation_method(self, capsys):
        code = main(
            ["train", "--profile", "kdd10", "--scale", "0.05",
             "--workers", "2", "--epochs", "1", "--method", "Adam+Key"]
        )
        assert code == 0

    def test_unknown_method(self, capsys):
        code = main(
            ["train", "--profile", "kdd10", "--scale", "0.05",
             "--workers", "2", "--epochs", "1", "--method", "DGC"]
        )
        assert code == 2

    def test_backend_default_is_sim(self):
        args = build_parser().parse_args(["train"])
        assert args.backend == "sim"
        assert args.straggler_policy == "fail_fast"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--backend", "smoke-signal"])

    def test_mp_backend_run(self, capsys):
        code = main(
            ["train", "--profile", "kdd10", "--scale", "0.02",
             "--workers", "2", "--epochs", "1", "--backend", "mp"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend=mp" in out
        assert "test loss" in out

    def test_mp_backend_matches_sim_losses(self, capsys):
        base = ["train", "--profile", "kdd10", "--scale", "0.02",
                "--workers", "2", "--epochs", "1", "--seed", "5"]
        assert main(base) == 0
        sim_out = capsys.readouterr().out
        assert main(base + ["--backend", "mp"]) == 0
        mp_out = capsys.readouterr().out
        # The loss columns (last two fields of each epoch row) must
        # agree exactly; timings legitimately differ.
        def losses(out):
            rows = [
                line.split()[-2:]
                for line in out.splitlines()
                if line and line.split()[0].isdigit()
            ]
            assert rows
            return rows

        assert losses(sim_out) == losses(mp_out)

    def test_fault_flags_are_parsed(self):
        args = build_parser().parse_args(
            ["train", "--backend", "mp", "--fault-drop", "0.1",
             "--fault-corrupt", "0.05", "--fault-seed", "9",
             "--straggler-policy", "drop", "--max-retries", "7",
             "--message-timeout", "3.5"]
        )
        assert args.fault_drop == 0.1
        assert args.fault_corrupt == 0.05
        assert args.fault_seed == 9
        assert args.straggler_policy == "drop"
        assert args.max_retries == 7
        assert args.message_timeout == 3.5


class TestDatagen:
    def test_writes_libsvm(self, tmp_path, capsys):
        out_path = tmp_path / "data.libsvm"
        code = main(
            ["datagen", "--profile", "kdd10", "--scale", "0.01",
             "--out", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()
        from repro.data import read_libsvm

        dataset = read_libsvm(out_path)
        assert dataset.num_rows > 0
        assert np.isfinite(dataset.data).all()


class TestLint:
    BAD = "try:\n    f()\nexcept:\n    pass\n"

    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text(self.BAD)
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "bare-except" in out
        assert f"{bad}:3:" in out
        assert "1 finding" in out

    def test_json_format(self, tmp_path, capsys):
        import json

        bad = tmp_path / "mod.py"
        bad.write_text(self.BAD)
        assert main(["lint", "--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule"] == "bare-except"
        assert payload[0]["line"] == 3

    def test_select_filters_rules(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text(self.BAD + "def public():\n    return 1\n")
        assert main(["lint", "--select", "missing-all", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "missing-all" in out and "bare-except" not in out

    def test_unknown_select_is_usage_error(self, tmp_path, capsys):
        assert main(["lint", "--select", "bogus", str(tmp_path)]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["lint", "does/not/exist"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("rng-discipline", "dtype-discipline",
                        "hot-loop", "wire-format", "bare-except",
                        "mutable-default", "missing-all",
                        "telemetry-discipline", "noqa-justification"):
            assert rule_id in out
