"""CLI contract: subcommands, exit codes, file artifacts, determinism."""

import json

import numpy as np
import pytest

from censored_newsvendor.cli import main


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("panel")
    assert main(["gen-data", "--seed", "0", "--out", str(out)]) == 0
    return out


class TestGenData:
    def test_row_counts(self, data_dir):
        test_lines = (data_dir / "test.csv").read_text().strip().splitlines()
        assert len(test_lines) == 1629 + 1
        train_lines = (data_dir / "train.csv").read_text().strip().splitlines()
        assert len(train_lines) == 3294 + 1
        assert (data_dir / "scaling.txt").exists()

    def test_same_seed_byte_identical(self, data_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["gen-data", "--seed", "0", "--out", str(again)]) == 0
        assert (again / "train.csv").read_bytes() == (data_dir / "train.csv").read_bytes()
        assert (again / "test.csv").read_bytes() == (data_dir / "test.csv").read_bytes()

    def test_bad_path_fails_nonzero(self):
        rc = main(["gen-data", "--seed", "0", "--out", "/proc/definitely/not/writable"])
        assert rc != 0


class TestTrainEval:
    def test_round_trip(self, data_dir, tmp_path):
        model_path = tmp_path / "model.txt"
        rc = main([
            "train", "--train", str(data_dir / "train.csv"),
            "--learner", "LR-eNVC-R", "--alpha", "0.85",
            "--eps1", "0.1976", "--eps2", "0.0022",
            "--out", str(model_path),
        ])
        assert rc == 0
        report = tmp_path / "report.csv"
        rc = main([
            "eval", "--model", str(model_path), "--test", str(data_dir / "test.csv"),
            "--alpha", "0.85", "--out", str(report),
        ])
        assert rc == 0
        text = report.read_text()
        assert "nv_cost" in text and "service_level" in text

    def test_wrong_feature_count_reports_dimension(self, data_dir, tmp_path):
        model_path = tmp_path / "narrow.txt"
        model_path.write_text("2\n0.5\n0.1\n")
        rc = main([
            "eval", "--model", str(model_path), "--test", str(data_dir / "test.csv"),
            "--alpha", "0.85", "--out", str(tmp_path / "r.csv"),
        ])
        assert rc == 1

    def test_demandless_eval_still_emits_predictions(self, data_dir, tmp_path):
        import csv

        src = (data_dir / "test.csv").read_text().splitlines()
        header = src[0].split(",")
        d_idx = header.index("demand")
        stripped = [",".join(h for i, h in enumerate(header) if i != d_idx)]
        for line in src[1:]:
            cells = next(csv.reader([line]))
            stripped.append(",".join(c for i, c in enumerate(cells) if i != d_idx))
        blind = tmp_path / "blind.csv"
        blind.write_text("\n".join(stripped) + "\n")

        model_path = tmp_path / "m.txt"
        assert main([
            "train", "--train", str(data_dir / "train.csv"),
            "--learner", "LR-MSE", "--alpha", "0.55", "--out", str(model_path),
        ]) == 0
        report = tmp_path / "blind_report.csv"
        preds = tmp_path / "preds.csv"
        rc = main([
            "eval", "--model", str(model_path), "--test", str(blind),
            "--alpha", "0.55", "--out", str(report), "--predictions", str(preds),
        ])
        assert rc == 0
        assert "unavailable" in report.read_text()
        assert len(preds.read_text().strip().splitlines()) == 1629 + 1


class TestTune:
    def test_writes_keyed_json(self, data_dir, tmp_path):
        out = tmp_path / "tuned.json"
        rc = main([
            "tune", "--train", str(data_dir / "train.csv"), "--learner", "LR-eNVC-R",
            "--alphas", "0.85", "--budget", "2", "--folds", "1",
            "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["learner"] == "LR-eNVC-R"
        entry = payload["per_alpha"]["0.85"]
        assert entry["eps1"] > entry["eps2"]


class TestUsageAndIo:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_empty_algorithms_usage_error(self, tmp_path):
        assert main(["experiment", "--out", str(tmp_path), "--algorithms", ""]) == 1

    @pytest.mark.parametrize("option", ["--folds", "--budget"])
    def test_tune_rejects_zero(self, data_dir, tmp_path, option, capsys):
        rc = main([
            "tune", "--train", str(data_dir / "train.csv"), "--learner", "LR-NVC",
            "--alphas", "0.85", option, "0", "--out", str(tmp_path / "tuned.json"),
        ])
        assert rc == 1
        assert f"{option[2:]} must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--folds", "--budget"])
    def test_experiment_rejects_zero(self, tmp_path, option, capsys):
        rc = main(["experiment", "--out", str(tmp_path), "--seeds", "0", option, "0"])
        assert rc == 1
        assert f"{option[2:]} must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_missing_runs_dir_is_io_error(self, tmp_path):
        assert main(["report", "--runs", str(tmp_path / "nope"), "--out", str(tmp_path)]) == 3

    def test_config_file_supplies_defaults(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 7, "out": str(tmp_path / "from_config")}))
        rc = main(["--config", str(config), "gen-data"])
        assert rc == 0
        assert (tmp_path / "from_config" / "train.csv").exists()

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out": str(tmp_path / "ignored")}))
        rc = main([
            "--config", str(config), "gen-data", "--seed", "1",
            "--out", str(tmp_path / "explicit"),
        ])
        assert rc == 0
        assert (tmp_path / "explicit" / "train.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestStabilityProbeCommand:
    def test_small_linear_probe(self, tmp_path):
        rc = main([
            "stability-probe", "--out", str(tmp_path), "--kind", "linear",
            "--sizes", "40,60", "--datasets", "2", "--quiet",
        ])
        assert rc == 0
        lines = (tmp_path / "linear_stability.csv").read_text().strip().splitlines()
        assert lines[0].startswith("n,p,seed")
        assert len(lines) == 3
        assert all(line.endswith("True") for line in lines[1:])
