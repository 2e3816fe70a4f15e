import json

import numpy as np
import pytest

from sospec.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "ds.jsonl"
    rc = run_cli(
        "gen-data", "--task", "synth", "--n", "4", "--n-samples", "700",
        "--sigma", "0.1", "--seed", "7", "--rates", "1,-1", "--out", str(path),
    )
    assert rc == 0
    return path


class TestGenData:
    def test_pendulum_file_format(self, tmp_path):
        out = tmp_path / "p.jsonl"
        rc = run_cli("gen-data", "--task", "pendulum6d", "--n-samples", "50",
                     "--sigma", "0.1", "--seed", "7", "--out", str(out))
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 51
        header = json.loads(lines[0])
        assert header["meta"]["task"] == "pendulum6d"
        assert header["meta"]["n"] == 6
        sample = json.loads(lines[1])
        assert len(sample["x"]) == 6 and len(sample["y"]) == 1

    def test_classification_task(self, tmp_path):
        out = tmp_path / "c.jsonl"
        rc = run_cli("gen-data", "--task", "synth-cls", "--n", "4", "--n-samples", "80",
                     "--sigma", "0.1", "--seed", "3", "--out", str(out))
        assert rc == 0
        header = json.loads(out.read_text().split("\n", 1)[0])
        assert header["meta"]["outputKind"] == "binary"

    def test_odd_dimension_rejected(self, tmp_path):
        rc = run_cli("gen-data", "--task", "synth", "--n", "5", "--out", str(tmp_path / "x.jsonl"))
        assert rc == 1


class TestTrainEval:
    def test_train_writes_outputs_and_is_deterministic(self, tmp_path, dataset_file):
        args = ["train", "--data", str(dataset_file), "--epochs", "4",
                "--warmup-epochs", "2", "--bandwidth", "1", "--seed", "5"]
        rc1 = run_cli(*args, "--out", str(tmp_path / "r1"))
        rc2 = run_cli(*args, "--out", str(tmp_path / "r2"))
        assert rc1 == 0 and rc2 == 0
        r1 = json.loads((tmp_path / "r1" / "report.json").read_text())
        r2 = json.loads((tmp_path / "r2" / "report.json").read_text())
        for key in r1:
            if key == "wallClock":
                continue
            assert r1[key] == r2[key], key
        assert (tmp_path / "r1" / "checkpoint.json").exists()

    def test_eval_roundtrip_reproduces_metrics(self, tmp_path, dataset_file):
        rc = run_cli("train", "--data", str(dataset_file), "--epochs", "4",
                     "--warmup-epochs", "2", "--bandwidth", "1", "--seed", "5",
                     "--out", str(tmp_path / "run"))
        assert rc == 0
        rc = run_cli("eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                     "--data", str(dataset_file), "--out", str(tmp_path / "eval.json"))
        assert rc == 0
        train_doc = json.loads((tmp_path / "run" / "report.json").read_text())
        eval_doc = json.loads((tmp_path / "eval.json").read_text())
        assert train_doc.keys() == eval_doc.keys()
        for key in ("testMse", "invarianceError", "cosineSimilarity",
                    "cosineSimilaritySpectral", "recoveredLambda", "spectralLambda",
                    "nullity", "survivingFrequencies"):
            assert train_doc[key] == eval_doc[key], key

    def test_config_file_and_flag_override(self, tmp_path, dataset_file):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs = 4\nwarmup_epochs = 2\nbandwidth = 1\nseed = 11\nlr = 1e-3\n")
        rc = run_cli("train", "--data", str(dataset_file), "--config", str(cfg),
                     "--seed", "12", "--out", str(tmp_path / "run"))
        assert rc == 0
        doc = json.loads((tmp_path / "run" / "report.json").read_text())
        assert doc["config"]["seed"] == 12  # flag wins
        assert doc["config"]["lr"] == 1e-3  # file value survives
        assert doc["config"]["epochs"] == 4

    def test_unknown_config_key_rejected(self, tmp_path, dataset_file):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs = 4\nwrong_knob = 3\n")
        rc = run_cli("train", "--data", str(dataset_file), "--config", str(cfg),
                     "--out", str(tmp_path / "run"))
        assert rc == 1

    def test_missing_dataset_exits_one(self, tmp_path):
        rc = run_cli("train", "--data", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "run"))
        assert rc == 1

    def test_eval_of_nonfinite_dataset_exits_one(self, tmp_path, dataset_file, capsys):
        rc = run_cli("train", "--data", str(dataset_file), "--epochs", "2",
                     "--warmup-epochs", "1", "--bandwidth", "1", "--restarts", "1",
                     "--out", str(tmp_path / "run"))
        assert rc == 0
        lines = dataset_file.read_text().split("\n")
        sample = json.loads(lines[2])
        sample["y"][0] = float("nan")
        lines[2] = json.dumps(sample)
        bad = tmp_path / "nan.jsonl"
        bad.write_text("\n".join(lines))
        rc = run_cli("eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                     "--data", str(bad), "--out", str(tmp_path / "eval.json"))
        assert rc == 1
        assert "line 3: non-finite" in capsys.readouterr().err
        assert not (tmp_path / "eval.json").exists()

    def test_eval_on_dataset_of_other_dimensions_exits_one(self, tmp_path, dataset_file, capsys):
        rc = run_cli("train", "--data", str(dataset_file), "--epochs", "2",
                     "--warmup-epochs", "1", "--bandwidth", "1", "--restarts", "1",
                     "--out", str(tmp_path / "run"))
        assert rc == 0
        six = tmp_path / "six.jsonl"
        assert run_cli("gen-data", "--task", "pendulum6d", "--n-samples", "50",
                       "--out", str(six)) == 0
        # the 4-d task with every target doubled into two outputs
        lines = dataset_file.read_text().strip().split("\n")
        header = json.loads(lines[0])
        header["meta"]["outDim"] = 2
        samples = [json.loads(line) for line in lines[1:]]
        two = tmp_path / "two.jsonl"
        two.write_text("\n".join([json.dumps(header)] + [
            json.dumps({"x": s["x"], "y": s["y"] * 2}) for s in samples
        ]))
        for data, found in ((six, "has n=6 and out_dim=1"), (two, "has n=4 and out_dim=2")):
            rc = run_cli("eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                         "--data", str(data), "--out", str(tmp_path / "eval.json"))
            assert rc == 1
            assert found in capsys.readouterr().err
            assert not (tmp_path / "eval.json").exists()

    def test_bad_flag_exits_one(self, tmp_path):
        rc = run_cli("train", "--data", "x", "--out", "y", "--no-such-flag")
        assert rc == 1

    def test_logistic_task_reports_accuracy(self, tmp_path):
        ds = tmp_path / "cls.jsonl"
        assert run_cli("gen-data", "--task", "synth-cls", "--n", "4", "--n-samples", "600",
                       "--sigma", "0.1", "--seed", "9", "--rates", "1,-1",
                       "--out", str(ds)) == 0
        rc = run_cli("train", "--data", str(ds), "--epochs", "4", "--warmup-epochs", "2",
                     "--bandwidth", "1", "--seed", "5", "--out", str(tmp_path / "run"))
        assert rc == 0
        doc = json.loads((tmp_path / "run" / "report.json").read_text())
        assert doc["accuracy"] is not None
        assert doc["testMse"] is None
        assert doc["config"]["resolvedLoss"] == "logistic"


class TestSweepAndReport:
    def test_sweep_outputs_and_report_table(self, tmp_path):
        out = tmp_path / "sweep"
        rc = run_cli("sweep", "--axis", "noise", "--values", "0.1", "0.3",
                     "--repeats", "1", "--task", "synth", "--n", "4", "--rates", "1,-1",
                     "--n-samples", "400", "--epochs", "4", "--warmup-epochs", "2",
                     "--bandwidth", "1", "--seed", "3", "--out", str(out))
        assert rc == 0
        agg = json.loads((out / "aggregate.json").read_text())
        assert [p["value"] for p in agg["points"]] == [0.1, 0.3]
        csv_lines = (out / "aggregate.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "axisValue,meanCos,stdCos,meanLoss,stdLoss"
        assert len(csv_lines) == 3
        assert len(list(out.glob("run_*.report.json"))) == 2

        rc = run_cli("report", "--dir", str(out))
        assert rc == 0
        md = (out / "summary.md").read_text()
        assert "synth" in md and "Cosine" in md
        summary = json.loads((out / "summary.json").read_text())
        assert summary["tasks"][0]["nRuns"] == 2

    def test_report_on_empty_dir_exits_one(self, tmp_path):
        assert run_cli("report", "--dir", str(tmp_path)) == 1
