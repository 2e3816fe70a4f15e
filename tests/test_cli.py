import argparse
import dataclasses
import errno
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sospec
import sospec.cli as cli
import sospec.model as model
from sospec.cli import build_parser, main
from sospec.data import load_dataset
from sospec.train import TrainConfig


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

    def test_odd_dimension_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "x.jsonl")
        for n, rule in (("5", "even"), ("0", "at least 2"), ("-2", "at least 2")):
            assert run_cli("gen-data", "--task", "synth", "--n", n, "--out", out) == 1
            err = capsys.readouterr().err
            assert f"error: ambient dimension must be {rule}, got {n} from --n" in err

    def test_out_in_a_new_directory(self, tmp_path):
        out = tmp_path / "new" / "d.jsonl"
        rc = run_cli("gen-data", "--task", "pendulum6d", "--n-samples", "20", "--out", str(out))
        assert rc == 0 and len(load_dataset(out)) == 20

    @pytest.mark.parametrize("task", ["synth", "pendulum6d"])
    def test_negative_seed_exits_one_before_any_draw(self, tmp_path, capsys, monkeypatch, task):
        def no_draw(*args, **kwargs):
            raise AssertionError("a task was drawn")

        monkeypatch.setattr(cli, "synth_generator", no_draw)
        monkeypatch.setattr(cli, "double_pendulum_task", no_draw)
        out = tmp_path / "x.jsonl"
        assert run_cli("gen-data", "--task", task, "--seed", "-3", "--out", str(out)) == 1
        assert "error: --seed is not a nonnegative integer below 2^63" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_of_2_to_the_63_exits_one_writing_nothing(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        assert run_cli("gen-data", "--task", "pendulum6d", "--n-samples", "20",
                       "--seed", str(2**63), "--out", str(out)) == 1
        assert "error: --seed is not a nonnegative integer below 2^63" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("task", ["synth", "pendulum6d"])
    def test_nonfinite_sigma_exits_one(self, tmp_path, capsys, task):
        out = tmp_path / "x.jsonl"
        rc = run_cli("gen-data", "--task", task, "--n-samples", "50", "--sigma", "nan",
                     "--out", str(out))
        assert rc == 1
        assert "noise sigma must be finite and nonnegative, got nan" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "task, n_samples",
        [("pendulum6d", "0"), ("pendulum6d", "-2"), ("synth", "0"), ("synth", "1"),
         ("synth-cls", "1")],
    )
    def test_too_few_samples_exits_one_naming_the_flag(self, tmp_path, capsys, task, n_samples):
        out = tmp_path / "x.jsonl"
        rc = run_cli("gen-data", "--task", task, "--n-samples", n_samples, "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --n-samples must be at least")
        assert f"got {n_samples}" in err and "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("task", ["pendulum6d", "synth"])
    def test_row_count_no_header_holds_exits_one_naming_the_flag(self, tmp_path, capsys,
                                                                  monkeypatch, task):
        draws = []
        for maker in ("double_pendulum_task", "synth_generator"):
            monkeypatch.setattr(cli, maker, lambda *args, **kw: draws.append(args))
        out = tmp_path / "x.jsonl"
        rc = run_cli("gen-data", "--task", task, "--n-samples", str(2**63), "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: --n-samples {2**63} is not a nonnegative integer below 2^63\n"
        assert draws == [] and not out.exists()

    @pytest.mark.parametrize("flags, found", [
        (("--rates", "1,-1"), "--rates applies to synth tasks only"),
        (("--generator", "generic"), "--generator applies to synth tasks only"),
        (("--gen-bandwidth", "7"), "--gen-bandwidth applies to synth tasks only"),
        (("--n", "4"), "pendulum6d is a 6-dimensional task, got --n 4"),
    ])
    def test_pendulum_rejects_synth_flags(self, tmp_path, capsys, flags, found):
        out = tmp_path / "p.jsonl"
        rc = run_cli("gen-data", "--task", "pendulum6d", "--n-samples", "50", *flags,
                     "--out", str(out))
        assert rc == 1
        assert f"error: {found}" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("flags, found", [
        (("--n", "3000"), "bandwidth 2 is too large for 1500 blocks"),
        (("--n", "4", "--gen-bandwidth", "1000"), "bandwidth 1000 is too large for 2 blocks"),
    ])
    def test_too_large_a_box_exits_one_before_the_frame_is_drawn(self, tmp_path, capsys,
                                                                  monkeypatch, flags, found):
        def no_frame(*args):
            raise AssertionError("the frame was drawn")

        monkeypatch.setattr(cli, "synth_generator", no_frame)
        out = tmp_path / "x.jsonl"
        assert run_cli("gen-data", "--task", "synth", *flags, "--out", str(out)) == 1
        assert f"error: {found}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rates", ["0,0", "nan,1", "inf,1", "1e308,1e308"])
    def test_rates_without_a_finite_norm_exit_one(self, tmp_path, capsys, rates):
        # 1e308,1e308 is finite, but its norm overflows and would scale the
        # rates to zero
        out = tmp_path / "out"
        rc = run_cli("gen-data", "--task", "synth", "--n", "4", "--n-samples", "50",
                     "--rates", rates, "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert f"bad --rates '{rates}': need a nonzero vector of finite norm" in err
        assert not out.exists()


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
        # the dataset has a true generator, so every read-out key is set
        for key in ("testMse", "invarianceError", "cosineSimilarity",
                    "cosineSimilaritySpectral", "estimatorAgreement", "recoveredLambda",
                    "spectralLambda", "nullity", "lambdaReliable", "survivingFrequencies"):
            assert train_doc[key] is not None, key
            assert train_doc[key] == eval_doc[key], key

    def test_config_file_and_flag_override(self, tmp_path, dataset_file):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs = 4\nwarmup_epochs = 2\nbandwidth = 1\nseed = 11\nmu_init = 0.3\n")
        rc = run_cli("train", "--data", str(dataset_file), "--config", str(cfg),
                     "--seed", "12", "--out", str(tmp_path / "run"))
        assert rc == 0
        doc = json.loads((tmp_path / "run" / "report.json").read_text())
        assert doc["config"]["seed"] == 12  # flag wins
        assert doc["config"]["mu_init"] == 0.3  # file value survives
        assert doc["config"]["epochs"] == 4

    def test_checkpoint_with_removed_config_keys_still_evaluates(self, tmp_path, dataset_file):
        rc = run_cli("train", "--data", str(dataset_file), "--epochs", "2",
                     "--warmup-epochs", "1", "--bandwidth", "1", "--seed", "5",
                     "--out", str(tmp_path / "run"))
        assert rc == 0
        path = tmp_path / "run" / "checkpoint.json"
        doc = json.loads(path.read_text())
        # the settable values older checkpoints carry, at their defaults
        doc["config"].update(loss="auto", mu_ramp="linear", rel_threshold=0.1,
                             inv_x_samples=256, inv_t_samples=16, t_max=np.pi,
                             lr=2e-3, hidden=64, mu_max_scale=2.0)
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        rc = run_cli("eval", "--checkpoint", str(old), "--data", str(dataset_file),
                     "--out", str(tmp_path / "eval.json"))
        assert rc == 0
        train_doc = json.loads((tmp_path / "run" / "report.json").read_text())
        eval_doc = json.loads((tmp_path / "eval.json").read_text())
        for key in ("testMse", "accuracy", "invarianceError", "cosineSimilarity",
                    "cosineSimilaritySpectral", "estimatorAgreement", "recoveredLambda",
                    "spectralLambda", "nullity", "lambdaReliable", "survivingFrequencies"):
            assert train_doc[key] == eval_doc[key], key
        assert eval_doc["config"] == doc["config"]

    @pytest.mark.parametrize(
        "line",
        ["loss = logistic", "mu_ramp = constant", "rel_threshold = 0.2", "inv_x_samples = 64",
         "inv_t_samples = 4", "t_max = 1.0", "lr = 1e-3", "hidden = 8", "mu_max_scale = 1.0"],
    )
    def test_removed_config_key_rejected(self, tmp_path, dataset_file, capsys, line):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"epochs = 4\n{line}\n")
        rc = run_cli("train", "--data", str(dataset_file), "--config", str(cfg),
                     "--out", str(tmp_path / "run"))
        assert rc == 1
        key = line.split(" = ")[0]
        assert f"{cfg}: line 2: unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_train_flags_are_the_config_fields(self):
        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in commands.choices["train"]._actions} - {"help"}
        fields = {f.name for f in dataclasses.fields(TrainConfig)}
        assert dests - {"config", "data", "out"} == fields

    def test_dataset_too_small_to_split_exits_one(self, tmp_path, capsys):
        data = tmp_path / "nine.jsonl"
        assert run_cli("gen-data", "--task", "pendulum6d", "--n-samples", "9",
                       "--out", str(data)) == 0
        rc = run_cli("train", "--data", str(data), "--epochs", "2", "--warmup-epochs", "1",
                     "--out", str(tmp_path / "run"))
        assert rc == 1
        assert ("error: a dataset of 9 rows leaves its train, validation or test split empty"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    def test_negative_seed_exits_one_before_the_load(self, tmp_path, dataset_file, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(cli, "load_dataset", None)  # no load may start
        rc = run_cli("train", "--data", str(dataset_file), "--seed", "-1",
                     "--out", str(tmp_path / "run"))
        assert rc == 1
        assert ("error: invalid configuration: seed is not a nonnegative integer below 2^63"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag, key", [("--seed", "seed"), ("--batch-size", "batch_size")])
    def test_integer_a_checkpoint_cannot_hold_exits_one_before_the_load(
            self, tmp_path, dataset_file, capsys, monkeypatch, flag, key):
        # eval reads every config integer back only below 2^63
        monkeypatch.setattr(cli, "load_dataset", None)  # no load may start
        rc = run_cli("train", "--data", str(dataset_file), flag, str(2**63),
                     "--out", str(tmp_path / "run"))
        assert rc == 1
        assert (f"error: invalid configuration: {key} is not a nonnegative integer below 2^63"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    def test_out_that_is_a_file_exits_one_before_training(self, tmp_path, dataset_file, capsys,
                                                          monkeypatch):
        def no_training(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train", no_training)
        out = tmp_path / "file"
        out.write_text("a file\n")
        rc = run_cli("train", "--data", str(dataset_file), "--out", str(out))
        assert rc == 1
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{out}'\n"
        assert out.read_text() == "a file\n"

    def test_unknown_config_key_rejected(self, tmp_path, dataset_file):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs = 4\nwrong_knob = 3\n")
        rc = run_cli("train", "--data", str(dataset_file), "--config", str(cfg),
                     "--out", str(tmp_path / "run"))
        assert rc == 1

    def test_bad_config_value_names_file_and_line(self, tmp_path, dataset_file, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = 3\nepochs = 4.5\n")
        rc = run_cli("train", "--data", str(dataset_file), "--config", str(cfg),
                     "--out", str(tmp_path / "run"))
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{cfg}: line 2: bad value for epochs" in err and "'4.5'" in err

    def test_missing_dataset_exits_one(self, tmp_path):
        rc = run_cli("train", "--data", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "run"))
        assert rc == 1

    @pytest.mark.parametrize(
        "command, flag",
        [("train", "--data"), ("train", "--config"), ("eval", "--checkpoint"), ("eval", "--data")],
    )
    def test_directory_given_as_file_exits_one(self, tmp_path, dataset_file, capsys, command,
                                               flag):
        # and so does a missing file, with the system's message naming it
        folder = tmp_path / "folder"
        folder.mkdir()
        checkpoint = tmp_path / "ckpt.json"
        model.save_checkpoint(model.init_params(4, 1), checkpoint, config={"seed": 0})
        for path, message in ((folder, "[Errno 21] Is a directory"),
                              (tmp_path / "missing", "[Errno 2] No such file or directory")):
            inputs = {"--data": dataset_file}
            if command == "eval":
                inputs = {"--checkpoint": checkpoint, **inputs}
            inputs[flag] = path
            argv = [a for pair in inputs.items() for a in pair]
            rc = run_cli(command, *map(str, argv), "--out", str(tmp_path / "out"))
            assert rc == 1
            assert capsys.readouterr().err == f"error: {message}: '{path}'\n"
            assert not (tmp_path / "out").exists()

    def test_outputs_match_the_json_dump_encoding(self, tmp_path, dataset_file):
        rc = run_cli("train", "--data", str(dataset_file), "--epochs", "2",
                     "--warmup-epochs", "1", "--bandwidth", "1", "--restarts", "1",
                     "--out", str(tmp_path / "run"))
        assert rc == 0
        for name in ("report.json", "checkpoint.json"):
            written = (tmp_path / "run" / name).read_bytes()
            oracle = tmp_path / f"oracle-{name}"
            with open(oracle, "w", encoding="utf-8") as fh:
                json.dump(json.loads(written), fh)
                fh.write("\n")
            assert written == oracle.read_bytes(), name

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

    def test_header_without_n_exits_one(self, tmp_path, dataset_file, capsys):
        lines = dataset_file.read_text().split("\n")
        header = json.loads(lines[0])
        del header["meta"]["n"]
        lines[0] = json.dumps(header)
        bad = tmp_path / "no_n.jsonl"
        bad.write_text("\n".join(lines))
        rc = run_cli("train", "--data", str(bad), "--epochs", "2", "--warmup-epochs", "1",
                     "--out", str(tmp_path / "run"))
        assert rc == 1
        assert f"{bad}: line 1: meta header has no 'n'" in capsys.readouterr().err

    def test_checkpoint_without_frequencies_exits_one(self, tmp_path, dataset_file, capsys):
        rc = run_cli("train", "--data", str(dataset_file), "--epochs", "2",
                     "--warmup-epochs", "1", "--bandwidth", "1", "--restarts", "1",
                     "--out", str(tmp_path / "run"))
        assert rc == 0
        doc = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
        del doc["frequencies"]
        bad = tmp_path / "no_freqs.json"
        bad.write_text(json.dumps(doc))
        rc = run_cli("eval", "--checkpoint", str(bad), "--data", str(dataset_file),
                     "--out", str(tmp_path / "eval.json"))
        assert rc == 1
        assert f"{bad}: checkpoint has no 'frequencies'" in capsys.readouterr().err
        assert not (tmp_path / "eval.json").exists()

    def test_corrupt_checkpoint_names_its_file(self, tmp_path, dataset_file, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n")
        rc = run_cli("eval", "--checkpoint", str(bad), "--data", str(dataset_file),
                     "--out", str(tmp_path / "eval.json"))
        assert rc == 1
        assert f"error: {bad}: invalid JSON (Expecting property name" in capsys.readouterr().err
        assert not (tmp_path / "eval.json").exists()

    @pytest.mark.parametrize("reshape, found", [
        (lambda doc: [doc], "checkpoint is not a JSON object"),
        (lambda doc: {**doc, "config": [doc["config"]]}, "checkpoint config is not a JSON object"),
    ], ids=["list", "config-list"])
    def test_checkpoint_of_the_wrong_shape_exits_one(self, tmp_path, dataset_file, capsys,
                                                     reshape, found):
        bad = tmp_path / "bad.json"
        model.save_checkpoint(model.init_params(4, 1, seed=0), bad, config={"seed": 0})
        bad.write_text(json.dumps(reshape(json.loads(bad.read_text()))))
        rc = run_cli("eval", "--checkpoint", str(bad), "--data", str(dataset_file),
                     "--out", str(tmp_path / "eval.json"))
        assert rc == 1
        assert f"error: {bad}: {found}" in capsys.readouterr().err
        assert not (tmp_path / "eval.json").exists()

    def test_meta_header_of_the_wrong_shape_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"meta": [1]}\n')
        rc = run_cli("train", "--data", str(bad), "--out", str(tmp_path / "run"))
        assert rc == 1
        assert f"error: {bad}: line 1: header meta is not a JSON object" in capsys.readouterr().err

    def test_nonfinite_mu_exits_one_before_training(self, tmp_path, dataset_file, capsys):
        rc = run_cli("train", "--data", str(dataset_file), "--mu", "nan",
                     "--out", str(tmp_path / "run"))
        assert rc == 1
        assert "invalid configuration: mu_init is not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_bandwidth_too_large_exits_one_before_training(self, tmp_path, dataset_file, capsys):
        rc = run_cli("train", "--data", str(dataset_file), "--bandwidth", "1000000",
                     "--out", str(tmp_path / "run"))
        assert rc == 1
        assert "error: bandwidth 1000000 is too large for 2 blocks" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_checkpoint_of_too_large_a_bandwidth_exits_one(self, tmp_path, dataset_file, capsys):
        bad = tmp_path / "bad.json"
        model.save_checkpoint(model.init_params(4, 1, seed=0), bad, config={"seed": 0})
        bad.write_text(json.dumps({**json.loads(bad.read_text()), "bandwidth": 1000000}))
        rc = run_cli("eval", "--checkpoint", str(bad), "--data", str(dataset_file),
                     "--out", str(tmp_path / "eval.json"))
        assert rc == 1
        assert (f"error: {bad}: checkpoint: bandwidth 1000000 is too large for 2 blocks"
                in capsys.readouterr().err)
        assert not (tmp_path / "eval.json").exists()

    def test_eval_with_the_loss_of_another_task_exits_one(self, tmp_path, dataset_file, capsys):
        cls = tmp_path / "cls.jsonl"
        assert run_cli("gen-data", "--task", "synth-cls", "--n", "4", "--n-samples", "600",
                       "--seed", "9", "--rates", "1,-1", "--out", str(cls)) == 0
        for data, name in ((dataset_file, "reg"), (cls, "cls")):
            assert run_cli("train", "--data", str(data), "--epochs", "2", "--warmup-epochs", "1",
                           "--bandwidth", "1", "--restarts", "1",
                           "--out", str(tmp_path / name)) == 0
        for name, data, needs, has in (("cls", dataset_file, "squared-error", "logistic"),
                                       ("reg", cls, "logistic", "squared-error")):
            checkpoint = tmp_path / name / "checkpoint.json"
            rc = run_cli("eval", "--checkpoint", str(checkpoint), "--data", str(data),
                         "--out", str(tmp_path / "eval.json"))
            assert rc == 1
            assert (f"error: dataset {data} needs the {needs} loss, checkpoint {checkpoint} "
                    f"was trained with the {has} loss") in capsys.readouterr().err
            assert not (tmp_path / "eval.json").exists()

    def test_checkpoint_of_the_reflected_frame_evaluates(self, tmp_path, dataset_file):
        # as older versions wrote an odd restart: params of the reflected
        # frame, "reflected": true
        assert run_cli("train", "--data", str(dataset_file), "--epochs", "2",
                       "--warmup-epochs", "1", "--bandwidth", "1", "--restarts", "1",
                       "--out", str(tmp_path / "run")) == 0
        path = tmp_path / "run" / "checkpoint.json"
        params, config = model.load_checkpoint(path)
        old = tmp_path / "old.json"
        model.save_checkpoint(model.from_reflected_frame(params), old, config=config)
        old.write_text(json.dumps({**json.loads(old.read_text()), "reflected": True}))
        for checkpoint, out in ((path, "eval.json"), (old, "old_eval.json")):
            assert run_cli("eval", "--checkpoint", str(checkpoint), "--data", str(dataset_file),
                           "--out", str(tmp_path / out)) == 0
        assert (tmp_path / "eval.json").read_text() == (tmp_path / "old_eval.json").read_text()

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


class TestReport:
    def test_report_table_of_two_train_runs(self, tmp_path, dataset_file):
        runs = tmp_path / "runs"
        for seed in ("3", "4"):
            assert run_cli("train", "--data", str(dataset_file), "--epochs", "2",
                           "--warmup-epochs", "1", "--bandwidth", "1", "--restarts", "1",
                           "--seed", seed, "--out", str(runs / f"seed{seed}")) == 0
        assert run_cli("report", "--dir", str(runs)) == 0
        docs = [json.loads((runs / f"seed{seed}" / "report.json").read_text()) for seed in "34"]

        def mean_std(key):
            values = [abs(doc[key]) for doc in docs]
            return f"{np.mean(values):.5f} ± {np.std(values, ddof=1):.5f}"

        summary = json.loads((runs / "summary.json").read_text())
        assert summary == {"tasks": [{
            "task": "synth", "nRuns": 2, "testMse": mean_std("testMse"), "accuracy": "n/a",
            "invarianceError": mean_std("invarianceError"),
            "cosineSimilarity": mean_std("cosineSimilarity"),
        }]}
        md = (runs / "summary.md").read_text().splitlines()
        assert md[0] == "| Task | Runs | Test MSE | Accuracy | Inv. Error | |Cosine Sim.| |"
        assert md[2] == (f"| synth | 2 | {mean_std('testMse')} | n/a "
                         f"| {mean_std('invarianceError')} | {mean_std('cosineSimilarity')} |")

    def test_report_of_invalid_json_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "run" / "report.json"
        bad.parent.mkdir()
        bad.write_text('{"task": }\n')
        assert run_cli("report", "--dir", str(tmp_path)) == 1
        assert f"error: {bad}: invalid JSON (Expecting value: line 1" in capsys.readouterr().err

    def test_report_on_empty_dir_exits_one(self, tmp_path):
        assert run_cli("report", "--dir", str(tmp_path)) == 1


_QUICK_TRAIN = ("--epochs", "2", "--warmup-epochs", "1", "--bandwidth", "1", "--restarts", "1")


@pytest.mark.parametrize("case", [
    "gen-data --out DIR", "train --out FILE", "eval --out DIR", "eval --out FILE/x.json",
    "report --dir D, D/summary.md a directory",
])
def test_output_that_cannot_be_written_exits_one_naming_it(tmp_path, dataset_file, capsys, case):
    run, folder, file = tmp_path / "run", tmp_path / "folder", tmp_path / "file"
    folder.mkdir()
    file.write_text("a file\n")
    if not case.startswith(("gen-data", "train")):
        assert run_cli("train", "--data", str(dataset_file), *_QUICK_TRAIN, "--out", str(run)) == 0
    evaluate = ["eval", "--checkpoint", run / "checkpoint.json", "--data", dataset_file, "--out"]
    argv, named = {
        "gen-data --out DIR": (["gen-data", "--task", "pendulum6d", "--n-samples", "20", "--out",
                                folder], folder),
        "train --out FILE": (["train", "--data", dataset_file, *_QUICK_TRAIN, "--out", file], file),
        "eval --out DIR": ([*evaluate, folder], folder),
        "eval --out FILE/x.json": ([*evaluate, file / "x.json"], file),
        "report --dir D, D/summary.md a directory": (["report", "--dir", run], run / "summary.md"),
    }[case]
    if case.startswith("report"):
        named.mkdir()
    capsys.readouterr()
    assert run_cli(*map(str, argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.rstrip().endswith(f"'{named}'")
    assert file.read_text() == "a file\n" and not any(folder.iterdir())
    assert not list(tmp_path.rglob("*.tmp"))


def test_oserror_of_no_file_is_a_runtime_failure(tmp_path, capsys, monkeypatch):
    def no_fork(*args):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(cli, "save_dataset", no_fork)
    out = tmp_path / "x.jsonl"
    assert run_cli("gen-data", "--task", "pendulum6d", "--n-samples", "20", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("runtime failure: BlockingIOError: ")


def _not_utf8(path, lineno, column):
    """Put a 0xff byte at byte `column` of line `lineno` of `path`."""
    lines = path.read_bytes().split(b"\n")
    line = lines[lineno - 1]
    lines[lineno - 1] = line[: column - 1] + b"\xff" + line[column:]
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("document, line, column", [
    ("train --data", 5, 30),
    ("eval --data", 5, 30),
    ("eval --checkpoint", 1, 12),
    ("train --config", 2, 5),
    ("report --dir", 1, 12),
])
def test_bytes_that_are_not_utf8_name_the_file_and_line(tmp_path, dataset_file, capsys,
                                                        document, line, column):
    run = tmp_path / "run"
    train = ["train", "--data", str(dataset_file), "--epochs", "2", "--warmup-epochs", "1",
             "--bandwidth", "1", "--restarts", "1", "--out", str(run)]
    eval_ = ["eval", "--checkpoint", str(run / "checkpoint.json"), "--data", str(dataset_file),
             "--out", str(tmp_path / "eval.json")]
    if not document.startswith("train"):
        assert run_cli(*train) == 0
    config = tmp_path / "run.cfg"
    config.write_text("epochs = 2\n# a comment\n")
    bad, argv = {
        "train --data": (dataset_file, train),
        "eval --data": (dataset_file, eval_),
        "eval --checkpoint": (run / "checkpoint.json", eval_),
        "train --config": (config, [*train, "--config", str(config)]),
        "report --dir": (run / "report.json", ["report", "--dir", str(run)]),
    }[document]
    _not_utf8(bad, line, column)
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: line {line}: byte {column} is not UTF-8 (invalid start byte)" in err


def test_the_cli_runs_without_scipy(tmp_path):
    # numpy is the one runtime dependency; the tests run with scipy installed,
    # so a stray scipy import would pass everywhere else
    script = """
import sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from sospec.cli import main
data, run = sys.argv[1] + "/ds.jsonl", sys.argv[1] + "/run"
assert main(["gen-data", "--task", "pendulum6d", "--n-samples", "300", "--out", data]) == 0
assert main(["train", "--data", data, "--epochs", "1", "--warmup-epochs", "1",
             "--restarts", "1", "--out", run]) == 0
assert main(["eval", "--checkpoint", run + "/checkpoint.json", "--data", data,
             "--out", run + "/eval.json"]) == 0
"""
    src = os.path.dirname(os.path.dirname(sospec.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "run" / "eval.json").exists()
