"""The benchmark's own tests: every check accepts a right answer and rejects
a wrong one, and tracing changes no result.

    python3 -m pytest -q perfbench
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import fresh_import, read_json  # noqa: E402


@pytest.fixture
def sospec():
    return fresh_import()


def true_checkpoint(reflected=False):
    rates = checks.PENDULUM_RATES.copy()
    if reflected:  # a reflected frame carries the last rate with its sign flipped
        rates[-1] = -rates[-1]
    return {"n": 6, "skewParams": [0.0] * 15, "lambda": rates.tolist(), "reflected": reflected}


@pytest.mark.parametrize("reflected", [False, True])
def test_recovery_accepts_the_true_generator(reflected):
    ckpt = true_checkpoint(reflected)
    assert checks.check_recovery(ckpt, {"cosineSimilarity": 1.0}, checks.pendulum_generator()) == []


def test_recovery_rejects_a_flipped_rate_sign():
    ckpt = true_checkpoint()
    ckpt["lambda"][1] = -ckpt["lambda"][1]
    cos = checks.cosine(checks.learned_generator(ckpt), checks.pendulum_generator())
    assert math.isclose(cos, 1.0 / 3.0)
    problems = checks.check_recovery(ckpt, {"cosineSimilarity": cos}, checks.pendulum_generator())
    assert len(problems) == 1 and "below" in problems[0]


def test_recovery_rejects_a_report_that_disagrees():
    problems = checks.check_recovery(
        true_checkpoint(), {"cosineSimilarity": 1.0 - 1e-6}, checks.pendulum_generator()
    )
    assert len(problems) == 1 and "differs" in problems[0]


@pytest.mark.parametrize("reflected", [False, True])
def test_forward_matches_the_program(sospec, tmp_path, reflected):
    params = sospec.model.init_params(6, 2, seed=3, reflected=reflected)
    params.skew[:] = np.random.default_rng(0).normal(scale=0.7, size=params.skew.shape)
    path = tmp_path / "ckpt.json"
    sospec.model.save_checkpoint(params, path)
    x = np.random.default_rng(1).normal(size=(50, 6))
    np.testing.assert_allclose(
        checks.forward(read_json(path), x), sospec.model.predict(params, x), rtol=1e-10, atol=1e-12
    )


def test_split_is_the_documented_one(sospec):
    for n, seed in ((1000, 0), (64000, 7)):
        assert np.array_equal(checks.split_test_rows(n, seed), sospec.train.split_indices(n, seed)[2])


def test_test_mse_rejects_a_perturbed_first_layer_weight(sospec, tmp_path):
    params = sospec.model.init_params(6, 1, seed=4)
    ds = sospec.data.double_pendulum_task(500, 0.1, seed=5)
    test_rows = sospec.train.split_indices(len(ds), 2)[2]
    report = {"testMse": sys.modules["sospec.metrics"].test_mse(params, ds.x[test_rows], ds.y[test_rows])}
    path = tmp_path / "ckpt.json"
    sospec.model.save_checkpoint(params, path)
    ckpt = read_json(path)
    assert checks.check_test_mse(ckpt, ds.x, ds.y, 2, report) == []
    ckpt["layers"][0]["weight"][0][0] += 1e-3
    assert len(checks.check_test_mse(ckpt, ds.x, ds.y, 2, report)) == 1


def test_dataset_file_round_trip_is_checked_bit_for_bit(sospec, tmp_path):
    ds = sospec.data.double_pendulum_task(300, 0.1, seed=9)
    path = tmp_path / "d.jsonl"
    sospec.data.save_dataset(ds, path)
    meta, x, y = checks.read_jsonl(path)
    assert meta["nSamples"] == 300
    assert checks.check_same_data(x, y, ds.x, ds.y) == []
    y[17, 0] = np.nextafter(y[17, 0], np.inf)
    assert checks.check_same_data(x, y, ds.x, ds.y) == ["1 y values differ from the reference bits"]


def test_noise_check_accepts_the_task_and_rejects_wrong_targets(sospec):
    ds = sospec.data.double_pendulum_task(20000, 0.1, seed=11)
    assert checks.check_pendulum_noise(ds.x, ds.y, 0.1) == []
    noisier = ds.y + 0.1 * np.random.default_rng(0).normal(size=ds.y.shape)
    assert checks.check_pendulum_noise(ds.x, noisier, 0.1)
    z = ds.x[:, 0::2] + 1j * ds.x[:, 1::2]
    wrong_pair = ds.y + 0.05 * np.real(z[:, :1] * np.conj(z[:, 1:2]))
    assert checks.check_pendulum_noise(ds.x, wrong_pair, 0.1)
    assert checks.check_pendulum_noise(ds.x, ds.y + 0.01, 0.1)


def test_eval_must_reproduce_the_train_report():
    report = {key: 0.5 for key in checks.METRIC_FIELDS}
    assert checks.check_eval_matches_train(report, dict(report)) == []
    changed = dict(report, invarianceError=0.5 + 1e-15)
    assert len(checks.check_eval_matches_train(report, changed)) == 1


def _tiny_train(sospec):
    ds = sospec.data.double_pendulum_task(400, 0.1, seed=1)
    cfg = sospec.train.TrainConfig(seed=2, bandwidth=1, epochs=2, warmup_epochs=1, restarts=2)
    return sospec.train.train(ds, cfg)[1].to_json_dict()


def test_tracing_wraps_every_alias_and_changes_no_result(sospec):
    plain = _tiny_train(sospec)

    traced_mods = fresh_import()
    recorder = tracing.Recorder(True)
    recorder.install()
    lie = sys.modules["sospec.lie"]
    wrapper = lie.matrix_exp
    assert wrapper.__perfbench_wrapped__
    for mod in ("sospec", "sospec.metrics", "sospec.data"):
        assert sys.modules[mod].matrix_exp is wrapper
    recorder.begin("round", 0)
    traced = _tiny_train(traced_mods)
    recorder.end()

    assert {k: v for k, v in traced.items() if k != "wallClock"} == {
        k: v for k, v in plain.items() if k != "wallClock"
    }
    layer = tracing.layer_metrics(recorder.tracer, recorder.gc, file_mb=1.0, round_s=1.0)
    steps = 2 * 2 * math.ceil(int(0.8 * 400) / 128)  # restarts x epochs x batches
    assert layer["train.steps"] == (steps / 1, "count")
    assert layer["autodiff.ops_per_step"][0] > 0
    assert layer["train.step_ms"][0] > layer["train.adam_ms"][0] > 0
    assert layer["lie.matrix_exp_calls"][0] > 0
