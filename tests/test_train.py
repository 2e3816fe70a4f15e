import gc
import json
import math
import os
import pickle
import weakref
from dataclasses import asdict

import numpy as np
import pytest

import sospec.model as model
import sospec.pool as pool_mod
from sospec.autodiff import Tape
from sospec.data import Dataset, synth_invariant_regression
from sospec.lie import CanonicalForm
import sospec.train as train_mod
from sospec.train import RunReport, TrainConfig, evaluate_params, mu_schedule, split_indices, train


def micro_config(**kw):
    defaults = dict(epochs=6, warmup_epochs=2, bandwidth=1, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestMuSchedule:
    def test_protocol_values(self):
        cfg = TrainConfig()
        assert mu_schedule(0, cfg) == pytest.approx(0.1)
        assert mu_schedule(9, cfg) == pytest.approx(0.1)
        assert mu_schedule(39, cfg) == pytest.approx(0.2)

    def test_nondecreasing_and_bounded(self):
        cfg = TrainConfig()
        values = [mu_schedule(e, cfg) for e in range(cfg.epochs)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert max(values) <= 2.0 * cfg.mu_init + 1e-15

    def test_constant_ramp(self):
        # a warm-up as long as the run holds mu at mu_init exactly
        cfg = TrainConfig(warmup_epochs=40, epochs=40)
        assert all(mu_schedule(e, cfg) == cfg.mu_init for e in range(cfg.epochs))

    def test_epoch_out_of_range(self):
        with pytest.raises(ValueError):
            mu_schedule(40, TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(warmup_epochs=50, epochs=40)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(mu_init=-0.1)
        TrainConfig(mu_init=0.0)  # plain regression is allowed

    @pytest.mark.parametrize("name", ["mu_init"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_config_rejects_nonfinite_values(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} is not a finite number$"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("epochs", 3.0), ("restarts", True), ("seed", -1), ("seed", 2**63), ("batch_size", 2**63),
    ])
    def test_config_holds_what_a_checkpoint_reads_back(self, name, value):
        # a nonnegative integer below 2^63, and a bool is none
        with pytest.raises(ValueError, match=f"^{name} is not a nonnegative integer below 2"):
            TrainConfig(**{name: value})


class TestSplit:
    def test_fractions_and_determinism(self):
        tr, va, te = split_indices(1000, seed=4)
        assert len(tr) == 800 and len(va) == 100 and len(te) == 100
        assert len(set(tr) | set(va) | set(te)) == 1000
        tr2, va2, te2 = split_indices(1000, seed=4)
        assert np.array_equal(tr, tr2) and np.array_equal(te, te2)
        tr3, _, _ = split_indices(1000, seed=5)
        assert not np.array_equal(tr, tr3)


def _linear_feature_dataset(n_samples, sigma, seed):
    """Target linear in the identity-frame features of a 2-d input."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_samples, 2))
    radii = np.hypot(x[:, 0], x[:, 1])
    angles = np.arctan2(x[:, 1], x[:, 0])
    clean = 1.2 * np.cos(angles) - 0.8 * np.sin(angles) + 0.6 * radii
    y = clean + sigma * rng.standard_normal(n_samples)
    return Dataset(x, y[:, None], "linear-feature", sigma, seed), rng


class TestTrainBehavior:
    def test_mu_zero_matches_least_squares_oracle(self):
        sigma = 0.3
        ds, _ = _linear_feature_dataset(3000, sigma, seed=11)
        cfg = TrainConfig(epochs=30, warmup_epochs=5, bandwidth=1, seed=2, mu_init=0.0)
        params, report = train(ds, cfg)
        # independent oracle: least squares on the same identity-frame features
        radii = np.hypot(ds.x[:, 0], ds.x[:, 1])
        angles = np.arctan2(ds.x[:, 1], ds.x[:, 0])
        feats = np.stack([np.cos(angles), np.sin(angles), radii, np.ones_like(radii)], axis=1)
        tr, va, te = split_indices(len(ds), cfg.seed)
        coef, *_ = np.linalg.lstsq(feats[tr], ds.y[tr, 0], rcond=None)
        oracle_mse = float(np.mean((feats[te] @ coef - ds.y[te, 0]) ** 2))
        assert oracle_mse <= sigma**2 * 1.1
        assert report.test_mse <= sigma**2 * 1.1

    def test_constant_target_fits_fast(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((2000, 4))
        y = np.full((2000, 1), 1.0)
        cfg = TrainConfig(epochs=5, warmup_epochs=1, bandwidth=1, seed=3)
        _, report = train(Dataset(x, y, "const", 0.0, 21), cfg)
        assert report.test_mse <= 0.02

    def test_rates_unit_norm_after_training(self):
        cf = CanonicalForm(np.eye(4), np.array([1.0, -1.0]) / np.sqrt(2.0))
        ds = synth_invariant_regression(cf, 800, 0.1, seed=5, bandwidth=1)
        params, report = train(ds, micro_config())
        assert abs(np.linalg.norm(params.rates) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(report.recovered_lambda) - 1.0) <= 1e-9

    def test_deterministic_reports(self):
        cf = CanonicalForm(np.eye(4), np.array([1.0, -1.0]) / np.sqrt(2.0))
        ds = synth_invariant_regression(cf, 600, 0.1, seed=6, bandwidth=1)
        _, r1 = train(ds, micro_config(seed=9))
        _, r2 = train(ds, micro_config(seed=9))
        d1, d2 = r1.to_json_dict(), r2.to_json_dict()
        for key in d1:
            if key == "wallClock":
                continue
            assert d1[key] == d2[key], key

    def test_nonfinite_loss_aborts_with_diagnostic(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((500, 4))
        y = rng.standard_normal((500, 1))
        y[3, 0] = np.nan
        params, report = train(Dataset(x, y, "broken", 0.0, 31), micro_config())
        assert params is None
        assert report.failure_reason is not None
        assert report.test_mse is None

    @pytest.mark.parametrize("rows", [2, 9])
    def test_dataset_too_small_to_split_rejected_before_training(self, monkeypatch, rows):
        def no_restart(*args):
            raise AssertionError("a restart started")

        monkeypatch.setattr(train_mod, "_train_single", no_restart)
        with pytest.raises(ValueError, match=f"a dataset of {rows} rows leaves its train, "
                                             "validation or test split empty"):
            train(_restart_dataset(rows, seed=4), micro_config())

    def test_ten_rows_fill_every_split(self):
        assert [part.size for part in split_indices(10, seed=4)] == [8, 1, 1]
        params, report = train(_restart_dataset(10, seed=4), micro_config(restarts=1))
        assert params is not None and report.test_mse is not None

    def test_loss_and_penalty_curves_are_epoch_means_of_the_objective_terms(self, monkeypatch):
        terms = []  # (prediction loss, penalty) of every batch, in order
        build = model.build_objective

        def spy(*args):
            built = build(*args)
            terms.append(built[1:3])
            return built

        monkeypatch.setattr(model, "build_objective", spy)
        ds = _restart_dataset(600, seed=7)
        cfg = micro_config(seed=1, epochs=3, warmup_epochs=1, restarts=1)
        _, report = train(ds, cfg)
        batches = math.ceil(split_indices(len(ds), cfg.seed)[0].size / cfg.batch_size)
        assert batches > 1 and len(terms) == cfg.epochs * batches
        for e in range(cfg.epochs):
            losses, penalties = zip(*terms[e * batches : (e + 1) * batches])
            assert report.loss_curve[e] == float(np.mean(losses))
            assert report.penalty_curve[e] == float(np.mean(penalties))

    def test_mu_curve_is_the_schedule(self):
        cfg = micro_config(restarts=1)
        _, report = train(_restart_dataset(600, seed=16), cfg)
        assert report.mu_curve == [mu_schedule(e, cfg) for e in range(cfg.epochs)]
        assert report.to_json_dict()["muCurve"] == report.mu_curve

    def test_mu_curve_is_empty_when_every_restart_fails(self, monkeypatch):
        monkeypatch.setattr(train_mod, "_train_single", lambda dataset, cfg, restart: "diverged")
        params, report = train(_restart_dataset(600, seed=16), micro_config())
        assert params is None and report.restart_failures == ["diverged", "diverged"]
        assert report.mu_curve == [] and report.to_json_dict()["muCurve"] == []

    def test_config_echo_completeness(self):
        cf = CanonicalForm(np.eye(4), np.array([1.0, -1.0]) / np.sqrt(2.0))
        ds = synth_invariant_regression(cf, 600, 0.1, seed=8, bandwidth=1)
        cfg = micro_config()
        _, report = train(ds, cfg)
        for knob in asdict(cfg):
            assert knob in report.config


def _without_wall_clock(report):
    doc = report.to_json_dict()
    del doc["wallClock"]
    return doc


def _blas_threads():
    """The thread count numpy's OpenBLAS uses in this process."""
    return pool_mod._blas_thread_calls()[1]()


def _restart_dataset(n_samples, seed):
    cf = CanonicalForm(np.eye(4), np.array([1.0, -1.0]) / np.sqrt(2.0))
    return synth_invariant_regression(cf, n_samples, 0.1, seed=seed, bandwidth=1)


def _zeros(n_samples):
    return Dataset(np.zeros((n_samples, 4)), np.zeros((n_samples, 1)), "zeros", 0.0, 0)


def _parent_workers(cfg):
    """The worker count a run long enough for a pool gets in this process."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    can_pool = pool_mod._HAVE_FORK and pool_mod._blas_thread_calls() is not None
    return min(cfg.restarts, cpus) if can_pool else 1


def _train_with_workers(monkeypatch, workers, ds, cfg):
    monkeypatch.setattr(train_mod, "_restart_workers", lambda dataset, cfg: workers)
    return train(ds, cfg)


class TestParallelRestarts:
    @pytest.mark.parametrize("restarts", [2, 4])
    def test_worker_pool_matches_in_process(self, tmp_path, monkeypatch, restarts):
        # with 4 restarts on 2 workers, each worker trains two restarts
        ds = _restart_dataset(600, seed=12)
        cfg = micro_config(seed=5, restarts=restarts)
        runs = {w: _train_with_workers(monkeypatch, w, ds, cfg) for w in (1, 2)}
        assert _without_wall_clock(runs[2][1]) == _without_wall_clock(runs[1][1])
        assert runs[1][1].restart_failures == [None] * restarts
        for workers, (params, report) in runs.items():
            model.save_checkpoint(params, tmp_path / f"{workers}.json", config=report.config)
        assert (tmp_path / "2.json").read_bytes() == (tmp_path / "1.json").read_bytes()

    def test_workers_hold_blas_to_one_thread(self):
        calls = pool_mod._blas_thread_calls()
        if calls is None:
            pytest.skip("numpy's BLAS exposes no OpenBLAS thread setter")
        before = calls[1]()
        calls[0](2)  # a forked worker would otherwise inherit this count
        try:
            with pool_mod.worker_pool(2) as pool:
                assert pool.submit(_blas_threads).result() == 1
        finally:
            calls[0](before)

    def test_step_floor_decides_the_default(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was created")

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", no_pool)
        params, report = train(_restart_dataset(600, seed=14), micro_config())  # 6 x 4 steps
        assert params is not None and report.failure_reason is None

        big, cfg = _zeros(4000), TrainConfig(epochs=4, warmup_epochs=1)  # 4 x 25 steps
        assert cfg.epochs * 25 == train_mod.PARALLEL_MIN_STEPS
        assert train_mod._restart_workers(big, cfg) == _parent_workers(cfg)
        assert train_mod._restart_workers(big, TrainConfig(epochs=3, warmup_epochs=1)) == 1

    def test_pool_worker_trains_in_process(self):
        big, cfg = _zeros(4000), TrainConfig()
        assert train_mod._restart_workers(big, cfg) == _parent_workers(cfg)
        with pool_mod.worker_pool(1) as pool:
            assert pool.submit(train_mod._restart_workers, big, cfg).result() == 1

    def test_diverging_restart_is_recorded_and_skipped(self, monkeypatch):
        real_single = train_mod._train_single

        def restart_one_diverges(dataset, cfg, restart):
            if restart == 1:
                return "non-finite objective at restart 1"
            return real_single(dataset, cfg, restart)

        monkeypatch.setattr(train_mod, "_train_single", restart_one_diverges)
        ds = _restart_dataset(600, seed=15)
        params, report = _train_with_workers(monkeypatch, 1, ds, micro_config())
        assert params is not None and report.failure_reason is None
        assert report.restart_failures == [None, "non-finite objective at restart 1"]
        assert report.restart_val_losses[0] is not None and report.restart_val_losses[1] is None
        assert report.chosen_restart == 0 and report.test_mse is not None

    def test_diverging_restart_in_a_worker_is_recorded(self, monkeypatch):
        # restart 0 of the NaN dataset fails inside a worker process
        rng = np.random.default_rng(31)
        x = rng.standard_normal((500, 4))
        y = rng.standard_normal((500, 1))
        y[3, 0] = np.nan
        dataset = Dataset(x, y, "broken", 0.0, 31)
        params, report = _train_with_workers(monkeypatch, 2, dataset, micro_config())
        assert params is None
        assert all(f.startswith("non-finite objective") for f in report.restart_failures)
        assert report.restart_val_losses == [None, None]
        assert report.failure_reason == "; ".join(report.restart_failures)


def _load_saved(params, path, reflected):
    model.save_checkpoint(params, path)
    path.write_text(json.dumps({**json.loads(path.read_text()), "reflected": reflected}))
    return model.load_checkpoint(path)[0]


class TestFlatParameters:
    @pytest.mark.parametrize("make", [
        lambda source, path: model.init_params(6, 1, hidden=8, seed=5),
        lambda source, path: model.init_params(6, 1, hidden=8, seed=5, reflected=True),
        lambda source, path: source.copy(),
        lambda source, path: model.from_reflected_frame(source),
        lambda source, path: _load_saved(source, path, False),
        lambda source, path: _load_saved(source, path, True),
        lambda source, path: pickle.loads(pickle.dumps(source)),
    ], ids=["init", "init-reflected", "copy", "from-reflected-frame", "load", "load-reflected",
            "pickle"])
    def test_every_leaf_is_a_view_of_flat_in_leaf_order(self, make, tmp_path):
        source = model.init_params(6, 2, hidden=8, seed=4)
        params = make(source, tmp_path / "ckpt.json")
        assert not np.shares_memory(params.flat, source.flat)
        count = np.arange(params.flat.size, dtype=np.float64)
        params.flat[...] = count
        offset = 0
        for name, a in model.leaf_arrays(params).items():
            assert a.base is params.flat, name
            assert np.array_equal(a.ravel(), count[offset : offset + a.size]), name
            offset += a.size
        assert offset == params.flat.size

    def test_flat_holds_every_leaf_and_copy_snapshots_it(self):
        params = model.init_params(4, 1, hidden=8, seed=3)
        before = {name: a.copy() for name, a in model.leaf_arrays(params).items()}
        flat = params.flat
        offset = 0
        for name, a in model.leaf_arrays(params).items():
            assert np.shares_memory(a, flat) and a.flags.c_contiguous
            assert np.array_equal(flat[offset : offset + a.size], before[name].ravel())
            offset += a.size
        assert offset == flat.size
        snapshot = params.copy()
        flat += 1.0
        for name, a in model.leaf_arrays(snapshot).items():
            assert not np.shares_memory(a, flat)
            assert np.array_equal(a, before[name])
        assert np.array_equal(params.layers[2][0], before["w2"] + 1.0)

    @pytest.mark.parametrize("epoch", [0, 1], ids=["warmup", "ramp"])
    def test_every_leaf_gradient_reaches_adam(self, epoch, monkeypatch):
        # One batch per epoch; epoch 0 is warm-up, epoch 1 is not. With mu > 0
        # the rates move from the first step on, like every other leaf.
        cf = CanonicalForm(np.eye(4), np.array([1.0, -1.0]) / np.sqrt(2.0))
        ds = synth_invariant_regression(cf, 10, 0.1, seed=4)
        cfg = TrainConfig(epochs=2, warmup_epochs=1, bandwidth=1, restarts=1)
        assert cfg.mu_init > 0
        steps = []
        build, backward, adam_step = model.build_objective, Tape.backward, train_mod.Adam.step

        def spy_build(tape, params, *args):
            steps.append([params.copy()])
            return build(tape, params, *args)

        def spy_backward(tape):
            grad = backward(tape)
            steps[-1].append(grad.copy())
            return grad

        def spy_step(adam, grad):
            steps[-1].append(grad.copy())
            return adam_step(adam, grad)

        monkeypatch.setattr(model, "build_objective", spy_build)
        monkeypatch.setattr(Tape, "backward", spy_backward)
        monkeypatch.setattr(train_mod.Adam, "step", spy_step)
        train_mod._train_single(ds, cfg, 0)
        assert len(steps) == 2
        grads, returned, grad = steps[epoch]
        assert np.array_equal(grad, returned)
        grads.flat[...] = grad
        for name, part in model.leaf_arrays(grads).items():
            assert np.any(part != 0.0), name
        assert grad.size == grads.flat.size


class TestStepLifetime:
    def test_each_tape_is_freed_before_the_next_forward(self, monkeypatch):
        cf = CanonicalForm(np.eye(4), np.array([1.0, -1.0]) / np.sqrt(2.0))
        ds = synth_invariant_regression(cf, 400, 0.1, seed=8, bandwidth=1)
        cfg = TrainConfig(epochs=2, warmup_epochs=1, bandwidth=1, restarts=1)
        tapes, checks = [], []
        build, forward_loss = model.build_objective, train_mod._forward_loss

        def last_tape_dead():
            return not tapes or tapes[-1]() is None

        def spy_build(tape, *args, **kwargs):
            checks.append(("build", last_tape_dead()))
            tapes.append(weakref.ref(tape))
            return build(tape, *args, **kwargs)

        def spy_forward_loss(*args):
            checks.append(("validation", last_tape_dead()))
            return forward_loss(*args)

        monkeypatch.setattr(model, "build_objective", spy_build)
        monkeypatch.setattr(train_mod, "_forward_loss", spy_forward_loss)
        gc.disable()  # only reference counting may free the tapes
        try:
            train_mod._train_single(ds, cfg, 0)
        finally:
            gc.enable()
        assert [kind for kind, _ in checks].count("validation") == 2
        assert len(tapes) == 2 * 3  # 320 training rows in batches of 128
        assert all(dead for _, dead in checks), checks


class TestEvaluateParams:
    """The generator read off trained parameters, through the report."""

    RATES = np.array([1.0, -1.0]) / np.sqrt(2.0)

    def _true_frame_params(self):
        params = model.init_params(4, 1, seed=40)
        params.skew[:] = 0.0
        params.rates = self.RATES.copy()
        w1 = params.layers[0][0]
        w1[:] = 0.0
        idx = params.freq.tolist().index([1, 1])
        w1[idx, 0] = 1.0
        w1[params.num_freqs + idx, 1] = -0.5
        return params

    def _evaluate(self, params):
        cf = CanonicalForm(np.eye(4), self.RATES)
        ds = synth_invariant_regression(cf, 200, 0.1, seed=40, bandwidth=1)
        cfg = micro_config()
        report = RunReport(task=ds.task, seed=cfg.seed, config={})
        evaluate_params(params, ds, cfg, report)
        return report

    def test_true_frame_resonant_weights(self):
        report = self._evaluate(self._true_frame_params())
        assert report.cosine_similarity == pytest.approx(1.0, abs=1e-12)
        assert report.cosine_similarity_spectral == pytest.approx(1.0, abs=1e-9)
        assert report.estimator_agreement == pytest.approx(1.0, abs=1e-9)
        assert report.nullity == 1 and report.lambda_reliable is True

    def test_full_rank_surviving_flagged(self):
        params = self._true_frame_params()
        w1 = params.layers[0][0]
        idx01 = params.freq.tolist().index([0, 1])
        idx10 = params.freq.tolist().index([1, 0])
        w1[:] = 0.0
        w1[idx01, 0] = 1.0
        w1[idx10, 0] = 1.0
        report = self._evaluate(params)
        assert report.nullity == 0
        assert report.lambda_reliable is False

    def test_spectral_estimate_from_single_ray(self):
        report = self._evaluate(self._true_frame_params())
        assert np.allclose(report.spectral_lambda, self.RATES, atol=1e-12)
        assert report.surviving_frequencies == [[1, 1]]
