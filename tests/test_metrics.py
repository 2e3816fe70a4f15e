import os
from concurrent.futures import Future

import numpy as np
import pytest

import sospec.model as model
import sospec.pool as pool_mod
import sospec.sweep as sweep_mod
import sospec.train as train_mod
from sospec.data import Dataset, DatasetMeta
from sospec.lie import J2
from sospec.metrics import accuracy, invariance_error
from sospec.metrics import test_mse as mse_metric
from sospec.sweep import SweepSpec, aggregate, run_one, run_sweep
from sospec.train import RunReport, TrainConfig


def _zeros(n_samples):
    meta = DatasetMeta(task="zeros", n=4, out_dim=1, n_samples=n_samples, noise_sigma=0.0, seed=0)
    return Dataset(np.zeros((n_samples, 4)), np.zeros((n_samples, 1)), meta)


def constant_model(n, value):
    params = model.init_params(n, 1, seed=0)
    for w, b in params.layers:
        w[:] = 0.0
        b[:] = 0.0
    params.layers[-1][1][:] = value
    return params


class TestTestMse:
    def test_perfect_predictor(self):
        params = constant_model(4, 0.75)
        x = np.random.default_rng(0).normal(size=(20, 4))
        y = np.full((20, 1), 0.75)
        assert mse_metric(params, x, y) == 0.0

    def test_zero_predictor_unit_targets(self):
        params = constant_model(4, 0.0)
        x = np.random.default_rng(1).normal(size=(10, 4))
        assert mse_metric(params, x, np.ones((10, 1))) == 1.0

    def test_two_sample_hand_value(self):
        params = constant_model(2, 1.0)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([[0.0], [1.0]])
        # errors are 1 and 0: mean of (1, 0) = 0.5
        assert mse_metric(params, x, y) == pytest.approx(0.5, abs=1e-15)

    def test_empty_set_rejected(self):
        params = constant_model(2, 0.0)
        with pytest.raises(ValueError):
            mse_metric(params, np.zeros((0, 2)), np.zeros((0, 1)))


class TestInvarianceError:
    def test_rotation_invariant_callable(self):
        fn = lambda x: np.sum(x**2, axis=1)
        xs = np.random.default_rng(2).normal(size=(64, 2))
        err = invariance_error(fn, xs, J2, np.array([0.3, -1.1, 2.2]))
        assert err <= 1e-12

    def test_linear_predictor_matches_analytic_oracle(self):
        # f(x) = x1 under planar rotation: E_x[(x1 - (x1 cos t - x2 sin t))^2]
        # = 2 - 2 cos t for standard normal x
        ts = np.array([0.5, 1.5, -2.0])
        expected = float(np.mean(2.0 - 2.0 * np.cos(ts)))
        xs = np.random.default_rng(3).normal(size=(40000, 2))
        got = invariance_error(lambda x: x[:, 0], xs, J2, ts)
        assert got == pytest.approx(expected, rel=0.03)

    def test_zero_time_grid(self):
        params = constant_model(2, 0.3)
        xs = np.random.default_rng(4).normal(size=(16, 2))
        assert invariance_error(params, xs, J2, np.array([0.0])) == 0.0

    def test_accepts_trained_params(self):
        params = constant_model(4, 1.0)
        gen = np.zeros((4, 4))
        gen[:2, :2] = J2
        gen[2:, 2:] = -J2
        xs = np.random.default_rng(5).normal(size=(8, 4))
        assert invariance_error(params, xs, gen, np.array([0.7])) == 0.0


class TestAccuracy:
    def test_all_correct(self):
        params = constant_model(2, 5.0)  # always predicts logit 5 -> label 1
        x = np.random.default_rng(6).normal(size=(12, 2))
        assert accuracy(params, x, np.ones((12, 1))) == 1.0
        assert accuracy(params, x, np.zeros((12, 1))) == 0.0


def _pools_fork():
    """Whether `pool.worker_count` can give a job more than one process."""
    return pool_mod._HAVE_FORK and pool_mod._blas_thread_calls() is not None


def micro_spec(**kw):
    base = TrainConfig(epochs=4, warmup_epochs=2, bandwidth=1, seed=0)
    defaults = dict(
        axis="noise", values=[0.2], repeats=2, task="synth", n=4, rates=(1, -1),
        n_samples=400, base=base,
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


class TestSweep:
    def test_repeats_give_std_zero_for_single_run(self):
        spec = micro_spec(repeats=1)
        docs, agg = run_sweep(spec)
        assert len(docs) == 1
        assert agg["points"][0]["stdCos"] == 0.0
        assert agg["points"][0]["nRuns"] == 1

    def test_identical_cells_identical_metrics(self):
        spec = micro_spec(repeats=1)
        d1 = run_one(spec, 0, 0)
        d2 = run_one(spec, 0, 0)
        for key in ("testMse", "cosineSimilarity", "invarianceError", "recoveredLambda"):
            assert d1[key] == d2[key]

    def test_aggregate_recomputes_from_run_docs(self):
        spec = micro_spec()
        docs, agg = run_sweep(spec)
        assert aggregate(spec, docs) == agg
        point = agg["points"][0]
        cos_vals = [abs(d["cosineSimilarity"]) for d in docs]
        assert point["meanCos"] == pytest.approx(float(np.mean(cos_vals)), abs=1e-15)
        assert point["stdCos"] == pytest.approx(float(np.std(cos_vals, ddof=1)), abs=1e-15)
        assert point["nRuns"] == 2

    def test_failed_runs_recorded_and_skipped(self, monkeypatch):
        spec = micro_spec(values=[0.2, 0.4], repeats=1)
        real_train = sweep_mod.train

        def flaky(ds, cfg):
            if ds.meta.noise_sigma == 0.4:
                raise RuntimeError("injected failure")
            return real_train(ds, cfg)

        monkeypatch.setattr(sweep_mod, "train", flaky)
        docs, agg = run_sweep(spec)
        assert len(docs) == 2
        failed = [d for d in docs if d.get("failureReason")]
        assert len(failed) == 1 and "injected failure" in failed[0]["failureReason"]
        by_value = {p["value"]: p for p in agg["points"]}
        assert by_value[0.2]["nRuns"] == 1
        assert by_value[0.4]["nRuns"] == 0
        assert by_value[0.4]["meanCos"] is None

    def test_fanned_out_sweep_matches_in_process(self, monkeypatch):
        spec = micro_spec(values=[0.2, 0.4])
        pooled = run_sweep(spec)
        monkeypatch.setattr(sweep_mod, "worker_count", lambda tasks: 1)
        in_process = run_sweep(spec)
        for docs, _ in (pooled, in_process):
            for doc in docs:
                assert doc.pop("wallClock") is not None
        assert pooled == in_process
        assert len(pooled[0]) == 4 and not any(d["failureReason"] for d in pooled[0])

    @pytest.mark.parametrize("sweep_workers, train_workers", [(1, None), (2, 1)])
    def test_fanned_out_sweep_trains_in_process(self, monkeypatch, sweep_workers, train_workers):
        # train_workers None: each run's train picks its own worker count
        if sweep_workers > 1 and not _pools_fork():
            pytest.skip("this platform keeps every job in-process")
        big, cfg = _zeros(4000), TrainConfig()
        parent = os.getpid()

        def record_workers(ds, cfg):
            config = {
                "workers": train_mod._restart_workers(big, TrainConfig()),
                "inWorker": os.getpid() != parent,
            }
            return None, RunReport(task=ds.meta.task, seed=cfg.seed, config=config)

        monkeypatch.setattr(sweep_mod, "train", record_workers)
        monkeypatch.setattr(sweep_mod, "worker_count", lambda tasks: sweep_workers)
        docs, _ = run_sweep(micro_spec())
        expected = train_mod._restart_workers(big, cfg) if train_workers is None else train_workers
        assert len(docs) == 2 and not any(d.get("failureReason") for d in docs)
        assert [d["config"] for d in docs] == [
            {"workers": expected, "inWorker": sweep_workers > 1}
        ] * 2

    @pytest.mark.parametrize("cpus, cells, workers", [(1000, 4, 4), (3, 4, 3), (2, 1, None)])
    def test_jobs_capped_at_cells_and_cpus(self, monkeypatch, cpus, cells, workers):
        # workers None: no pool, the one run goes in-process
        if not _pools_fork():
            pytest.skip("this platform keeps every job in-process")
        asked = []

        class StubPool:
            """Runs each task here: no process is started, whatever count it
            is asked for."""

            def __init__(self, count, shared):
                asked.append(count)
                monkeypatch.setattr(pool_mod, "_worker_shared", shared)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(pool_mod, "worker_pool", StubPool)
        monkeypatch.setattr(sweep_mod, "run_one", lambda spec, i, rep: {"sweep": {
            "axis": spec.axis, "value": spec.values[i], "repeat": rep}})
        monkeypatch.setattr(pool_mod.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        docs, _ = run_sweep(micro_spec(repeats=cells))
        assert [d["sweep"]["repeat"] for d in docs] == list(range(cells))
        assert asked == ([] if workers is None else [workers])
        assert pool_mod.worker_count(cells) == (workers or 1)

    def test_progress_sees_each_run_in_grid_order(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "run_one", lambda spec, i, rep: {"sweep": {
            "axis": spec.axis, "value": spec.values[i], "repeat": rep}})
        seen = []
        docs, _ = run_sweep(micro_spec(values=[0.2, 0.4], repeats=2), progress=seen.append)
        assert seen == docs
        assert [(d["sweep"]["value"], d["sweep"]["repeat"]) for d in docs] == [
            (0.2, 0), (0.2, 1), (0.4, 0), (0.4, 1)
        ]

    def test_default_axis_values(self):
        spec = SweepSpec(axis="noise", base=TrainConfig())
        assert spec.values == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        spec = SweepSpec(axis="samples", base=TrainConfig())
        assert spec.values == [8000, 16000, 32000, 64000]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="depth", base=TrainConfig())
        with pytest.raises(ValueError):
            SweepSpec(axis="noise", values=[0.1, -0.2], base=TrainConfig())
        with pytest.raises(ValueError):
            SweepSpec(axis="noise", task="synth", n=6, rates=(1, -1), base=TrainConfig())
        with pytest.raises(ValueError, match="ambient dimension must be even, got 5"):
            SweepSpec(axis="noise", task="synth", n=5, rates=(1, -1), base=TrainConfig())
        with pytest.raises(ValueError, match="n_samples must be positive, got 0"):
            SweepSpec(axis="noise", n_samples=0, base=TrainConfig())
        SweepSpec(axis="noise", task="pendulum6d", n=5, base=TrainConfig())  # n is unused

    @pytest.mark.parametrize(
        "values, found",
        [
            ([0.1, float("nan")], "must be finite and positive, got nan"),
            ([float("inf")], "must be finite and positive, got inf"),
            ([0.1, 0.2, 0.1], "must be distinct, got 0.1 twice"),
        ],
    )
    def test_spec_rejects_values_that_name_no_distinct_run(self, values, found):
        with pytest.raises(ValueError, match=f"sweep values {found}"):
            SweepSpec(axis="noise", values=values, base=TrainConfig())

    def test_outputs_written(self, tmp_path):
        spec = micro_spec(repeats=1)
        docs, agg = run_sweep(spec)
        paths, agg_path, csv_path = sweep_mod.write_sweep_outputs(tmp_path, docs, agg)
        assert all(p.exists() for p in paths)
        header = csv_path.read_text().splitlines()[0]
        assert header == "axisValue,meanCos,stdCos,meanLoss,stdLoss"
        import json

        assert json.loads(agg_path.read_text())["axis"] == "noise"
