from functools import partial

import numpy as np
import pytest

import sospec.model as model
from sospec.lie import J2
from sospec.metrics import accuracy, invariance_error
from sospec.metrics import test_mse as mse_metric


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
        assert invariance_error(partial(model.predict, params), xs, J2, np.array([0.0])) == 0.0

    def test_accepts_trained_params(self):
        params = constant_model(4, 1.0)
        gen = np.zeros((4, 4))
        gen[:2, :2] = J2
        gen[2:, 2:] = -J2
        xs = np.random.default_rng(5).normal(size=(8, 4))
        assert invariance_error(partial(model.predict, params), xs, gen, np.array([0.7])) == 0.0


class TestAccuracy:
    def test_all_correct(self):
        params = constant_model(2, 5.0)  # always predicts logit 5 -> label 1
        x = np.random.default_rng(6).normal(size=(12, 2))
        assert accuracy(params, x, np.ones((12, 1))) == 1.0
        assert accuracy(params, x, np.zeros((12, 1))) == 0.0
