import gc
import weakref

import numpy as np
import pytest

import sospec.model as model
from oracles import gradcheck, generic_objective_case
from sospec.autodiff import Tape


class TestForwardValues:
    def test_matmul_matches_numpy(self):
        # record hands back the very value whose VJP it keeps
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        out, vjp = model.dense_stage(a, b, np.zeros(2), False)
        assert Tape().record(out, vjp) is out
        assert np.array_equal(out, a @ b)


class TestSimpleGradients:
    def test_square_gradient(self):
        # backward seeds the recorded VJP with adjoint 1
        t, x = Tape(), 3.0
        assert t.record(x * x, lambda g: g * 2.0 * x) == 9.0
        assert t.backward() == pytest.approx(6.0, abs=1e-12)

    def test_fanout_accumulates(self):
        # w0 feeds both the first dense layer and the penalty; its gradient
        # is the dense adjoint (the whole gradient at mu = 0) plus the
        # penalty adjoint at mu
        params, x, y, _ = generic_objective_case(4, 1, np.random.default_rng(15))
        mu = 0.37
        w0 = params.layers[0][0]
        start = params.skew.size + params.rates.size

        def w0_grad(mu):
            t = Tape()
            model.build_objective(t, params, x, y, mu)
            return t.backward()[start : start + w0.size].reshape(w0.shape)

        (d_penalty, _) = model.penalty_stage(w0, params.rates, params.freq)[1](mu)
        assert np.abs(d_penalty).max() > 0
        assert np.array_equal(w0_grad(mu), w0_grad(0.0) + d_penalty)


class TestGradchecks:
    """Each pipeline stage's VJP against central finite differences
    (<= 1e-6)."""

    def test_skew_matrix(self):
        # align stage on a small skew
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 4))
        assert gradcheck(model.align_stage, [0.05 * rng.normal(size=6)], x) <= 1e-6

    def test_block_polar(self):
        # one frequency per block: each character sees one block's angle
        rng = np.random.default_rng(8)
        z = rng.normal(size=(5, 6))
        z[np.abs(z) < 0.2] += 0.5  # keep radii away from the floor region
        assert gradcheck(model.features_stage, [z], np.eye(3)) <= 1e-6

    def test_torus_features(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(4, 6))
        z[np.abs(z) < 0.2] += 0.5
        freq = model.init_params(6, 2, seed=0).freq
        assert gradcheck(model.features_stage, [z], freq) <= 1e-6

    def _dense_case(self, relu, seed):
        rng = np.random.default_rng(seed)
        h, w, b = rng.normal(size=(6, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        pre = h @ w + b
        assert np.min(np.abs(pre)) > 1e-3  # away from the ReLU kink
        out, _ = model.dense_stage(h, w, b, relu)
        assert np.array_equal(out, np.maximum(pre, 0.0) if relu else pre)
        return gradcheck(model.dense_stage, [h, w, b], relu)

    def test_matmul_both_orders(self):
        assert self._dense_case(relu=False, seed=5) <= 1e-6

    def test_relu_away_from_kink(self):
        assert self._dense_case(relu=True, seed=10) <= 1e-6

    def test_reductions_and_slices(self):
        # resonance penalty: row sums of w0 squared, cos/sin slices, rates
        params = model.init_params(4, 2, hidden=6, seed=17, first_layer_scale=1.0)
        rng = np.random.default_rng(6)
        w0, rates = params.layers[0][0].copy(), rng.normal(size=2)
        assert gradcheck(model.penalty_stage, [w0, rates], params.freq) <= 1e-6

    def test_logistic_loss(self):
        targets = np.array([[1.0], [0.0], [1.0], [0.0]])
        rng = np.random.default_rng(10)
        assert gradcheck(model.loss_stage, [rng.normal(size=(4, 1))], targets, "logistic") <= 1e-6

    def test_squared_error(self):
        rng = np.random.default_rng(12)
        y = rng.normal(size=(6, 2))
        pred = rng.normal(size=(6, 2))
        assert gradcheck(model.loss_stage, [pred], y, "squared-error") <= 1e-6


def _spy_on_features(monkeypatch):
    """Weak references to every features_stage output. Once build_objective
    returns, only its recorded VJP holds that array (the first dense
    stage's VJP reads it)."""
    features, outputs = model.features_stage, []

    def spy(*args):
        value, vjp = features(*args)
        outputs.append(weakref.ref(value))
        return value, vjp

    monkeypatch.setattr(model, "features_stage", spy)
    return outputs


class TestLifetime:
    def test_used_tape_freed_without_cyclic_collector(self, monkeypatch):
        outputs = _spy_on_features(monkeypatch)
        params, x, y, mu = generic_objective_case(4, 1, np.random.default_rng(13))
        gc.collect()
        gc.disable()
        try:
            # a tape that never ran backward, as on a non-finite objective
            tape = Tape()
            model.build_objective(tape, params, x, y, mu)
            ref = weakref.ref(tape)
            del tape
            assert ref() is None and outputs[0]() is None
            tape = Tape()
            model.build_objective(tape, params, x, y, mu)
            grad = tape.backward()
            ref = weakref.ref(tape)
            del tape
            assert ref() is None and outputs[1]() is None
            assert grad.shape == params.flat.shape  # the gradient outlives the tape
        finally:
            gc.enable()

    def test_backward_drops_the_record(self, monkeypatch):
        # The step's stage arrays are freed by backward itself, before Adam
        # steps, not only when the tape is dropped.
        outputs = _spy_on_features(monkeypatch)
        params, x, y, mu = generic_objective_case(4, 1, np.random.default_rng(14))
        gc.collect()
        gc.disable()
        try:
            tape = Tape()
            model.build_objective(tape, params, x, y, mu)
            assert outputs[0]() is not None
            tape.backward()
            assert outputs[0]() is None
        finally:
            gc.enable()


class TestErrors:
    def test_backward_before_forward(self):
        # a tape with no record, fresh or already read, has no gradient
        t = Tape()
        with pytest.raises(AttributeError):
            t.backward()
        t.record(1.0, lambda g: np.array([g]))
        t.backward()
        with pytest.raises(AttributeError):
            t.backward()


class TestDeterminism:
    def test_identical_replays_bitwise_equal(self):
        params, x, y, mu = generic_objective_case(6, 2, np.random.default_rng(12))

        def run():
            tape = Tape()
            objective = model.build_objective(tape, params, x, y, mu)[0]
            return objective, tape.backward()

        (o1, g1), (o2, g2) = run(), run()
        assert o1 == o2
        assert g1.tobytes() == g2.tobytes()

    def test_repeated_backward_resets_adjoints(self):
        # one tape over two steps: the second backward returns the second
        # step's gradient alone, as a fresh tape does
        rng = np.random.default_rng(16)
        first, x, y, mu = generic_objective_case(4, 1, rng)
        second = generic_objective_case(4, 1, rng)[0]
        t = Tape()
        model.build_objective(t, first, x, y, mu)
        t.backward()
        model.build_objective(t, second, x, y, mu)
        fresh = Tape()
        model.build_objective(fresh, second, x, y, mu)
        assert t.backward().tobytes() == fresh.backward().tobytes()
