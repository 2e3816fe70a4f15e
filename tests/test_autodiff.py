import gc
import weakref

import numpy as np
import pytest

import sospec.model as model
from oracles import gradcheck
from sospec.autodiff import Tape


def _square_stage(a):
    return a * a, lambda g: (g * 2.0 * a,)


def _add_stage(a, b):
    # hands the same adjoint array to both inputs
    return a + b, lambda g: (g, g)


def _scale_stage(a, c):
    return a * c, lambda g: (g * c,)


def _sum_stage(a):
    return np.sum(a), lambda g: (np.broadcast_to(g, a.shape).copy(),)


def _matmul_stage(a, b):
    return a @ b, lambda g: (g @ b.T, a.T @ g)


def _weighted_sum(t, v, weights):
    """Scalar <weights, v> on the tape, so a stage's whole output is checked."""
    return t.record(lambda a: (np.sum(a * weights), lambda g: (g * weights,)), (v,))


class TestForwardValues:
    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        t = Tape()
        out = t.record(_matmul_stage, (t.param(a), t.param(b)))
        assert np.array_equal(out.value, a @ b)
        assert len(t._entries) == 1  # one entry per stage

    def test_static_args_pass_through(self):
        t = Tape()
        x = t.param(np.array([1.0, -2.0]))
        out = t.record(lambda a, c: (a * c, lambda g: (g * c,)), (x,), 3.0)
        t.backward(t.record(_sum_stage, (out,)))
        assert np.array_equal(out.value, [3.0, -6.0])
        assert np.array_equal(x.grad, [3.0, 3.0])


class TestSimpleGradients:
    def test_square_gradient(self):
        t = Tape()
        x = t.param(3.0)
        t.backward(t.record(_square_stage, (x,)))
        assert float(x.grad) == pytest.approx(6.0, abs=1e-12)

    def test_fanout_accumulates(self):
        t = Tape()
        x = t.param(2.0)
        # x^2 + 3x -> 2x + 3 = 7
        square = t.record(_square_stage, (x,))
        y = t.record(_add_stage, (square, t.record(_scale_stage, (x,), 3.0)))
        t.backward(y)
        assert float(x.grad) == pytest.approx(7.0, abs=1e-12)

    def test_shared_adjoint_is_not_updated_in_place(self):
        # the add stage hands the same adjoint array to both operands;
        # accumulating a second contribution into one of them must not
        # change the other. The sum is recorded last, so its adjoints
        # reach a and b first.
        t = Tape()
        a = t.param(np.ones(2))
        b = t.param(np.ones(2))
        scaled = t.record(_scale_stage, (a,), 5.0)
        s = t.record(_add_stage, (a, b))
        loss = t.record(
            _add_stage, (t.record(_sum_stage, (s,)), t.record(_sum_stage, (scaled,)))
        )
        t.backward(loss)
        assert np.array_equal(a.grad, [6.0, 6.0])
        assert np.array_equal(b.grad, [1.0, 1.0])

    def test_unused_param_gets_zero_gradient(self):
        t = Tape()
        x = t.param(2.0)
        unused = t.param(np.ones(3))
        t.backward(t.record(_square_stage, (x,)))
        assert np.array_equal(unused.grad, np.zeros(3))


class TestGradchecks:
    """Tape entries against central finite differences (<= 1e-6): a chain
    of test-local stages, and each pipeline stage of the model."""

    def test_arithmetic_chain(self):
        def build(t, ps):
            a, b = ps
            prod = t.record(_matmul_stage, (a, b))
            squares = t.record(_sum_stage, (t.record(_square_stage, (prod,)),))
            shifted = t.record(lambda a: (a + 1.5, lambda g: (g,)), (prod,))
            half = t.record(_scale_stage, (t.record(_sum_stage, (shifted,)),), 0.5)
            return t.record(_add_stage, (squares, half))

        rng = np.random.default_rng(1)
        assert gradcheck(build, [rng.normal(size=(3, 4)), rng.normal(size=(4, 3))]) <= 1e-6

    def test_skew_matrix(self):
        # align stage on a small skew (no squaring steps), both parities
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 4))
        weights = rng.normal(size=(5, 4))
        for reflected in (False, True):

            def build(t, ps):
                return _weighted_sum(t, t.record(model.align_stage, ps, x, reflected), weights)

            assert gradcheck(build, [0.05 * rng.normal(size=6)]) <= 1e-6

    def test_block_polar(self):
        # one frequency per block: each character sees one block's angle
        rng = np.random.default_rng(8)
        z = rng.normal(size=(5, 6))
        z[np.abs(z) < 0.2] += 0.5  # keep radii away from the floor region
        freq = np.eye(3)
        weights = rng.normal(size=(5, 9))

        def build(t, ps):
            return _weighted_sum(t, t.record(model.features_stage, ps, freq), weights)

        assert gradcheck(build, [z]) <= 1e-6

    def test_torus_features(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(4, 6))
        z[np.abs(z) < 0.2] += 0.5
        freq = model.init_params(6, 2, seed=0).freq_matrix()
        weights = rng.normal(size=(4, 2 * freq.shape[0] + 3))

        def build(t, ps):
            return _weighted_sum(t, t.record(model.features_stage, ps, freq), weights)

        assert gradcheck(build, [z]) <= 1e-6

    def _dense_case(self, relu, seed):
        rng = np.random.default_rng(seed)
        h, w, b = rng.normal(size=(6, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        pre = h @ w + b
        assert np.min(np.abs(pre)) > 1e-3  # away from the ReLU kink
        weights = rng.normal(size=(6, 3))

        def build(t, ps):
            return _weighted_sum(t, t.record(model.dense_stage, ps, relu), weights)

        out, _ = model.dense_stage(h, w, b, relu)
        assert np.array_equal(out, np.maximum(pre, 0.0) if relu else pre)
        return gradcheck(build, [h, w, b])

    def test_matmul_both_orders(self):
        assert self._dense_case(relu=False, seed=5) <= 1e-6

    def test_relu_away_from_kink(self):
        assert self._dense_case(relu=True, seed=10) <= 1e-6

    def test_reductions_and_slices(self):
        # resonance penalty: row sums of w0 squared, cos/sin slices, rates
        params = model.init_params(4, 2, hidden=6, seed=17, first_layer_scale=1.0)
        rng = np.random.default_rng(6)
        freq = params.freq_matrix()

        def build(t, ps):
            return t.record(model.penalty_stage, ps, freq)

        assert gradcheck(build, [params.layers[0][0].copy(), rng.normal(size=2)]) <= 1e-6

    def test_logistic_loss(self):
        targets = np.array([[1.0], [0.0], [1.0], [0.0]])

        def build(t, ps):
            return t.record(model.loss_stage, ps, targets, "logistic")

        rng = np.random.default_rng(10)
        assert gradcheck(build, [rng.normal(size=(4, 1))]) <= 1e-6

    def test_squared_error(self):
        rng = np.random.default_rng(12)
        y = rng.normal(size=(6, 2))

        def build(t, ps):
            return t.record(model.loss_stage, ps, y, "squared-error")

        assert gradcheck(build, [rng.normal(size=(6, 2))]) <= 1e-6


class TestErrors:
    def test_backward_before_forward(self):
        t = Tape()
        p = t.param(1.0)
        with pytest.raises(RuntimeError):
            t.backward(p)

    def test_backward_requires_scalar(self):
        t = Tape()
        x = t.param(np.ones(3))
        y = t.record(_square_stage, (x,))
        with pytest.raises(ValueError):
            t.backward(y)


class TestLifetime:
    def test_used_tape_freed_without_cyclic_collector(self):
        gc.collect()
        gc.disable()
        try:
            t = Tape()
            x = t.param(np.ones((4, 3)))
            w = t.param(np.ones((3, 2)))
            loss = t.record(_sum_stage, (t.record(_matmul_stage, (x, w)),))
            t.backward(loss)
            ref = weakref.ref(t)
            del t
            assert ref() is None
            assert np.array_equal(w.grad, np.full((3, 2), 4.0))  # results outlive the tape
        finally:
            gc.enable()


class TestDeterminism:
    def test_identical_replays_bitwise_equal(self):
        rng = np.random.default_rng(12)
        x0 = rng.normal(size=(6, 4))
        w0 = rng.normal(size=(4, 3))

        def run():
            t = Tape()
            x = t.param(x0.copy())
            w = t.param(w0.copy())
            h = t.record(model.dense_stage, (x, w, t.param(np.zeros(3))), True)
            half = t.record(_scale_stage, (t.record(_sum_stage, (x,)),), 0.5)
            loss = t.record(_add_stage, (t.record(_sum_stage, (h,)), half))
            t.backward(loss)
            return float(loss.value), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)

    def test_repeated_backward_resets_adjoints(self):
        t = Tape()
        x = t.param(2.0)
        loss = t.record(_square_stage, (x,))
        t.backward(loss)
        first = float(x.grad)
        t.backward(loss)
        assert float(x.grad) == first
