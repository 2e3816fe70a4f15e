import itertools

import numpy as np
import pytest

from sospec import kernels


def _random_case(seed, b=64, n=6, f=13):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(b, n))
    freq = rng.integers(-2, 3, size=(f, n // 2)).astype(np.float64)
    return z, freq, rng


def _characters(z, freq):
    """torus_fwd's cos and sin columns for rows z, as one array."""
    _, unit = kernels.block_polar_fwd(z)
    out = np.empty((len(z), 2 * len(freq)))
    kernels.torus_fwd(unit, freq, out)
    return out


class TestKernelSemantics:
    def test_unit_coordinates_and_floor(self):
        z = np.array([[0.0, 0.0, 1.0, -1.0]])
        radii, unit = kernels.block_polar_fwd(z)
        assert radii[0, 0] == kernels.RADIUS_FLOOR
        assert unit[0, 0] == 1.0
        assert unit[0, 1] == pytest.approx((1.0 - 1.0j) / np.sqrt(2.0), abs=1e-15)
        # zero-radius block receives no gradient
        dz = kernels.block_polar_bwd(z, radii, np.ones_like(radii), np.ones_like(radii))
        assert dz[0, 0] == 0.0 and dz[0, 1] == 0.0

    def test_torus_features_unit_circle(self):
        z, freq, _ = _random_case(3)
        _, unit = kernels.block_polar_fwd(z)
        cos_f, sin_f = kernels.torus_fwd(unit, freq, np.empty((len(z), 2 * len(freq))))
        assert np.allclose(cos_f**2 + sin_f**2, 1.0, atol=1e-12)

    @pytest.mark.parametrize("bandwidth", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_characters_are_cos_and_sin_of_the_phases(self, bandwidth, r):
        # Every m in the box, so zero and negative entries, the zero vector
        # and non-primitive m included.
        span = range(-bandwidth, bandwidth + 1)
        freq = np.array(list(itertools.product(span, repeat=r)), dtype=np.float64)
        z = np.random.default_rng(10 * bandwidth + r).normal(size=(40, 2 * r))
        phases = np.arctan2(z[:, 1::2], z[:, 0::2]) @ freq.T
        expected = np.concatenate([np.cos(phases), np.sin(phases)], axis=1)
        assert np.max(np.abs(_characters(z, freq) - expected)) <= 1e-13
        # Raw block coordinates give rho_m cos and rho_m sin, where
        # rho_m = prod_k r_k^{|m_k|}.
        rho = np.prod(np.hypot(z[:, 0::2], z[:, 1::2])[:, None, :] ** np.abs(freq), axis=2)
        raw = np.empty((len(z), 2 * len(freq)))
        kernels.torus_fwd(z.view(np.complex128), freq, raw)
        scale = np.concatenate([rho, rho], axis=1)
        assert np.max(np.abs(raw - scale * expected) / np.maximum(1.0, scale)) <= 1e-13

    @pytest.mark.parametrize(
        "rows", [1, kernels.TORUS_ROW_BLOCK - 1, kernels.TORUS_ROW_BLOCK, kernels.TORUS_ROW_BLOCK + 1]
    )
    def test_row_blocks_do_not_change_bits(self, rows):
        z, freq, _ = _random_case(5, b=rows)
        batch = _characters(z, freq)
        alone = np.concatenate([_characters(z[i : i + 1], freq) for i in range(rows)])
        assert batch.tobytes() == alone.tobytes()

    def test_zero_block_has_factor_one_and_no_gradient(self):
        z, freq, _ = _random_case(6, b=8)
        z[:, 2:4] = 0.0  # block 1
        chars = _characters(z, freq)
        assert np.all(np.isfinite(chars))
        without = freq.copy()
        without[:, 1] = 0.0
        assert chars.tobytes() == _characters(z, without).tobytes()
        radii, unit = kernels.block_polar_fwd(z)
        f = len(freq)
        cos_f, sin_f = kernels.torus_fwd(unit, freq, np.empty((len(z), 2 * f)))
        g = np.random.default_rng(7).normal(size=(len(z), 2 * f + 3))
        d_angles = kernels.torus_bwd(cos_f, sin_f, g[:, :f], g[:, f : 2 * f], freq)
        dz = kernels.block_polar_bwd(z, radii, g[:, 2 * f :], d_angles)
        assert np.all(np.isfinite(dz))
        assert np.all(dz[:, 2:4] == 0.0)

    def test_adam_against_reference_loop(self):
        rng = np.random.default_rng(4)
        p = rng.normal(size=31)
        g = rng.normal(size=31)
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        expect = p.copy()
        em, ev = np.zeros_like(p), np.zeros_like(p)
        lr, b1, b2, eps = 2e-3, 0.9, 0.999, 1e-8
        for t in range(1, 4):
            bc1, bc2 = 1 - b1**t, 1 - b2**t
            kernels.adam_step(p, g, m, v, lr, b1, b2, eps, bc1, bc2)
            for i in range(expect.size):
                em[i] = b1 * em[i] + (1 - b1) * g[i]
                ev[i] = b2 * ev[i] + (1 - b2) * g[i] * g[i]
                expect[i] -= lr * (em[i] / bc1) / (np.sqrt(ev[i] / bc2) + eps)
        assert np.allclose(p, expect, atol=1e-15)

    def test_adam_zeroes_subnormal_moments_after_the_update(self):
        rng = np.random.default_rng(8)
        p, g, v = rng.normal(size=6), rng.normal(size=6), rng.random(6) * 1e-6
        g[:3] = 0.0
        m = np.array([1e-308, -2e-308, 3e-300, 0.5, -0.5, 1e-308])
        lr, b1, b2, eps = 2e-3, 0.9, 0.999, 1e-8
        bc1, bc2 = 1 - b1**50, 1 - b2**50
        # the update without the flush, in adam_step's order of operations
        em, ev = b1 * m + (1 - b1) * g, b2 * v + (1 - b2) * g * g
        ep = p - lr * (em / bc1) / (np.sqrt(ev / bc2) + eps)
        assert np.all((0 < np.abs(em[:2])) & (np.abs(em[:2]) < np.finfo(np.float64).tiny))
        kernels.adam_step(p, g, m, v, lr, b1, b2, eps, bc1, bc2)
        assert p.tobytes() == ep.tobytes() and v.tobytes() == ev.tobytes()
        assert np.all(m[:2] == 0.0) and m[2:].tobytes() == em[2:].tobytes()

    def test_int_and_float_frequencies_give_the_same_columns(self):
        z, freq, _ = _random_case(9)
        ints = freq.astype(np.intp)
        first = _characters(z, freq)
        for again in (ints, freq, ints):
            assert _characters(z, again).tobytes() == first.tobytes()
