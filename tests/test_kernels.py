import numpy as np

from sospec import kernels


def _random_case(seed, b=64, n=6, f=13):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(b, n))
    freq = rng.integers(-2, 3, size=(f, n // 2)).astype(np.float64)
    return z, freq, rng


class TestKernelSemantics:
    def test_angles_in_range_and_floor(self):
        z = np.array([[0.0, 0.0, 1.0, -1.0]])
        radii, angles = kernels.block_polar_fwd(z)
        assert radii[0, 0] == kernels.RADIUS_FLOOR
        assert angles[0, 0] == 0.0
        assert np.all(angles >= 0.0) and np.all(angles < 2 * np.pi)
        # zero-radius block receives no gradient
        dz = kernels.block_polar_bwd(z, radii, np.ones_like(radii), np.ones_like(angles))
        assert dz[0, 0] == 0.0 and dz[0, 1] == 0.0

    def test_torus_features_unit_circle(self):
        z, freq, _ = _random_case(3)
        _, angles = kernels.block_polar_fwd(z)
        cos_f, sin_f = kernels.torus_fwd(angles, freq, np.empty((len(z), 2 * len(freq))))
        assert np.allclose(cos_f**2 + sin_f**2, 1.0, atol=1e-12)

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
