"""Hot numeric kernels, in vectorized numpy.

These are the inner loops that dominate a training run: planar block polar
coordinates, torus character features, their backward passes, and the Adam
update. They stay in their own module so a profiler can time each one by
name.
"""

import math

import numpy as np

# Radius below which a block's angle is meaningless; the feature path floors
# radii here so gradients stay finite. Standard-normal inputs essentially
# never reach it.
RADIUS_FLOOR = 1e-9

_TWO_PI = 2.0 * math.pi


def block_polar_fwd(z):
    x = z[:, 0::2]
    y = z[:, 1::2]
    radii = np.maximum(np.hypot(x, y), RADIUS_FLOOR)
    angles = np.mod(np.arctan2(y, x), _TWO_PI)
    return radii, angles


def block_polar_bwd(z, radii, d_radii, d_angles):
    x = z[:, 0::2]
    y = z[:, 1::2]
    active = radii > RADIUS_FLOOR
    inv_r = np.where(active, 1.0 / radii, 0.0)
    inv_r2 = inv_r * inv_r
    dx = d_radii * x * inv_r + d_angles * (-y) * inv_r2
    dy = d_radii * y * inv_r + d_angles * x * inv_r2
    dz = np.empty_like(z)
    dz[:, 0::2] = dx
    dz[:, 1::2] = dy
    return dz


def torus_fwd(angles, freq, out):
    """Write the characters' cos and sin side by side into the first
    2 * len(freq) columns of `out`; returns those two column blocks."""
    f = freq.shape[0]
    phases = angles @ freq.T
    return np.cos(phases, out=out[:, :f]), np.sin(phases, out=out[:, f : 2 * f])


def torus_bwd(cos_f, sin_f, d_cos, d_sin, freq):
    return (d_sin * cos_f - d_cos * sin_f) @ freq


def adam_step(p, g, m, v, lr, beta1, beta2, eps, bc1, bc2):
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
