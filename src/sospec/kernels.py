"""Hot numeric kernels, in numba and pure-numpy variants.

These are the inner loops that dominate a training run: planar block polar
coordinates, torus character features, and the Adam update. Everything else
in the package is plain numpy. `set_backend` switches the live dispatch
(used by the backend-equivalence tests); the initial
choice comes from SOSPEC_BACKEND via `backend.DEFAULT_BACKEND`.
"""

import math

import numpy as np

from .backend import DEFAULT_BACKEND, HAVE_NUMBA, njit

# Radius below which a block's angle is meaningless; the feature path floors
# radii here so gradients stay finite. Standard-normal inputs essentially
# never reach it.
RADIUS_FLOOR = 1e-9

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# pure-numpy variants


def _block_polar_fwd_np(z):
    x = z[:, 0::2]
    y = z[:, 1::2]
    radii = np.maximum(np.hypot(x, y), RADIUS_FLOOR)
    angles = np.mod(np.arctan2(y, x), _TWO_PI)
    return radii, angles


def _block_polar_bwd_np(z, radii, d_radii, d_angles):
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


def _torus_fwd_np(angles, freq):
    phases = angles @ freq.T
    return np.cos(phases), np.sin(phases)


def _torus_bwd_np(cos_f, sin_f, d_cos, d_sin, freq):
    return (d_sin * cos_f - d_cos * sin_f) @ freq


def _adam_step_np(p, g, m, v, lr, beta1, beta2, eps, bc1, bc2):
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


# ---------------------------------------------------------------------------
# numba variants (compiled lazily on first call)


@njit(cache=True)
def _block_polar_fwd_nb(z):
    b, n = z.shape
    r = n // 2
    radii = np.empty((b, r))
    angles = np.empty((b, r))
    for i in range(b):
        for k in range(r):
            x = z[i, 2 * k]
            y = z[i, 2 * k + 1]
            rad = math.hypot(x, y)
            if rad < RADIUS_FLOOR:
                rad = RADIUS_FLOOR
            radii[i, k] = rad
            angles[i, k] = math.atan2(y, x) % _TWO_PI
    return radii, angles


@njit(cache=True)
def _block_polar_bwd_nb(z, radii, d_radii, d_angles):
    b, n = z.shape
    r = n // 2
    dz = np.empty_like(z)
    for i in range(b):
        for k in range(r):
            rad = radii[i, k]
            if rad > RADIUS_FLOOR:
                x = z[i, 2 * k]
                y = z[i, 2 * k + 1]
                inv_r = 1.0 / rad
                inv_r2 = inv_r * inv_r
                dz[i, 2 * k] = d_radii[i, k] * x * inv_r - d_angles[i, k] * y * inv_r2
                dz[i, 2 * k + 1] = d_radii[i, k] * y * inv_r + d_angles[i, k] * x * inv_r2
            else:
                dz[i, 2 * k] = 0.0
                dz[i, 2 * k + 1] = 0.0
    return dz


@njit(cache=True)
def _torus_fwd_nb(angles, freq):
    b, r = angles.shape
    f = freq.shape[0]
    cos_f = np.empty((b, f))
    sin_f = np.empty((b, f))
    for i in range(b):
        for j in range(f):
            phase = 0.0
            for k in range(r):
                phase += freq[j, k] * angles[i, k]
            cos_f[i, j] = math.cos(phase)
            sin_f[i, j] = math.sin(phase)
    return cos_f, sin_f


@njit(cache=True)
def _torus_bwd_nb(cos_f, sin_f, d_cos, d_sin, freq):
    b, f = cos_f.shape
    r = freq.shape[1]
    d_angles = np.zeros((b, r))
    for i in range(b):
        for j in range(f):
            d_phase = d_sin[i, j] * cos_f[i, j] - d_cos[i, j] * sin_f[i, j]
            for k in range(r):
                d_angles[i, k] += d_phase * freq[j, k]
    return d_angles


@njit(cache=True)
def _adam_step_nb(p, g, m, v, lr, beta1, beta2, eps, bc1, bc2):
    for i in range(p.shape[0]):
        m[i] = beta1 * m[i] + (1.0 - beta1) * g[i]
        v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i]
        p[i] -= lr * (m[i] / bc1) / (math.sqrt(v[i] / bc2) + eps)


# ---------------------------------------------------------------------------
# dispatch

_IMPLS = {
    "numpy": {
        "block_polar_fwd": _block_polar_fwd_np,
        "block_polar_bwd": _block_polar_bwd_np,
        "torus_fwd": _torus_fwd_np,
        "torus_bwd": _torus_bwd_np,
        "adam_step": _adam_step_np,
    },
    "numba": {
        "block_polar_fwd": _block_polar_fwd_nb,
        "block_polar_bwd": _block_polar_bwd_nb,
        "torus_fwd": _torus_fwd_nb,
        "torus_bwd": _torus_bwd_nb,
        "adam_step": _adam_step_nb,
    },
}

_active_name = DEFAULT_BACKEND
_active = dict(_IMPLS[_active_name])


def set_backend(name):
    """Switch the live kernel implementations ('numba' or 'numpy')."""
    global _active_name, _active
    if name not in _IMPLS:
        raise ValueError(f"unknown backend {name!r}")
    if name == "numba" and not HAVE_NUMBA:
        raise ValueError("numba backend requested but numba is not importable")
    _active_name = name
    _active = dict(_IMPLS[name])


def active_backend():
    return _active_name


def block_polar_fwd(z):
    return _active["block_polar_fwd"](z)


def block_polar_bwd(z, radii, d_radii, d_angles):
    return _active["block_polar_bwd"](z, radii, d_radii, d_angles)


def torus_fwd(angles, freq):
    return _active["torus_fwd"](angles, freq)


def torus_bwd(cos_f, sin_f, d_cos, d_sin, freq):
    return _active["torus_bwd"](cos_f, sin_f, d_cos, d_sin, freq)


def adam_step(p, g, m, v, lr, beta1, beta2, eps, bc1, bc2):
    _active["adam_step"](p, g, m, v, lr, beta1, beta2, eps, bc1, bc2)
