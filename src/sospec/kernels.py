"""Hot numeric kernels, in vectorized numpy.

These are the inner loops that dominate a training run: planar block polar
coordinates, torus character features, their backward passes, and the Adam
update. They stay in their own module so a profiler can time each one by
name.

A row's torus coordinates are its unit block coordinates u_k = (x_k + i
y_k) / r_k, not angles: the character of frequency m is e^{i m.theta} =
prod_k u_k^{m_k}, a product of powers that needs no arctan2, cos or sin.
Given the raw block coordinates z_k = x_k + i y_k in place of unit ones,
the same product is rho_m e^{i m.theta} with rho_m = prod_k r_k^{|m_k|},
the harmonics the data targets are built from. The backward passes still
speak of angles, through d(m.theta) = m.d(theta).
"""

import functools

import numpy as np

# Radius below which a block's angle is meaningless; the feature path floors
# radii here so gradients stay finite, and gives such a block unit 1, which
# is angle 0. Standard-normal inputs essentially never reach it.
RADIUS_FLOOR = 1e-9

# Rows torus_fwd works on at a time. Every step is elementwise, so the bits
# do not depend on it. At 49 characters of 3 planar blocks a row block's
# scratch is 0.9 MB; on two cores 256 and 512 rows timed the same.
TORUS_ROW_BLOCK = 256

# Adam's first moments below this, the smallest normal float64, are set to
# zero. Where a gradient entry stays zero its moment decays by beta1 a step
# into subnormals, on which arithmetic is many times slower: a pendulum
# restart's adam_step went from about 95 to about 240 us a step from epoch
# 33 on. Zeroing after the update leaves that step's parameters as they
# were; a later update loses less than lr * tiny / (bc1 * eps) an entry.
_MOMENT_FLOOR = np.finfo(np.float64).tiny


def block_polar_fwd(z):
    """Radii of the planar blocks of rows z, floored at RADIUS_FLOOR, and
    their unit coordinates (x + iy) / radius, as complex128; a block at the
    floor gets unit 1."""
    x = z[:, 0::2]
    y = z[:, 1::2]
    radii = np.maximum(np.hypot(x, y), RADIUS_FLOOR)
    unit = np.empty(radii.shape, dtype=np.complex128)
    np.divide(x, radii, out=unit.real)
    np.divide(y, radii, out=unit.imag)
    unit[radii == RADIUS_FLOOR] = 1.0
    return radii, unit


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


def _complex_multiply(a, b, out, t):
    """out = a * b for complex arrays held as [real, imaginary] pairs of
    float64 arrays; out may be a, and t is scratch of a's shape. The
    textbook formula in real steps, each correctly rounded. numpy's own
    complex multiply rounds differently on different paths (with numpy 2.4
    on x86-64, a one-element in-place product differed in the last bit
    from the same product inside a longer array), so its bits would depend
    on the number of rows."""
    np.multiply(a, b, out=t)  # [ar br, ai bi]
    np.multiply(a, b[::-1], out=out)  # [ar bi, ai br]
    np.add(out[0], out[1], out=out[1])
    np.subtract(t[0], t[1], out=out[0])


def torus_fwd(coords, freq, out):
    """Write the real and imaginary parts of prod_k z_k^{m_k} side by side
    into the first 2 * len(freq) columns of `out`; returns those two
    column blocks.

    `coords` holds each row's complex block coordinates z_k, `freq` one
    integer frequency m per row. Unit coordinates give the characters'
    cos and sin; raw ones give them times rho_m = prod_k r_k^{|m_k|}. Each
    block's powers z^p for |p| <= B, the largest entry of `freq`, come
    from repeated multiplication, and from conj for negative p; a product
    takes one power per block, in block order. Rows go TORUS_ROW_BLOCK at
    a time, with every array laid out ([real, imaginary], block, power or
    character, rows), so that one `take` gathers every factor of a row
    block.
    """
    f, r = freq.shape
    bw, slots, picks = _gather_plan(freq.tobytes(), freq.shape, freq.dtype.str)
    rows = min(coords.shape[0], TORUS_ROW_BLOCK)
    powers = np.empty((2, r, slots, rows))
    factors = np.empty((2, r * f, rows))
    scratch = np.empty((2, max(r, f), rows))
    cos_f, sin_f = out[:, :f], out[:, f : 2 * f]
    for lo in range(0, coords.shape[0], TORUS_ROW_BLOCK):
        z = coords[lo : lo + TORUS_ROW_BLOCK]
        n = z.shape[0]
        pw, fa, t = powers[..., :n], factors[..., :n], scratch[..., :n]
        pw[0, :, bw] = 1.0
        pw[1, :, bw] = 0.0
        if bw:
            pw[0, :, bw + 1] = z.real.T
            pw[1, :, bw + 1] = z.imag.T
        for p in range(bw + 2, slots):
            _complex_multiply(pw[:, :, p - 1], pw[:, :, bw + 1], pw[:, :, p], t[:, :r])
        pw[0, :, :bw] = pw[0, :, : bw : -1]
        np.negative(pw[1, :, : bw : -1], out=pw[1, :, :bw])
        # The picks are in range by construction; "clip" spares take the
        # buffered copy of `out` that its default mode makes.
        np.take(pw.reshape(2, r * slots, n), picks, axis=1, out=fa, mode="clip")
        fa = fa.reshape(2, r, f, n)
        ch = fa[:, 0]
        for k in range(1, r):
            _complex_multiply(ch, fa[:, k], ch, t[:, :f])
        cos_f[lo : lo + n] = ch[0].T
        sin_f[lo : lo + n] = ch[1].T
    return cos_f, sin_f


@functools.lru_cache(maxsize=64)
def _gather_plan(freq_bytes, shape, dtype):
    """(B, 2B + 1, picks) of torus_fwd for the frequency matrix with these
    bytes, shape and dtype: B is its largest entry's magnitude, and picks
    the index of each (block, character) factor among the flattened
    (block, power) slots. Training calls torus_fwd with one matrix every
    step; working the plan out took about 15 of a 128-row call's 110 us."""
    exps = np.frombuffer(freq_bytes, dtype).reshape(shape).T.astype(np.intp)
    bw = int(np.abs(exps).max(initial=0))
    slots = 2 * bw + 1
    picks = (exps + (bw + slots * np.arange(shape[1]))[:, None]).ravel()
    picks.flags.writeable = False
    return bw, slots, picks


def torus_bwd(cos_f, sin_f, d_cos, d_sin, freq):
    return (d_sin * cos_f - d_cos * sin_f) @ freq


def adam_step(p, g, m, v, lr, beta1, beta2, eps, bc1, bc2):
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    m[np.abs(m) < _MOMENT_FLOOR] = 0.0
