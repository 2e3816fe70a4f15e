"""Independent reference implementations used to pin expected test values.

Everything here deliberately avoids the code paths under test: set-based
lattice enumeration, exact rational elimination for nullspaces, and plain
central finite differences for gradients.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np

from sospec.autodiff import Tape


def enumerate_primitives_bruteforce(bandwidth, r):
    """Canonicalize every nonzero lattice point in the box, then dedupe."""
    import itertools

    seen = set()
    for m in itertools.product(range(-bandwidth, bandwidth + 1), repeat=r):
        if all(e == 0 for e in m):
            continue
        g = 0
        for e in m:
            g = math.gcd(g, abs(e))
        vec = tuple(e // g for e in m)
        first = next(e for e in vec if e != 0)
        if first < 0:
            vec = tuple(-e for e in vec)
        seen.add(vec)
    return sorted(seen)


def rational_nullspace(rows):
    """Exact nullspace basis of an integer matrix via Fraction elimination.

    Returns a list of Fraction vectors spanning the kernel.
    """
    rows = [[Fraction(int(e)) for e in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    mat = [row[:] for row in rows]
    pivots = []
    pr = 0
    for c in range(ncols):
        pivot = None
        for i in range(pr, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[pr], mat[pivot] = mat[pivot], mat[pr]
        inv = Fraction(1, 1) / mat[pr][c]
        mat[pr] = [x * inv for x in mat[pr]]
        for i in range(len(mat)):
            if i != pr and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[pr])]
        pivots.append(c)
        pr += 1
        if pr == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        basis.append(vec)
    return basis


def rational_rank(rows):
    ncols = len(rows[0]) if rows else 0
    return ncols - len(rational_nullspace(rows))


def fd_gradient(func, params, step_scale=1e-6):
    """Central finite-difference gradient of func(params) -> float.

    `params` is a list of arrays; the step per coordinate is
    step_scale * max(1, |p|) as stated in the module contract.
    """
    grads = [np.zeros_like(p) for p in params]
    for pi, p in enumerate(params):
        flat = p.reshape(-1)
        gflat = grads[pi].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            h = step_scale * max(1.0, abs(orig))
            flat[i] = orig + h
            fp = func(params)
            flat[i] = orig - h
            fm = func(params)
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
    return grads


def max_rel_error(a_list, b_list, floor=1e-3):
    """Worst elementwise relative error with an absolute floor."""
    worst = 0.0
    for a, b in zip(a_list, b_list):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


def traced_peak(func, *args):
    """(func(*args), the most bytes tracemalloc saw allocated at once during
    the call), with tracing on only for the call."""
    tracemalloc.start()
    try:
        result = func(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def generic_objective_case(n, bandwidth, rng, hidden=6, samples=4):
    """A full-objective configuration safe for finite differences.

    Biases are shifted off zero so no ReLU sits exactly at its kink (dead
    units under zero-bias init produce preactivations of exactly 0.0, where
    one-sided reverse-mode and central differences legitimately disagree),
    and inputs are resampled until every aligned block radius clears the
    feature floor by a wide margin.
    """
    import sospec.model as model

    params = model.init_params(n, bandwidth, hidden=hidden, seed=rng, first_layer_scale=1.0)
    for _, b in params.layers:
        b += rng.uniform(0.05, 0.15, size=b.shape) * rng.choice([-1.0, 1.0], size=b.shape)
    q = params.canonical_form().q
    while True:
        x = rng.normal(size=(samples, n))
        z = x @ q
        radii = np.hypot(z[:, 0::2], z[:, 1::2])
        if radii.min() > 0.05:
            break
    y = rng.normal(size=(samples, 1))
    mu = float(rng.uniform(0.05, 0.2))
    return params, x, y, mu


def gradcheck(build, init_params, floor=1e-3, step_scale=1e-6):
    """Compare reverse-mode gradients of `build` against finite differences.

    `build(tape, vars) -> scalar Var` where vars are tape params created
    from init_params. Returns the worst relative error.
    """

    def value(params):
        tape = Tape()
        pvars = [tape.param(p) for p in params]
        return float(build(tape, pvars).value)

    tape = Tape()
    pvars = [tape.param(p) for p in init_params]
    loss = build(tape, pvars)
    tape.backward(loss)
    ad = [v.grad.copy() for v in pvars]
    fd = fd_gradient(value, [p.copy() for p in init_params], step_scale)
    return max_rel_error(ad, fd, floor)


def reflected_align_stage(skew, x):
    """The align stage of the reflected frame exp(A)*D, D the negation of
    the last coordinate: align_stage with the last aligned column negated,
    in the value and in the adjoint."""
    import sospec.model as model

    z, vjp = model.align_stage(skew, x)
    z[:, -1] = -z[:, -1]

    def reflected_vjp(g):
        g = g.copy()
        g[:, -1] = -g[:, -1]
        return vjp(g)

    return z, reflected_vjp


def reflected_predict(params, x):
    """model.predict with the params read in the reflected frame."""
    import sospec.model as model

    h = reflected_align_stage(params.skew, np.asarray(x, dtype=np.float64))[0]
    h = model.features_stage(h, params.freq)[0]
    last = len(params.layers) - 1
    for i, (w, b) in enumerate(params.layers):
        h = model.dense_stage(h, w, b, i != last)[0]
    return h


def staged_objective(tape, params, x, y, mu, reflected=False):
    """The objective as one tape entry per model stage: align, features,
    each dense layer, loss, penalty and their weighted sum (nine entries for
    four layers). It is the reference that model.build_objective's single
    fused entry must match byte for byte; with `reflected`, the params are
    read in the reflected frame. Returns the same
    (objective, prediction loss, penalty, leaves) tuple."""
    import sospec.model as model

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    freq = params.freq
    leaves = {name: tape.param(a) for name, a in model.leaf_arrays(params).items()}
    align = reflected_align_stage if reflected else model.align_stage
    h = tape.record(align, (leaves["skew"],), x)
    h = tape.record(model.features_stage, (h,), freq)
    last = len(params.layers) - 1
    for i in range(len(params.layers)):
        h = tape.record(model.dense_stage, (h, leaves[f"w{i}"], leaves[f"b{i}"]), i != last)
    pred_loss = tape.record(model.loss_stage, (h,), y, params.loss_kind)
    penalty = tape.record(model.penalty_stage, (leaves["w0"], leaves["rates"]), freq)

    def weighted_sum(loss_value, penalty_value, weight):
        return loss_value + penalty_value * weight, lambda g: (g, g * weight)

    objective = tape.record(weighted_sum, (pred_loss, penalty), float(mu))
    return objective, pred_loss, penalty, leaves
