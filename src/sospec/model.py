"""The predictor: learned alignment, torus Fourier features, MLP head.

Inputs are rotated into one learned frame (the alignment is the
exponential of free skew parameters, so it stays in SO(n) by
construction; from_reflected_frame maps a start of the other orientation
class into it), split into 2-d blocks, and converted to radii and unit
block coordinates, points on the torus. The network consumes the radii
and the cosine/sine pairs of the torus characters of primitive
frequencies, each character a product of powers of the unit block
coordinates. The frequencies are the rows of
lattice.primitive_set(bandwidth, n/2), a cached matrix that every stage
reads and none stores. Rotation rates enter only through the resonance
penalty, which suppresses first-layer mass on features whose frequency
is not orthogonal to the rates.

The pipeline is a fixed chain of closed-form stages: align, features, one
dense stage per layer, the loss and the penalty. Each is a plain function
returning (value, vjp). `build_objective` records the whole objective, the
loss plus mu times the penalty, as one tape entry that runs the stages
forward and their vjps in reverse; `predict` calls the same stage
functions and drops the vjp.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import fields, kernels, lie
from .autodiff import Var
from .lattice import primitive_set, reflect_last_block


@dataclass
class GeneratorParams:
    """Everything the trainer learns, plus the static architecture info.

    layers hold (weight, bias) pairs for three ReLU hidden layers and a
    linear output; the first-layer input is [cos | sin | radii] with one
    cos/sin pair per row of `freq`, the primitive frequencies of
    `bandwidth` on n/2 blocks in lexicographic order. `freq` is derived
    from (bandwidth, n) on each use, a cached lookup, and never stored.
    """

    n: int
    bandwidth: int
    skew: np.ndarray
    rates: np.ndarray
    layers: list
    loss_kind: str = "squared-error"

    def __post_init__(self):
        if self.n % 2 != 0:
            raise ValueError(f"ambient dimension must be even, got {self.n}")
        r = self.n // 2
        self.skew = np.asarray(self.skew, dtype=np.float64)
        self.rates = np.asarray(self.rates, dtype=np.float64)
        if self.skew.shape != (self.n * (self.n - 1) // 2,):
            raise ValueError("skew parameter count does not match n")
        if self.rates.shape != (r,):
            raise ValueError("rate count does not match n/2")
        self.layers = [
            (np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))
            for w, b in self.layers
        ]
        if not self.layers:
            raise ValueError("there must be at least one layer")
        width = self.feature_dim
        for w, b in self.layers:
            if w.ndim != 2 or w.shape[0] != width or b.shape != (w.shape[1],):
                raise ValueError(f"layer shapes do not chain: {w.shape} after {width}")
            width = w.shape[1]

    @property
    def r(self):
        return self.n // 2

    @property
    def freq(self):
        return primitive_set(self.bandwidth, self.r)

    @property
    def num_freqs(self):
        return self.freq.shape[0]

    @property
    def feature_dim(self):
        return 2 * self.num_freqs + self.r

    @property
    def out_dim(self):
        return self.layers[-1][0].shape[1]

    def copy(self):
        return GeneratorParams(
            n=self.n,
            bandwidth=self.bandwidth,
            skew=self.skew.copy(),
            rates=self.rates.copy(),
            layers=[(w.copy(), b.copy()) for w, b in self.layers],
            loss_kind=self.loss_kind,
        )

    def canonical_form(self):
        """The learned generator's canonical form (exp(A), rates)."""
        q = lie.matrix_exp(lie.skew_from_params(self.skew, self.n), 1.0)
        return lie.CanonicalForm(q, self.rates.copy())


def init_params(
    n,
    bandwidth,
    out_dim=1,
    hidden=64,
    seed=0,
    loss_kind="squared-error",
    first_layer_scale=0.05,
    reflected=False,
    rates_init=None,
):
    """Fresh parameters: small-skew alignment near identity, unit random
    rates (or an explicit `rates_init` direction), fan-in-scaled MLP
    weights. With `reflected`, the same draws are read in the reflected
    frame and returned as from_reflected_frame's proper-frame equivalent.

    The first layer starts `first_layer_scale` times smaller than its fan-in
    scale. Feature coefficients then begin near zero, so the resonance
    penalty is inert until the prediction loss has pulled weight onto the
    features it actually needs; the rates settle into the nullspace of those
    frequencies instead of whichever direction the random init happened to
    point at.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    skew = 0.1 * rng.standard_normal(n * (n - 1) // 2)
    if rates_init is None:
        rates = rng.standard_normal(n // 2)
    else:
        rates = np.asarray(rates_init, dtype=np.float64).copy()
    rates = rates / np.linalg.norm(rates)
    feature_dim = 2 * len(primitive_set(bandwidth, n // 2)) + n // 2
    widths = [feature_dim, hidden, hidden, hidden, out_dim]
    layers = []
    for i in range(len(widths) - 1):
        fan_in = widths[i]
        gain = 2.0 if i < len(widths) - 2 else 1.0
        w = rng.standard_normal((fan_in, widths[i + 1])) * np.sqrt(gain / fan_in)
        if i == 0:
            w *= first_layer_scale
        layers.append((w, np.zeros(widths[i + 1])))
    params = GeneratorParams(
        n=n,
        bandwidth=bandwidth,
        skew=skew,
        rates=rates,
        layers=layers,
        loss_kind=loss_kind,
    )
    return from_reflected_frame(params) if reflected else params


def from_reflected_frame(params):
    """Proper-frame params that compute what `params` computes in the
    reflected frame exp(A)*D, where D negates the last coordinate.

    D conjugates the last block, so the character of m there is the
    character of (m_1, ..., m_{r-1}, -m_r) in exp(A): the first layer's
    cos and sin rows move by lattice.reflect_last_block, whose sign, -1
    only where the reflection is a conjugate, multiplies the sin row. The
    last rate changes sign, which keeps every |<m, rates>| of the penalty.
    Predictions, objective and generator are unchanged, and the map is its
    own inverse.
    """
    rows, signs = reflect_last_block(params.bandwidth, params.r)
    f = rows.size
    out = params.copy()
    w0 = params.layers[0][0]
    out.layers[0][0][:f] = w0[rows]
    out.layers[0][0][f : 2 * f] = signs[:, None] * w0[f + rows]
    out.rates[-1] = -out.rates[-1]
    return out


# -- pipeline stages ------------------------------------------------------------
#
# Each stage takes its input arrays first, then static arguments, and returns
# (value, vjp); vjp maps the value's adjoint to one adjoint per input array.
# The order of every product and sum is part of the contract (for example
# csq * (dots * dots), not csq * dots * dots): reordering moves results by an
# ulp, which changes training trajectories and so the recovered generators.


def align_stage(skew, x):
    """Rows of x in the learned frame: x @ exp(A). Input: the skew
    parameters of A.

    The exponential is lie.exp_skew, so the value matches lie.matrix_exp
    bit for bit. The VJP is the Daleckii-Krein adjoint of exp at A: with
    iA = V diag(w) V^H and G = x^T g, dA = Re(V [F o (V^H G V)] V^H), where
    F_ij = e^{i(w_i+w_j)/2} sin(d_ij)/d_ij with d_ij = (w_i-w_j)/2 is the
    conjugated divided difference of e^{-iw}. np.sinc keeps that form exact
    at equal eigenvalues (A = 0, or equal rates), so no case is singled out.
    """
    n = x.shape[1]
    rows, cols = lie.skew_indices(n)
    q, w, v = lie.exp_skew(lie.skew_from_params(skew, n))
    z = x @ q

    def vjp(g):
        half = 0.5 * w
        f = np.exp(1j * (half[:, None] + half)) * np.sinc((w[:, None] - w) / (2.0 * np.pi))
        vh = v.conj().T
        d_mat = (v @ (f * (vh @ (x.T @ g) @ v)) @ vh).real
        return (d_mat[cols, rows] - d_mat[rows, cols],)

    return z, vjp


def features_stage(z, freq):
    """Network input from aligned rows: [cos | sin | radii], one cos/sin
    pair per frequency (row of `freq`): the real and imaginary parts of its
    character, a product of powers of the unit block coordinates."""
    radii, unit = kernels.block_polar_fwd(z)
    f = freq.shape[0]
    feats = np.empty((z.shape[0], 2 * f + radii.shape[1]))
    cos_f, sin_f = kernels.torus_fwd(unit, freq, feats)
    feats[:, 2 * f :] = radii

    def vjp(g):
        d_angles = kernels.torus_bwd(cos_f, sin_f, g[:, :f], g[:, f : 2 * f], freq)
        return (kernels.block_polar_bwd(z, radii, g[:, 2 * f :], d_angles),)

    return feats, vjp


def dense_stage(h, w, b, relu):
    """One layer, h @ w + b, through a ReLU unless it is the output layer."""
    out = h @ w
    out += b
    if relu:
        np.maximum(out, 0.0, out=out)

    def vjp(g):
        if relu:
            g = g * (out > 0.0)
        return g @ w.T, h.T @ g, g.sum(axis=0)

    return out, vjp


def loss_stage(pred, y, kind):
    """Mean squared error, or for kind "logistic" the mean binary
    cross-entropy of logits `pred` against 0/1 targets."""
    if kind == "squared-error":
        diff = pred - y
        scale = 1.0 / y.size
        value = np.sum(diff * diff) * scale
        return value, lambda g: (g * scale * 2.0 * diff,)
    if kind == "logistic":
        value = np.mean(np.maximum(pred, 0.0) - pred * y + np.log1p(np.exp(-np.abs(pred))))
        sig = 1.0 / (1.0 + np.exp(-pred))
        scale = 1.0 / pred.size
        return value, lambda g: (g * (sig - y) * scale,)
    raise ValueError(f"unknown loss kind {kind!r}")


def penalty_stage(w0, rates, freq):
    """Resonance penalty: sum over frequencies of the squared first-layer
    mass on its cos/sin pair times the squared inner product with the rates.
    Inputs: the first-layer weight and the rates."""
    f = freq.shape[0]
    sq = np.sum(w0 * w0, axis=1)
    csq = sq[:f] + sq[f : 2 * f]
    dots = freq @ rates
    dots_sq = dots * dots

    def vjp(g):
        d_sq = np.zeros_like(sq)
        d_sq[:f] = d_sq[f : 2 * f] = g * dots_sq
        return (d_sq * 2.0)[:, None] * w0, freq.T @ (g * csq * 2.0 * dots)

    return np.sum(csq * dots_sq), vjp


# -- objective and prediction ----------------------------------------------------


def leaf_arrays(params):
    """The learned arrays by leaf name, in the order that build_objective's
    leaves and pack's flat buffer share."""
    arrays = {"skew": params.skew, "rates": params.rates}
    for i, (w, b) in enumerate(params.layers):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    return arrays


def pack(params):
    """Move every learned array into one flat float64 buffer, in leaf order,
    and rebind the params' arrays as views of it; returns the buffer."""
    arrays = list(leaf_arrays(params).values())
    flat = np.concatenate([a.ravel() for a in arrays])
    views = _views(flat, arrays)
    params.skew, params.rates = views[0], views[1]
    params.layers = list(zip(views[2::2], views[3::2]))
    return flat


def _views(flat, arrays):
    """Views of `flat` shaped like `arrays`, laid end to end in order."""
    views, offset = [], 0
    for a in arrays:
        views.append(flat[offset : offset + a.size].reshape(a.shape))
        offset += a.size
    return views


def build_objective(tape, params, x, y, mu):
    """Prediction loss plus mu times the resonance penalty, as one tape entry.

    The entry's forward runs the stages in order. Its VJP calls their VJPs
    in reverse, sums the first-layer weight's two adjoints, and writes every
    leaf's gradient into one flat array in leaf_arrays order, which is also
    pack's order. Returns (objective, prediction loss, penalty, leaves),
    where leaves maps each leaf name to its parameter Var; after
    tape.backward(objective) the leaves' grads are views of that flat array.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mu = float(mu)
    freq = params.freq
    leaves = {name: tape.param(a) for name, a in leaf_arrays(params).items()}
    terms = []

    def objective_entry(*arrays):
        skew, rates, layers = arrays[0], arrays[1], arrays[2:]
        h, align_vjp = align_stage(skew, x)
        h, features_vjp = features_stage(h, freq)
        dense_vjps = []
        last = len(layers) // 2 - 1
        for i in range(last + 1):
            h, vjp = dense_stage(h, layers[2 * i], layers[2 * i + 1], i != last)
            dense_vjps.append(vjp)
        pred_loss, loss_vjp = loss_stage(h, y, params.loss_kind)
        penalty, penalty_vjp = penalty_stage(layers[0], rates, freq)
        terms.extend((pred_loss, penalty))

        def vjp(g):
            grads = _views(np.empty(sum(a.size for a in arrays)), arrays)
            d_w0, grads[1][...] = penalty_vjp(g * mu)
            (d_h,) = loss_vjp(g)
            for i in range(last, -1, -1):
                d_h, grads[2 + 2 * i][...], grads[3 + 2 * i][...] = dense_vjps[i](d_h)
            grads[2] += d_w0
            (d_h,) = features_vjp(d_h)
            (grads[0][...],) = align_vjp(d_h)
            return grads

        return pred_loss + penalty * mu, vjp

    objective = tape.record(objective_entry, tuple(leaves.values()))
    pred_loss, penalty = terms
    return objective, Var(pred_loss), Var(penalty), leaves


def predict(params, x):
    """Model output for a batch (row per sample) or a single input vector."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    # Each stage's vjp, and with it the stage's input, is dropped as soon
    # as the stage returns.
    h = align_stage(params.skew, x)[0]
    h = features_stage(h, params.freq)[0]
    last = len(params.layers) - 1
    for i, (w, b) in enumerate(params.layers):
        h = dense_stage(h, w, b, i != last)[0]
    return h[0] if single else h


def coefficient_norms(params):
    """Per-frequency Euclidean norm of all first-layer weights touching the
    cos and sin channels of that frequency, aligned with the rows of
    params.freq. Zero exactly when the feature is disconnected from the
    network."""
    w1 = params.layers[0][0]
    f = params.num_freqs
    sq = np.sum(w1 * w1, axis=1)
    return np.sqrt(sq[:f] + sq[f : 2 * f])


def resonance_penalty(params):
    """Plain value of the penalty term of build_objective."""
    return float(penalty_stage(params.layers[0][0], params.rates, params.freq)[0])


def save_checkpoint(params, path, config=None):
    doc = {
        "n": params.n,
        "bandwidth": params.bandwidth,
        "frequencies": params.freq.astype(int).tolist(),
        "skewParams": params.skew.tolist(),
        "lambda": params.rates.tolist(),
        "layers": [{"weight": w.tolist(), "bias": b.tolist()} for w, b in params.layers],
        "lossKind": params.loss_kind,
        "reflected": False,
        "config": config or {},
    }
    fields.write(path, [json.dumps(doc), "\n"])


def load_checkpoint(path):
    """(params, saved config) from a checkpoint file; a file written in the
    reflected frame loads as from_reflected_frame's proper-frame params. A
    field of the wrong kind (README "Checkpoints" lists the kinds),
    parameters whose shapes do not chain, or frequencies other than the
    rows of primitive_set(bandwidth, n/2) raise ValueError naming the
    file."""
    with open(path, "rb") as fh:
        doc = fields.load(fh.read(), path)
    where = f"{path}: checkpoint"
    values = dict(
        n=fields.read(doc, "n", int, where),
        bandwidth=fields.read(doc, "bandwidth", int, where),
        skew=fields.read(doc, "skewParams", fields.Array(1), where),
        rates=fields.read(doc, "lambda", fields.Array(1), where),
        layers=[
            tuple(fields.read(layer, key, fields.Array(ndim), f"{where} layers[{i}]")
                  for key, ndim in (("weight", 2), ("bias", 1)))
            for i, layer in enumerate(fields.read(doc, "layers", list, where))
        ],
        loss_kind=fields.read(doc, "lossKind", ("squared-error", "logistic"), where),
    )
    reflected = fields.read(doc, "reflected", bool, where)
    try:
        params = GeneratorParams(**values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if not np.array_equal(fields.read(doc, "frequencies", fields.Array(2), where), params.freq):
        raise ValueError(
            f"{path}: frequencies are not the primitive set of bandwidth {params.bandwidth} "
            f"on {params.r} blocks"
        )
    config = fields.read(doc, "config", dict, where)
    return (from_reflected_frame(params) if reflected else params), config
