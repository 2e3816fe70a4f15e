"""The predictor: learned alignment, torus Fourier features, MLP head.

Inputs are rotated into a learned frame (the alignment is the exponential
of free skew parameters, so it stays in SO(n) by construction), split into
2-d blocks, and converted to radii and torus angles. The network consumes
cosine/sine pairs of primitive frequency combinations of the angles plus
the radii. Rotation rates enter only through the resonance penalty, which
suppresses first-layer mass on features whose frequency is not orthogonal
to the rates.

The pipeline is a fixed chain of closed-form stages: align, features, one
dense stage per layer, the loss, the penalty and their weighted sum. Each
is a plain function returning (value, vjp). `build_objective` records each
stage as one tape entry; `predict` calls the same functions and drops the
vjp.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels, lie
from .lattice import FrequencyVector, primitive_set


@dataclass
class GeneratorParams:
    """Everything the trainer learns, plus the static architecture info.

    layers hold (weight, bias) pairs for three ReLU hidden layers and a
    linear output; the first-layer input is [cos | sin | radii] with one
    cos/sin pair per primitive frequency.
    """

    n: int
    bandwidth: int
    freqs: list
    skew: np.ndarray
    rates: np.ndarray
    layers: list
    loss_kind: str = "squared-error"
    # Alignment parity: when True the frame is exp(A) times a reflection of
    # the last coordinate. Proper rotations cannot exchange a character ray
    # with its conjugate, so the two parities explore the two orientation
    # classes; the canonical det=+1 form is recovered by flipping the sign
    # of the last rotation rate.
    reflected: bool = False
    _freq_matrix: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

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
        width = self.feature_dim
        for w, b in self.layers:
            if w.ndim != 2 or w.shape[0] != width or b.shape != (w.shape[1],):
                raise ValueError(f"layer shapes do not chain: {w.shape} after {width}")
            width = w.shape[1]

    @property
    def r(self):
        return self.n // 2

    @property
    def num_freqs(self):
        return len(self.freqs)

    @property
    def feature_dim(self):
        return 2 * self.num_freqs + self.r

    @property
    def out_dim(self):
        return self.layers[-1][0].shape[1]

    def freq_matrix(self):
        """The frequencies as rows of a float64 matrix, built on first use;
        `freqs` must not change after that (copy() starts afresh)."""
        if self._freq_matrix is None:
            self._freq_matrix = np.ascontiguousarray(
                np.stack([f.as_array() for f in self.freqs]), dtype=np.float64
            )
        return self._freq_matrix

    def copy(self):
        return GeneratorParams(
            n=self.n,
            bandwidth=self.bandwidth,
            freqs=list(self.freqs),
            skew=self.skew.copy(),
            rates=self.rates.copy(),
            layers=[(w.copy(), b.copy()) for w, b in self.layers],
            loss_kind=self.loss_kind,
            reflected=self.reflected,
        )

    def canonical_form(self):
        """The learned generator's canonical form with det(Q) = +1.

        For a reflected frame exp(A)*D the same generator is produced by
        (exp(A), rates with the last sign flipped), since D conjugates the
        last plane.
        """
        q = lie.matrix_exp(lie.skew_from_params(self.skew, self.n), 1.0)
        rates = self.rates.copy()
        if self.reflected:
            rates[-1] = -rates[-1]
        return lie.CanonicalForm(q, rates)


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
    weights.

    The first layer starts `first_layer_scale` times smaller than its fan-in
    scale. Feature coefficients then begin near zero, so the resonance
    penalty is inert until the prediction loss has pulled weight onto the
    features it actually needs; the rates settle into the nullspace of those
    frequencies instead of whichever direction the random init happened to
    point at.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    freqs = primitive_set(bandwidth, n // 2)
    skew = 0.1 * rng.standard_normal(n * (n - 1) // 2)
    if rates_init is None:
        rates = rng.standard_normal(n // 2)
    else:
        rates = np.asarray(rates_init, dtype=np.float64).copy()
    rates = rates / np.linalg.norm(rates)
    widths = [2 * len(freqs) + n // 2, hidden, hidden, hidden, out_dim]
    layers = []
    for i in range(len(widths) - 1):
        fan_in = widths[i]
        gain = 2.0 if i < len(widths) - 2 else 1.0
        w = rng.standard_normal((fan_in, widths[i + 1])) * np.sqrt(gain / fan_in)
        if i == 0:
            w *= first_layer_scale
        layers.append((w, np.zeros(widths[i + 1])))
    return GeneratorParams(
        n=n,
        bandwidth=bandwidth,
        freqs=freqs,
        skew=skew,
        rates=rates,
        layers=layers,
        loss_kind=loss_kind,
        reflected=reflected,
    )


# -- pipeline stages ------------------------------------------------------------
#
# Each stage takes its input arrays first, then static arguments, and returns
# (value, vjp); vjp maps the value's adjoint to one adjoint per input array.
# The order of every product and sum is part of the contract (for example
# csq * (dots * dots), not csq * dots * dots): reordering moves results by an
# ulp, which changes training trajectories and so the recovered generators.


def align_stage(skew, x, reflected):
    """Rows of x in the learned frame: x @ exp(A), with the last coordinate
    negated for a reflected frame. Input: the skew parameters of A.

    The exponential is lie.exp_steps, so the value matches lie.matrix_exp
    bit for bit; the VJP replays its squaring and Taylor steps in reverse.
    """
    n = x.shape[1]
    rows, cols = lie.skew_indices(n)
    q, scale, scaled, terms, squares = lie.exp_steps(lie.skew_from_params(skew, n))
    z = x @ q
    if reflected:
        z[:, -1] = -z[:, -1]

    def vjp(g):
        if reflected:
            g = g.copy()
            g[:, -1] = -g[:, -1]
        d_result = x.T @ g
        for sq in reversed(squares):
            d_result = d_result @ sq.T + sq.T @ d_result
        # result = I + sum_k term_k with term_k = term_{k-1} @ scaled / k
        d_term = d_result
        d_scaled = 0.0
        for k in range(lie.EXP_TAYLOR_ORDER, 0, -1):
            d_prod = d_term * (1.0 / k)
            d_scaled = d_scaled + terms[k - 1].T @ d_prod
            if k > 1:
                d_term = d_prod @ scaled.T + d_result
        d_mat = d_scaled * scale
        return (d_mat[cols, rows] - d_mat[rows, cols],)

    return z, vjp


def features_stage(z, freq):
    """Network input from aligned rows: [cos | sin | radii], one cos/sin
    pair per frequency (row of `freq`) of the block-polar torus angles."""
    radii, angles = kernels.block_polar_fwd(z)
    cos_f, sin_f = kernels.torus_fwd(angles, freq)
    f = freq.shape[0]

    def vjp(g):
        d_angles = kernels.torus_bwd(cos_f, sin_f, g[:, :f], g[:, f : 2 * f], freq)
        return (kernels.block_polar_bwd(z, radii, g[:, 2 * f :], d_angles),)

    return np.concatenate([cos_f, sin_f, radii], axis=1), vjp


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


def objective_stage(pred_loss, penalty, mu):
    """The objective: prediction loss plus mu times the penalty."""
    return pred_loss + penalty * mu, lambda g: (g, g * mu)


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
    views, offset = [], 0
    for a in arrays:
        views.append(flat[offset : offset + a.size].reshape(a.shape))
        offset += a.size
    params.skew, params.rates = views[0], views[1]
    params.layers = list(zip(views[2::2], views[3::2]))
    return flat


def build_objective(tape, params, x, y, mu, loss_kind=None):
    """Prediction loss plus mu times the resonance penalty, one tape entry
    per stage.

    Returns (objective, prediction loss, penalty, leaves), where leaves maps
    each leaf name of leaf_arrays to its parameter Var."""
    loss_kind = loss_kind or params.loss_kind
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    freq = params.freq_matrix()
    leaves = {name: tape.param(a) for name, a in leaf_arrays(params).items()}
    h = tape.record(align_stage, (leaves["skew"],), x, params.reflected)
    h = tape.record(features_stage, (h,), freq)
    last = len(params.layers) - 1
    for i in range(len(params.layers)):
        h = tape.record(dense_stage, (h, leaves[f"w{i}"], leaves[f"b{i}"]), i != last)
    pred_loss = tape.record(loss_stage, (h,), y, loss_kind)
    penalty = tape.record(penalty_stage, (leaves["w0"], leaves["rates"]), freq)
    objective = tape.record(objective_stage, (pred_loss, penalty), float(mu))
    return objective, pred_loss, penalty, leaves


def predict(params, x):
    """Model output for a batch (row per sample) or a single input vector."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    h, _ = align_stage(params.skew, x, params.reflected)
    h, _ = features_stage(h, params.freq_matrix())
    last = len(params.layers) - 1
    for i, (w, b) in enumerate(params.layers):
        h, _ = dense_stage(h, w, b, i != last)
    return h[0] if single else h


def alignment_matrix(params):
    """The full alignment applied to inputs, including an orientation flip
    of the last coordinate for reflected-parity frames (det -1 there)."""
    q = lie.matrix_exp(lie.skew_from_params(params.skew, params.n), 1.0)
    if params.reflected:
        q = q.copy()
        q[:, -1] = -q[:, -1]
    return q


def coefficient_norms(params):
    """Per-frequency Euclidean norm of all first-layer weights touching the
    cos and sin channels of that frequency. Zero exactly when the feature is
    disconnected from the network."""
    w1 = params.layers[0][0]
    f = params.num_freqs
    sq = np.sum(w1 * w1, axis=1)
    csq = sq[:f] + sq[f : 2 * f]
    return {freq: float(np.sqrt(csq[i])) for i, freq in enumerate(params.freqs)}


def resonance_penalty(params):
    """Plain value of the penalty term of build_objective."""
    return float(penalty_stage(params.layers[0][0], params.rates, params.freq_matrix())[0])


def save_checkpoint(params, path, config=None):
    doc = {
        "n": params.n,
        "bandwidth": params.bandwidth,
        "frequencies": [f.to_json() for f in params.freqs],
        "skewParams": params.skew.tolist(),
        "lambda": params.rates.tolist(),
        "layers": [{"weight": w.tolist(), "bias": b.tolist()} for w, b in params.layers],
        "lossKind": params.loss_kind,
        "reflected": params.reflected,
        "config": config or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_checkpoint(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    freqs = [FrequencyVector(tuple(m)) for m in doc["frequencies"]]
    params = GeneratorParams(
        n=doc["n"],
        bandwidth=doc["bandwidth"],
        freqs=freqs,
        skew=np.asarray(doc["skewParams"]),
        rates=np.asarray(doc["lambda"]),
        layers=[(np.asarray(l["weight"]), np.asarray(l["bias"])) for l in doc["layers"]],
        loss_kind=doc.get("lossKind", "squared-error"),
        reflected=doc.get("reflected", False),
    )
    return params, doc.get("config", {})
