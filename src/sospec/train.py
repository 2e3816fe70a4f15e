"""Training loop: Adam on the joint objective with a resonance warm-up.

The penalty weight mu is held at mu_init for warmup_epochs, then ramped
(linearly by default) to mu_init * mu_max_scale at the last epoch. Rates
are renormalized to the unit sphere after every optimizer step, which rules
out the trivial zero-rate penalty minimizer; their scale is not
identifiable anyway. The checkpoint with the best validation prediction
loss wins (earliest epoch on ties).
"""

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kernels, metrics, model
from .autodiff import Tape
from .lattice import estimate_lambda, surviving_frequencies
from .lie import CanonicalForm, assemble_generator, generator_cosine_similarity

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

TRAIN_FRAC = 0.8
VAL_FRAC = 0.1

# Salts for the independent random streams of a run.
_SALT_INIT, _SALT_SPLIT, _SALT_BATCH, _SALT_EVAL = 0, 1, 2, 3


@dataclass
class TrainConfig:
    epochs: int = 40
    lr: float = 2e-3
    batch_size: int = 128
    mu_init: float = 0.1
    mu_max_scale: float = 2.0
    warmup_epochs: int = 10
    bandwidth: int = 2
    seed: int = 0
    loss: str = "auto"  # auto | squared-error | logistic
    hidden: int = 64
    rel_threshold: float = 0.1
    mu_ramp: str = "linear"  # linear | constant
    restarts: int = 2
    inv_x_samples: int = 256
    inv_t_samples: int = 16
    t_max: float = math.pi

    def __post_init__(self):
        for name in (
            "epochs",
            "lr",
            "batch_size",
            "mu_max_scale",
            "warmup_epochs",
            "bandwidth",
            "hidden",
            "inv_x_samples",
            "inv_t_samples",
            "t_max",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.mu_init < 0:  # zero switches the penalty off (plain regression)
            raise ValueError("mu_init must be nonnegative")
        if self.warmup_epochs > self.epochs:
            raise ValueError("warmup_epochs must not exceed epochs")
        if self.loss not in ("auto", "squared-error", "logistic"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.mu_ramp not in ("linear", "constant"):
            raise ValueError(f"unknown mu ramp {self.mu_ramp!r}")
        if not 0.0 < self.rel_threshold < 1.0:
            raise ValueError("rel_threshold must lie in (0, 1)")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")

    def echo(self):
        return asdict(self)


@dataclass
class RunReport:
    task: str
    seed: int
    config: dict
    test_mse: float | None = None
    accuracy: float | None = None
    invariance_error: float | None = None
    cosine_similarity: float | None = None
    cosine_similarity_spectral: float | None = None
    estimator_agreement: float | None = None
    recovered_rates: list | None = None
    spectral_rates: list | None = None
    nullity: int | None = None
    rates_reliable: bool | None = None
    surviving: list = field(default_factory=list)
    loss_curve: list = field(default_factory=list)
    val_curve: list = field(default_factory=list)
    penalty_curve: list = field(default_factory=list)
    mu_curve: list = field(default_factory=list)
    best_epoch: int | None = None
    chosen_restart: int | None = None
    restart_val_losses: list | None = None
    wall_clock: float | None = None
    failure_reason: str | None = None

    def to_json_dict(self):
        return {
            "task": self.task,
            "seed": self.seed,
            "config": self.config,
            "testMse": self.test_mse,
            "accuracy": self.accuracy,
            "invarianceError": self.invariance_error,
            "cosineSimilarity": self.cosine_similarity,
            "cosineSimilaritySpectral": self.cosine_similarity_spectral,
            "estimatorAgreement": self.estimator_agreement,
            "recoveredLambda": self.recovered_rates,
            "spectralLambda": self.spectral_rates,
            "nullity": self.nullity,
            "lambdaReliable": self.rates_reliable,
            "survivingFrequencies": self.surviving,
            "lossCurve": self.loss_curve,
            "valLossCurve": self.val_curve,
            "penaltyCurve": self.penalty_curve,
            "muCurve": self.mu_curve,
            "bestEpoch": self.best_epoch,
            "chosenRestart": self.chosen_restart,
            "restartValLosses": self.restart_val_losses,
            "wallClock": self.wall_clock,
            "failureReason": self.failure_reason,
        }


def mu_schedule(epoch, cfg):
    """Penalty weight for an epoch: flat warm-up, then a ramp to
    mu_init * mu_max_scale at the final epoch."""
    if not 0 <= epoch < cfg.epochs:
        raise ValueError(f"epoch {epoch} outside 0..{cfg.epochs - 1}")
    if epoch < cfg.warmup_epochs or cfg.mu_ramp == "constant":
        return cfg.mu_init
    last = cfg.epochs - 1
    if last <= cfg.warmup_epochs:
        frac = 1.0
    else:
        frac = (epoch - cfg.warmup_epochs) / (last - cfg.warmup_epochs)
    return cfg.mu_init * (1.0 + frac * (cfg.mu_max_scale - 1.0))


class Adam:
    """Adam with bias correction over one flat parameter vector, updated in
    place by a single fused kernel call per step."""

    def __init__(self, flat, lr):
        self.flat = flat
        self.lr = lr
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self.t = 0

    def step(self, grad):
        self.t += 1
        kernels.adam_step(
            self.flat,
            grad,
            self.m,
            self.v,
            self.lr,
            ADAM_BETA1,
            ADAM_BETA2,
            ADAM_EPS,
            1.0 - ADAM_BETA1**self.t,
            1.0 - ADAM_BETA2**self.t,
        )


def split_indices(n, seed):
    """Deterministic 80/10/10 train/val/test index split."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _SALT_SPLIT]))
    perm = rng.permutation(n)
    n_train = int(TRAIN_FRAC * n)
    n_val = int(VAL_FRAC * n)
    return perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]


def resolve_loss(cfg, meta):
    if cfg.loss != "auto":
        return cfg.loss
    return "logistic" if meta.output_kind == "binary" else "squared-error"


@dataclass
class DiscoveryResult:
    direct: object
    spectral: object
    rates_learned: np.ndarray
    rates_spectral: np.ndarray
    nullity: int
    reliable: bool
    surviving: list
    agreement: float


def discover(params, rel_threshold=0.1):
    """Reconstruct the generator from trained parameters, two ways.

    Direct: assemble from the learned alignment and rates (canonicalized to
    a det=+1 frame when the alignment carries the reflected parity).
    Spectral: re-estimate the rates from the surviving first-layer
    frequencies and assemble in the same frame. The spectral estimate is
    reliable only when the surviving frequencies pin a one-dimensional
    nullspace.
    """
    cf = params.canonical_form()
    direct = assemble_generator(cf)
    coeffs = model.coefficient_norms(params)
    surviving = surviving_frequencies(coeffs, rel_threshold)
    rates_hat, nullity = estimate_lambda(surviving, params.r)
    if params.reflected:
        rates_hat = rates_hat.copy()
        rates_hat[-1] = -rates_hat[-1]
    spectral = assemble_generator(CanonicalForm(cf.q, rates_hat))
    agreement = generator_cosine_similarity(direct, spectral)
    return DiscoveryResult(
        direct=direct,
        spectral=spectral,
        rates_learned=cf.rates.copy(),
        rates_spectral=rates_hat,
        nullity=nullity,
        reliable=nullity == 1,
        surviving=surviving,
        agreement=agreement,
    )


def _forward_loss(params, x, y, loss_kind):
    return float(model.loss_stage(model.predict(params, x), y, loss_kind)[0])


def evaluate_params(params, ds, cfg, report, loss_kind=None):
    """Fill `report` with held-out metrics and generator recovery for
    trained parameters.

    Shared by the trainer and standalone checkpoint evaluation so the two
    produce identical numbers for identical inputs.
    """
    loss_kind = loss_kind or resolve_loss(cfg, ds.meta)
    _, _, test_idx = split_indices(len(ds), cfg.seed)
    x_test, y_test = ds.x[test_idx], ds.y[test_idx]
    if loss_kind == "squared-error":
        report.test_mse = metrics.test_mse(params, x_test, y_test)
    else:
        report.accuracy = metrics.accuracy(params, x_test, y_test)

    disc = discover(params, cfg.rel_threshold)
    report.estimator_agreement = disc.agreement
    report.recovered_rates = disc.rates_learned.tolist()
    report.spectral_rates = disc.rates_spectral.tolist()
    report.nullity = disc.nullity
    report.rates_reliable = disc.reliable
    report.surviving = [f.to_json() for f in disc.surviving]

    true_gen = ds.meta.true_generator
    if true_gen is not None:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _SALT_EVAL]))
        take = min(cfg.inv_x_samples, x_test.shape[0])
        xs = x_test[rng.choice(x_test.shape[0], size=take, replace=False)]
        ts = rng.uniform(-cfg.t_max, cfg.t_max, size=cfg.inv_t_samples)
        report.invariance_error = metrics.invariance_error(params, xs, true_gen, ts)
        report.cosine_similarity = generator_cosine_similarity(disc.direct, true_gen)
        report.cosine_similarity_spectral = generator_cosine_similarity(disc.spectral, true_gen)


class _RestartFailure(Exception):
    pass


def _rate_candidate(r, restart):
    """Rate direction a restart commits to during warm-up.

    For two planes the primitive rays at bandwidth 1 can be enumerated, so
    restart pairs cycle through their null directions exactly; larger r
    falls back to the seeded uniform draw (None).
    """
    if r == 2:
        base = [(1.0, -1.0), (1.0, 1.0)][(restart // 2) % 2]
        return np.asarray(base) / np.sqrt(2.0)
    return None


def _flat_gradient(leaves, freeze_rates):
    """The leaves' gradients as one vector in model.pack order, with the
    rates' slice zeroed while the rates are frozen."""
    grad = np.concatenate([v.grad.ravel() for v in leaves.values()])
    if freeze_rates:
        start = leaves["skew"].value.size
        grad[start : start + leaves["rates"].value.size] = 0.0
    return grad


def _train_single(dataset, cfg, loss_kind, restart):
    """One full optimization from a fresh init.

    Even restart indices use the plain exp(A) alignment, odd ones its
    reflected-parity twin (proper rotations cannot exchange a frequency ray
    with its conjugate, so the two parities explore both orientation
    classes). The rate vector is held at its starting direction during
    warm-up so feature selection and alignment commit to that resonance
    hypothesis first; it is released once the penalty ramp begins, and
    validation selection arbitrates between restarts. Raises
    _RestartFailure on a non-finite objective.
    """
    rng_init = np.random.default_rng(np.random.SeedSequence([cfg.seed, _SALT_INIT, restart]))
    rng_batch = np.random.default_rng(np.random.SeedSequence([cfg.seed, _SALT_BATCH, restart]))
    params = model.init_params(
        n=dataset.meta.n,
        bandwidth=cfg.bandwidth,
        out_dim=dataset.meta.out_dim,
        hidden=cfg.hidden,
        seed=rng_init,
        loss_kind=loss_kind,
        reflected=bool(restart % 2),
        rates_init=_rate_candidate(dataset.meta.n // 2, restart),
    )
    train_idx, val_idx, _ = split_indices(len(dataset), cfg.seed)
    x_val, y_val = dataset.x[val_idx], dataset.y[val_idx]

    adam = Adam(model.pack(params), cfg.lr)

    curves = {"loss": [], "penalty": [], "val": [], "mu": []}
    best_val = math.inf
    best_params = params.copy()
    best_epoch = -1

    for epoch in range(cfg.epochs):
        mu = mu_schedule(epoch, cfg)
        order = rng_batch.permutation(train_idx)
        epoch_losses = []
        epoch_penalties = []
        for lo in range(0, order.size, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            tape = Tape()
            objective, pred_loss, penalty, leaves = model.build_objective(
                tape, params, dataset.x[idx], dataset.y[idx], mu, loss_kind
            )
            if not np.isfinite(objective.value):
                raise _RestartFailure(
                    f"non-finite objective at restart {restart} epoch {epoch} "
                    f"(loss={float(pred_loss.value)!r})"
                )
            tape.backward(objective)
            adam.step(_flat_gradient(leaves, freeze_rates=epoch < cfg.warmup_epochs))
            params.rates /= np.linalg.norm(params.rates)
            epoch_losses.append(float(pred_loss.value))
            epoch_penalties.append(float(penalty.value))

        val_loss = _forward_loss(params, x_val, y_val, loss_kind)
        curves["loss"].append(float(np.mean(epoch_losses)))
        curves["penalty"].append(float(np.mean(epoch_penalties)))
        curves["val"].append(val_loss)
        curves["mu"].append(mu)
        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
            best_epoch = epoch

    return best_params, best_val, best_epoch, curves


def train(dataset, cfg):
    """Fit the model and report metrics; see module docstring for protocol.

    Runs cfg.restarts independent optimizations (alternating alignment
    parity) and keeps the one with the best validation loss; within each,
    the best validation checkpoint wins. Returns (best parameters,
    RunReport). A non-finite objective aborts with a failure report.
    """
    start = time.perf_counter()
    loss_kind = resolve_loss(cfg, dataset.meta)
    report = RunReport(
        task=dataset.meta.task,
        seed=cfg.seed,
        config={**cfg.echo(), "resolvedLoss": loss_kind},
    )

    outcomes = []
    for restart in range(cfg.restarts):
        try:
            outcomes.append(_train_single(dataset, cfg, loss_kind, restart))
        except _RestartFailure as failure:
            report.failure_reason = str(failure)
            report.wall_clock = time.perf_counter() - start
            return None, report

    chosen = min(range(len(outcomes)), key=lambda i: outcomes[i][1])
    best_params, _, best_epoch, curves = outcomes[chosen]
    report.chosen_restart = chosen
    report.restart_val_losses = [o[1] for o in outcomes]
    report.best_epoch = best_epoch
    report.loss_curve = curves["loss"]
    report.penalty_curve = curves["penalty"]
    report.val_curve = curves["val"]
    report.mu_curve = curves["mu"]
    evaluate_params(best_params, dataset, cfg, report, loss_kind)
    report.wall_clock = time.perf_counter() - start
    return best_params, report
