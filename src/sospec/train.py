"""Training loop: Adam on the joint objective with a resonance warm-up.

The penalty weight mu is held at mu_init for warmup_epochs, then ramped
linearly to twice mu_init at the last epoch. Rates are renormalized to
the unit sphere after every optimizer step, which rules out the trivial
zero-rate penalty minimizer; their scale is not identifiable anyway. The
checkpoint with the best validation prediction loss wins (earliest epoch
on ties).
"""

import math
import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from . import kernels, metrics, model, pool
from .autodiff import Tape
from .fields import check
from .lattice import estimate_lambda, primitive_set, surviving_frequencies
from .lie import CanonicalForm, assemble_generator, generator_cosine_similarity

LR = 2e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

TRAIN_FRAC = 0.8
VAL_FRAC = 0.1

# Invariance error protocol: up to INV_X_SAMPLES test rows, each moved by
# INV_T_SAMPLES flow times drawn uniformly from [-T_MAX, T_MAX].
INV_X_SAMPLES = 256
INV_T_SAMPLES = 16
T_MAX = math.pi

# A first-layer frequency survives when its coefficient norm reaches this
# fraction of the largest one.
REL_THRESHOLD = 0.1

# Salts for the independent random streams of a run.
_SALT_INIT, _SALT_SPLIT, _SALT_BATCH, _SALT_EVAL = 0, 1, 2, 3

# Optimizer steps per restart below which `train` keeps the restarts
# in-process. A forked pool costs about 20 ms to start, plus shipping the
# results; on two cores two pendulum restarts (medians of 7) broke even
# between 80 and 100 steps each at bandwidth 1 and at about 60 at
# bandwidth 2, and ran 1.4 to 1.6 times as fast from 120 on.
PARALLEL_MIN_STEPS = 100


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 128
    mu_init: float = 0.1
    warmup_epochs: int = 10
    bandwidth: int = 2
    seed: int = 0
    restarts: int = 2

    def __post_init__(self):
        # each field of the kind a checkpoint's config is read back as
        for f in fields(self):
            check(getattr(self, f.name), f.type, f.name)
        for name in ("epochs", "batch_size", "warmup_epochs", "bandwidth", "restarts"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.mu_init < 0:  # zero switches the penalty off (plain regression)
            raise ValueError("mu_init must be nonnegative")
        if self.warmup_epochs > self.epochs:
            raise ValueError("warmup_epochs must not exceed epochs")


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
    recovered_lambda: list | None = None
    spectral_lambda: list | None = None
    nullity: int | None = None
    lambda_reliable: bool | None = None
    surviving_frequencies: list = field(default_factory=list)
    loss_curve: list = field(default_factory=list)
    val_loss_curve: list = field(default_factory=list)
    penalty_curve: list = field(default_factory=list)
    mu_curve: list = field(default_factory=list)
    best_epoch: int | None = None
    chosen_restart: int | None = None
    restart_val_losses: list | None = None
    restart_failures: list | None = None
    wall_clock: float | None = None
    failure_reason: str | None = None

    def to_json_dict(self):
        """The report document: each field under its name in camelCase, in
        field order."""
        return {_camel(f.name): getattr(self, f.name) for f in fields(self)}


def _camel(name):
    head, *words = name.split("_")
    return head + "".join(word.title() for word in words)


def mu_schedule(epoch, cfg):
    """Penalty weight for an epoch: flat warm-up, then a linear ramp to
    twice mu_init at the final epoch."""
    if not 0 <= epoch < cfg.epochs:
        raise ValueError(f"epoch {epoch} outside 0..{cfg.epochs - 1}")
    if epoch < cfg.warmup_epochs:
        return cfg.mu_init
    last = cfg.epochs - 1
    if last <= cfg.warmup_epochs:
        frac = 1.0
    else:
        frac = (epoch - cfg.warmup_epochs) / (last - cfg.warmup_epochs)
    return cfg.mu_init * (1.0 + frac)


class Adam:
    """Adam at rate LR with bias correction over one flat parameter vector,
    updated in place by a single fused kernel call per step."""

    def __init__(self, flat):
        self.flat = flat
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
            LR,
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


def resolve_loss(dataset):
    """The loss `dataset`, one `data.Dataset`, trains with: logistic when
    its output_kind is binary, squared error otherwise."""
    return "logistic" if dataset.output_kind == "binary" else "squared-error"


def _forward_loss(params, x, y):
    return float(model.loss_stage(model.predict(params, x), y, params.loss_kind)[0])


def evaluate_params(params, ds, cfg, report):
    """Fill `report` with held-out metrics and the generator read off
    trained parameters, two ways.

    Direct: assembled from the learned alignment and rates. Spectral: the
    rates `estimate_lambda` re-estimates from the first-layer frequencies
    that survive REL_THRESHOLD, assembled in the same frame; the flag
    lambdaReliable holds when those frequencies pin a one-dimensional
    nullspace. Given the dataset's true generator, also the invariance
    error on test rows and each generator's cosine with it.

    Shared by the trainer and standalone checkpoint evaluation so the two
    produce identical numbers for identical inputs.
    """
    _, _, test_idx = split_indices(len(ds), cfg.seed)
    x_test, y_test = ds.x[test_idx], ds.y[test_idx]
    if resolve_loss(ds) == "squared-error":
        report.test_mse = metrics.test_mse(params, x_test, y_test)
    else:
        report.accuracy = metrics.accuracy(params, x_test, y_test)

    cf = params.canonical_form()
    direct = assemble_generator(cf)
    surviving = surviving_frequencies(params.freq, model.coefficient_norms(params), REL_THRESHOLD)
    rates_hat, report.nullity = estimate_lambda(surviving, params.r)
    spectral = assemble_generator(CanonicalForm(cf.q, rates_hat))
    report.surviving_frequencies = surviving.astype(int).tolist()
    report.recovered_lambda = cf.rates.tolist()
    report.spectral_lambda = rates_hat.tolist()
    report.lambda_reliable = report.nullity == 1
    report.estimator_agreement = generator_cosine_similarity(direct, spectral)

    true_gen = ds.true_generator
    if true_gen is not None:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _SALT_EVAL]))
        take = min(INV_X_SAMPLES, x_test.shape[0])
        xs = x_test[rng.choice(x_test.shape[0], size=take, replace=False)]
        ts = rng.uniform(-T_MAX, T_MAX, size=INV_T_SAMPLES)
        predict = partial(model.predict, params)
        report.invariance_error = metrics.invariance_error(predict, xs, true_gen, ts)
        report.cosine_similarity = generator_cosine_similarity(direct, true_gen)
        report.cosine_similarity_spectral = generator_cosine_similarity(spectral, true_gen)


def _rate_candidate(r, restart):
    """Rate direction a restart starts from.

    For two planes the primitive rays at bandwidth 1 can be enumerated, so
    restart pairs cycle through their null directions exactly; larger r
    falls back to the seeded uniform draw (None).
    """
    if r == 2:
        base = [(1.0, -1.0), (1.0, 1.0)][(restart // 2) % 2]
        return np.asarray(base) / np.sqrt(2.0)
    return None


def _train_single(dataset, cfg, restart):
    """One full optimization from a fresh init.

    Even restart indices start from their draw, odd ones from its mirror
    image, which init_params(reflected=True) maps into the same exp(A)
    frame: last rate negated, first layer permuted (proper rotations cannot
    exchange a frequency ray with its conjugate, so the two starts cover
    both orientation classes). Each restart starts its rates at
    `_rate_candidate`'s direction, and validation selection arbitrates
    between restarts.

    Returns (best params, best validation loss, best epoch, curves), or
    on a non-finite objective the message that names where it happened.
    """
    rng_init = np.random.default_rng(np.random.SeedSequence([cfg.seed, _SALT_INIT, restart]))
    rng_batch = np.random.default_rng(np.random.SeedSequence([cfg.seed, _SALT_BATCH, restart]))
    n = dataset.x.shape[1]
    params = model.init_params(
        n=n,
        bandwidth=cfg.bandwidth,
        out_dim=dataset.y.shape[1],
        seed=rng_init,
        loss_kind=resolve_loss(dataset),
        reflected=bool(restart % 2),
        rates_init=_rate_candidate(n // 2, restart),
    )
    train_idx, val_idx, _ = split_indices(len(dataset), cfg.seed)
    x_val, y_val = dataset.x[val_idx], dataset.y[val_idx]

    adam = Adam(params.flat)

    curves = {"loss": [], "penalty": [], "val": []}
    best_val = math.inf
    best_params = params.copy()
    best_epoch = -1

    for epoch in range(cfg.epochs):
        mu = mu_schedule(epoch, cfg)
        order = rng_batch.permutation(train_idx)
        # One gather an epoch; each batch is then a contiguous slice of it.
        x_epoch, y_epoch = dataset.x[order], dataset.y[order]
        epoch_losses = []
        epoch_penalties = []
        for lo in range(0, order.size, cfg.batch_size):
            hi = lo + cfg.batch_size
            tape = Tape()
            objective, pred_loss, penalty = model.build_objective(
                tape, params, x_epoch[lo:hi], y_epoch[lo:hi], mu
            )
            if not math.isfinite(objective):
                return (
                    f"non-finite objective at restart {restart} epoch {epoch} "
                    f"(loss={pred_loss!r})"
                )
            adam.step(tape.backward())
            params.rates /= math.sqrt(params.rates @ params.rates)
            epoch_losses.append(pred_loss)
            epoch_penalties.append(penalty)
            # backward dropped the record, and with it every array the
            # stages kept; drop the tape before the next step's forward.
            del tape

        val_loss = _forward_loss(params, x_val, y_val)
        curves["loss"].append(float(np.mean(epoch_losses)))
        curves["penalty"].append(float(np.mean(epoch_penalties)))
        curves["val"].append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
            best_epoch = epoch

    return best_params, best_val, best_epoch, curves


def _restart_workers(dataset, cfg):
    """How many processes `train(dataset, cfg)` runs restarts in; 1 means
    in-process.

    In-process when a restart takes fewer than PARALLEL_MIN_STEPS optimizer
    steps; otherwise `pool.worker_count` of the restarts.
    """
    steps = cfg.epochs * math.ceil(int(TRAIN_FRAC * len(dataset)) / cfg.batch_size)
    return 1 if steps < PARALLEL_MIN_STEPS else pool.worker_count(cfg.restarts)


def check_trainable(dataset, cfg):
    """Raise ValueError if `cfg` cannot train on `dataset`: its bandwidth's
    primitive_set is too large to build, or the dataset is too small to
    give every split a row."""
    primitive_set(cfg.bandwidth, dataset.x.shape[1] // 2)
    if not all(part.size for part in split_indices(len(dataset), cfg.seed)):
        raise ValueError(
            f"a dataset of {len(dataset)} rows leaves its train, validation or test "
            "split empty; training needs at least 10 rows"
        )


def train(dataset, cfg):
    """Fit the model and report metrics; see module docstring for protocol.

    Runs cfg.restarts independent optimizations (alternating alignment
    parity) and keeps the one with the best validation loss; within each,
    the best validation checkpoint wins. Returns (best parameters,
    RunReport).

    Each restart has its own seeded random streams and shares nothing with
    the others, so restarts can run in worker processes; they are collected
    in restart order and the result is byte for byte the one an in-process
    run gives. They run in min(cfg.restarts, usable CPUs) forked workers,
    each held to one BLAS thread, when each restart takes at least
    PARALLEL_MIN_STEPS optimizer steps; they run in-process in a pool
    worker (a study's, say), where pools would nest, and where the platform
    cannot fork or the BLAS thread setting cannot be found.

    A restart whose objective goes non-finite is recorded in
    restartFailures and left out of the choice; if every restart fails the
    result is (None, report) with failure_reason set and no curves. Inputs
    that `check_trainable` rejects raise ValueError before any restart
    starts.
    """
    check_trainable(dataset, cfg)
    start = time.perf_counter()
    workers = _restart_workers(dataset, cfg)
    report = RunReport(
        task=dataset.task,
        seed=cfg.seed,
        config={**asdict(cfg), "resolvedLoss": resolve_loss(dataset)},
    )

    tasks = [(cfg, r) for r in range(cfg.restarts)]
    outcomes = list(pool.run_in_order(_train_single, dataset, tasks, workers))
    failures = [o if isinstance(o, str) else None for o in outcomes]
    report.restart_failures = failures
    report.restart_val_losses = [None if f else o[1] for o, f in zip(outcomes, failures)]
    survivors = [i for i, f in enumerate(failures) if f is None]
    if not survivors:
        report.failure_reason = "; ".join(failures)
        report.wall_clock = time.perf_counter() - start
        return None, report

    chosen = min(survivors, key=lambda i: outcomes[i][1])
    best_params, _, best_epoch, curves = outcomes[chosen]
    report.chosen_restart = chosen
    report.best_epoch = best_epoch
    report.loss_curve = curves["loss"]
    report.penalty_curve = curves["penalty"]
    report.val_loss_curve = curves["val"]
    report.mu_curve = [mu_schedule(e, cfg) for e in range(cfg.epochs)]
    evaluate_params(best_params, dataset, cfg, report)
    report.wall_clock = time.perf_counter() - start
    return best_params, report
