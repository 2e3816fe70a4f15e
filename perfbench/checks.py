"""Correctness checks computed apart from the program under test.

Everything here is plain numpy, scipy and json: the true generator, the
documented pendulum target, the train/val/test split, the model's forward
pass and the matrix exponential are written out again instead of being
taken from `sospec`. Each check returns a list of failure messages; an
empty list means the output passed.
"""

import json
import math

import numpy as np
from scipy.linalg import expm

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])

# Documented 6-d pendulum analog: couplings and pair scales of the target.
PENDULUM_COUPLING = 0.8
PENDULUM_PAIR_SCALE = {(0, 1): 1.2, (0, 2): 0.8, (1, 2): 1.0}
PENDULUM_TRIPLE = 0.25
PENDULUM_RATES = np.ones(3) / math.sqrt(3.0)

# Documented split: 80% train, 10% validation, the rest test, permuted by a
# generator seeded with (run seed, split salt 1).
TRAIN_FRAC, VAL_FRAC, SPLIT_SALT = 0.8, 0.1, 1

MIN_COSINE = 0.99
COSINE_TOL = 1e-9
MSE_RTOL = 1e-9
NOISE_SIGMAS = 5.0  # sampling-error allowance of the noise check, in standard errors

METRIC_FIELDS = (
    "testMse",
    "accuracy",
    "invarianceError",
    "cosineSimilarity",
    "cosineSimilaritySpectral",
    "estimatorAgreement",
    "recoveredLambda",
    "spectralLambda",
    "nullity",
    "lambdaReliable",
    "survivingFrequencies",
)


def generator(q, rates):
    """q (rate_1 J (+) ... (+) rate_r J) q^T."""
    rates = np.asarray(rates, dtype=np.float64)
    core = np.zeros((2 * rates.size, 2 * rates.size))
    for k, rate in enumerate(rates):
        core[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = rate * J2
    raw = q @ core @ q.T
    return 0.5 * (raw - raw.T)


def pendulum_generator():
    return generator(np.eye(6), PENDULUM_RATES)


def alignment(checkpoint):
    """The frame the checkpoint applies to its inputs: expm of the skew
    parameters (positive entries below the diagonal), with the last column
    negated for a reflected-parity frame."""
    n = checkpoint["n"]
    rows, cols = np.triu_indices(n, k=1)
    skew = np.zeros((n, n))
    skew[cols, rows] = checkpoint["skewParams"]
    skew[rows, cols] = -np.asarray(checkpoint["skewParams"])
    q = expm(skew)
    if checkpoint["reflected"]:
        q[:, -1] = -q[:, -1]
    return q


def learned_generator(checkpoint):
    return generator(alignment(checkpoint), checkpoint["lambda"])


def cosine(a, b):
    return float(np.sum(a * b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def check_recovery(checkpoint, report, true_gen, min_cosine=MIN_COSINE):
    """|cos| of the rebuilt generator clears the bar and equals the report's."""
    cos = cosine(learned_generator(checkpoint), true_gen)
    problems = []
    if abs(cos) < min_cosine:
        problems.append(f"|cos| {abs(cos):.6f} below {min_cosine}")
    reported = report.get("cosineSimilarity")
    if reported is None or abs(reported - cos) > COSINE_TOL:
        problems.append(f"report cosineSimilarity {reported!r} differs from rebuilt {cos!r}")
    return problems


def forward(checkpoint, x):
    """Model output from checkpoint weights: characters as products of unit
    complex block coordinates, then the ReLU MLP."""
    z = np.asarray(x, dtype=np.float64) @ alignment(checkpoint)
    w = z[:, 0::2] + 1j * z[:, 1::2]
    radii = np.abs(w)
    unit = w / radii
    chars = np.ones((z.shape[0], len(checkpoint["frequencies"])), dtype=np.complex128)
    for j, freq in enumerate(checkpoint["frequencies"]):
        for k, m in enumerate(freq):
            if m:
                chars[:, j] *= (unit[:, k] if m > 0 else np.conj(unit[:, k])) ** abs(m)
    h = np.concatenate([chars.real, chars.imag, radii], axis=1)
    layers = checkpoint["layers"]
    for i, layer in enumerate(layers):
        h = h @ np.asarray(layer["weight"]) + np.asarray(layer["bias"])
        if i != len(layers) - 1:
            h = np.maximum(h, 0.0)
    return h


def split_test_rows(n_samples, seed):
    perm = np.random.default_rng(np.random.SeedSequence([seed, SPLIT_SALT])).permutation(n_samples)
    return perm[int(TRAIN_FRAC * n_samples) + int(VAL_FRAC * n_samples) :]


def check_test_mse(checkpoint, x, y, seed, report):
    idx = split_test_rows(len(x), seed)
    mse = float(np.mean((forward(checkpoint, x[idx]) - y[idx]) ** 2))
    reported = report.get("testMse")
    if reported is None or abs(reported - mse) > MSE_RTOL * abs(mse):
        return [f"report testMse {reported!r} differs from recomputed {mse!r}"]
    return []


def check_eval_matches_train(train_report, eval_report):
    return [
        f"eval {key} {eval_report.get(key)!r} != train {train_report.get(key)!r}"
        for key in METRIC_FIELDS
        if eval_report.get(key) != train_report.get(key)
    ]


def read_jsonl(path):
    """(meta, x, y) of a dataset file, parsed with plain json into arrays
    sized by the header."""
    with open(path, encoding="utf-8") as fh:
        meta = json.loads(fh.readline())["meta"]
        x = np.empty((meta["nSamples"], meta["n"]))
        y = np.empty((meta["nSamples"], meta["outDim"]))
        rows = 0
        for rows, line in enumerate(fh, start=1):
            if rows > len(x):
                raise ValueError(f"more samples than the {len(x)} the header declares")
            sample = json.loads(line)
            x[rows - 1] = sample["x"]
            y[rows - 1] = sample["y"]
    return meta, x[:rows], y[:rows]


def check_same_data(x, y, ref_x, ref_y):
    """Bit-for-bit equality of two (x, y) pairs."""
    if x.shape != ref_x.shape or y.shape != ref_y.shape:
        return [f"shapes {x.shape}/{y.shape} != {ref_x.shape}/{ref_y.shape}"]
    problems = []
    for name, got, want in (("x", x, ref_x), ("y", y, ref_y)):
        bad = np.count_nonzero(got.view(np.int64) != want.view(np.int64))
        if bad:
            problems.append(f"{bad} {name} values differ from the reference bits")
    return problems


def pendulum_target(x):
    """The documented target, from complex block coordinates z_k:
    sum |z_k|^2 + c sum_{k<l} s_kl Re(z_k conj z_l) + d Re(z_1 conj(z_2)^2 z_3)."""
    z = x[:, 0::2] + 1j * x[:, 1::2]
    values = np.sum(np.abs(z) ** 2, axis=1)
    for (k, l), scale in PENDULUM_PAIR_SCALE.items():
        values = values + PENDULUM_COUPLING * scale * np.real(z[:, k] * np.conj(z[:, l]))
    triple = z[:, 0] * np.conj(z[:, 1]) ** 2 * z[:, 2]
    return values + PENDULUM_TRIPLE * np.real(triple)


def check_pendulum_noise(x, y, sigma):
    """y minus the documented target is zero-mean noise of scale sigma,
    within NOISE_SIGMAS standard errors."""
    resid = y[:, 0] - pendulum_target(x)
    n = resid.size
    problems = []
    if abs(resid.mean()) > NOISE_SIGMAS * sigma / math.sqrt(n):
        problems.append(f"residual mean {resid.mean():.3e} is not zero")
    if abs(resid.std() - sigma) > NOISE_SIGMAS * sigma / math.sqrt(2.0 * n):
        problems.append(f"residual std {resid.std():.6f} is not sigma={sigma}")
    return problems
