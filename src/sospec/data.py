"""Synthetic tasks with known ground-truth generators, plus dataset I/O.

Targets are built from resonant torus characters (with polynomial radial
envelopes so they stay smooth through the origin) and radial terms, all
expressed in the frame of a known canonical form. That makes them invariant
under the generated subgroup by construction; every dataset is audited for
this at generation time before it is returned.

Files are JSON lines: one meta header object, then one {"x": .., "y": ..}
object per sample. Floats round-trip exactly.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from .lattice import primitive_set, resonant_subset
from .lie import CanonicalForm, Generator, assemble_generator, matrix_exp, retract_orthogonal

AUDIT_PAIRS = 64
AUDIT_TOL = 1e-9

# Spring-coupling strengths of the 6-d pendulum analog.
PENDULUM_COUPLING = 0.8
PENDULUM_TRIPLE = 0.25


@dataclass
class DatasetMeta:
    task: str
    n: int
    out_dim: int
    n_samples: int
    noise_sigma: float
    seed: int
    true_generator: Generator | None = None
    true_rates: np.ndarray | None = None
    output_kind: str = "regression"

    def to_json_dict(self):
        return {
            "task": self.task,
            "n": self.n,
            "outDim": self.out_dim,
            "nSamples": self.n_samples,
            "noiseSigma": self.noise_sigma,
            "seed": self.seed,
            "trueGenerator": self.true_generator.to_json_dict()
            if self.true_generator is not None
            else None,
            "trueLambda": self.true_rates.tolist() if self.true_rates is not None else None,
            "outputKind": self.output_kind,
        }

    @classmethod
    def from_json_dict(cls, d):
        gen = d.get("trueGenerator")
        rates = d.get("trueLambda")
        return cls(
            task=d["task"],
            n=d["n"],
            out_dim=d["outDim"],
            n_samples=d["nSamples"],
            noise_sigma=d["noiseSigma"],
            seed=d["seed"],
            true_generator=Generator.from_json_dict(gen) if gen is not None else None,
            true_rates=np.asarray(rates, dtype=np.float64) if rates is not None else None,
            output_kind=d.get("outputKind", "regression"),
        )


@dataclass
class Dataset:
    x: np.ndarray
    y: np.ndarray
    meta: DatasetMeta

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.ndim != 2 or self.y.ndim != 2 or self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x and y must be 2-d with matching row counts")
        if self.x.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if self.x.shape[1] != self.meta.n or self.y.shape[1] != self.meta.out_dim:
            raise ValueError(
                f"samples have {self.x.shape[1]} inputs and {self.y.shape[1]} outputs, "
                f"meta declares n={self.meta.n} and out_dim={self.meta.out_dim}"
            )
        if self.meta.true_generator is not None:
            b = self.meta.true_generator.entries
            if np.linalg.norm(b + b.T) > 1e-12:
                raise ValueError("declared true generator is not skew-symmetric")

    def __len__(self):
        return self.x.shape[0]


# -- ground-truth generators -------------------------------------------------

RATIONAL_RATE_CHOICES = {
    2: [(1, -1), (1, 1), (2, 1), (1, -2)],
    3: [(1, 1, -2), (1, -1, 0), (1, 1, 1), (2, -1, 1)],
    4: [(1, -1, 1, -1), (1, 1, -1, -1), (2, 1, -1, 0)],
}


def make_random_generator(n, seed, kind="mixed"):
    """Random canonical form with unit-norm rates.

    kind: 'rational' forces rationally dependent rates (so resonances exist
    within bandwidth 2), 'generic' draws rates from the sphere, 'mixed'
    picks one of the two with equal probability, 'diagonal' fixes Q to the
    identity with alternating-sign unit rates.
    """
    if n % 2 != 0:
        raise ValueError(f"ambient dimension must be even, got {n}")
    rng = np.random.default_rng(seed)
    r = n // 2
    if kind == "diagonal":
        rates = np.array([(-1.0) ** k for k in range(r)])
        return CanonicalForm(np.eye(n), rates / np.linalg.norm(rates))
    q = retract_orthogonal(rng.standard_normal((n, n)))
    if kind == "mixed":
        kind = "rational" if rng.uniform() < 0.5 else "generic"
    if kind == "rational" and r == 1:
        kind = "generic"  # r=1 has no nonzero resonances either way
    if kind == "rational":
        choices = RATIONAL_RATE_CHOICES.get(r)
        if choices is None:
            ints = np.zeros(r, dtype=np.int64)
            while not np.any(ints):
                ints = rng.integers(-2, 3, size=r)
            rates = ints.astype(np.float64)
        else:
            rates = np.asarray(choices[int(rng.integers(len(choices)))], dtype=np.float64)
    elif kind == "generic":
        rates = rng.standard_normal(r)
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return CanonicalForm(q, rates / np.linalg.norm(rates))


# -- targets -------------------------------------------------------------------


def _polar_batch(z):
    x = z[:, 0::2]
    y = z[:, 1::2]
    radii = np.hypot(x, y)
    angles = np.arctan2(y, x)  # envelope * cos/sin is insensitive to wrap
    return radii, angles


def _resonant_character_target(cf, bandwidth, rng):
    """Random invariant target: resonant characters with radial envelopes
    plus a quadratic radial term. Returns (callable batch->values, info).

    Each character term carries an extra even radial factor (1 + e*r_j^2).
    Without it the target would be a quadratic form, and every quadratic
    form is invariant under the full torus of its eigenplanes, so the
    generator would not be identifiable from the data.
    """
    r = cf.r
    members = resonant_subset(cf.rates, primitive_set(bandwidth, r), AUDIT_TOL).members
    coeffs = []
    for m in members:
        a = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        b = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        e = rng.uniform(0.2, 0.4)
        j = int(rng.integers(r))
        coeffs.append((m, a, b, e, j))
    radial_w = rng.uniform(0.25, 0.5, size=r)

    def target(x_batch):
        z = x_batch @ cf.q
        radii, angles = _polar_batch(z)
        values = radii**2 @ radial_w
        for m, a, b, e, j in coeffs:
            marr = np.asarray(m.entries, dtype=np.float64)
            phase = angles @ marr
            envelope = np.prod(radii ** np.abs(marr), axis=1) * (1.0 + e * radii[:, j] ** 2)
            values = values + envelope * (a * np.cos(phase) + b * np.sin(phase))
        return values

    info = {"n_characters": len(coeffs), "radial_only": len(coeffs) == 0}
    return target, info


def _audit_invariance(target, generator, n, rng):
    """Verify |f(exp(tB) x) - f(x)| <= AUDIT_TOL on random pairs."""
    xs = rng.standard_normal((AUDIT_PAIRS, n))
    ts = rng.uniform(-np.pi, np.pi, size=AUDIT_PAIRS)
    base = target(xs)
    worst = 0.0
    for i, t in enumerate(ts):
        rot = matrix_exp(generator, t)
        moved = target(xs[i : i + 1] @ rot.T)
        worst = max(worst, abs(float(moved[0] - base[i])))
    if worst > AUDIT_TOL:
        raise RuntimeError(f"generated target is not invariant: audit error {worst:.3e}")
    return worst


def synth_invariant_regression(cf, n_samples, noise_sigma, seed, bandwidth=2):
    """Regression task invariant under the subgroup of `cf`.

    The noiseless target is audited for invariance before noise is added,
    and rescaled to unit standard deviation over the drawn sample so
    noise_sigma reads as a relative noise level across tasks. When no
    resonance exists within the bandwidth the target falls back to its
    radial part, which is invariant under every block rotation.
    """
    if noise_sigma < 0:
        raise ValueError("noise sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    raw_target, _ = _resonant_character_target(cf, bandwidth, rng)
    generator = assemble_generator(cf)
    _audit_invariance(raw_target, generator, cf.n, rng)
    x = rng.standard_normal((n_samples, cf.n))
    clean = raw_target(x)
    scale = float(np.std(clean))
    y = (clean / scale)[:, None]
    if noise_sigma > 0:
        y = y + noise_sigma * rng.standard_normal(y.shape)
    meta = DatasetMeta(
        task="synth",
        n=cf.n,
        out_dim=1,
        n_samples=n_samples,
        noise_sigma=noise_sigma,
        seed=seed,
        true_generator=generator,
        true_rates=cf.rates.copy(),
    )
    return Dataset(x, y, meta)


def synth_invariant_classification(cf, n_samples, noise_sigma, seed, bandwidth=2):
    """Binary labels from the thresholded invariant regression target."""
    ds = synth_invariant_regression(cf, n_samples, noise_sigma, seed, bandwidth)
    labels = (ds.y > np.median(ds.y)).astype(np.float64)
    meta = replace(ds.meta, task="synth-cls", output_kind="binary")
    return Dataset(ds.x, labels, meta)


def double_pendulum_task(n_samples, noise_sigma, seed):
    """Desk-scale analog of a spring-coupled double pendulum in 6 dimensions.

    The state is three 2-d blocks rotating in lockstep: the true generator
    is the diagonal block rotation with equal rates (1,1,1)/sqrt(3). The
    target combines the spring-coupling energy surrogate
        sum_k radius_k^2 + c * sum_{k<l} radius_k radius_l cos(angle_k - angle_l)
    (invariant because only angle differences and radii appear) with
    pair-dependent coupling modulation and one higher-order resonant term,
        d * r1 r2^2 r3 cos(angle_1 - 2*angle_2 + angle_3).
    The extra structure matters: the plain surrogate is a quadratic form,
    which is invariant under the whole torus of its eigenplanes, so the
    diagonal generator would not be the unique one-parameter symmetry of
    the data. This mirrors the advertised symmetry exactly; it does not
    integrate pendulum dynamics.
    """
    if noise_sigma < 0:
        raise ValueError("noise sigma must be nonnegative")
    n, r = 6, 3
    rng = np.random.default_rng(seed)
    rates = np.ones(r) / np.sqrt(float(r))
    cf = CanonicalForm(np.eye(n), rates)
    generator = assemble_generator(cf)
    pair_scale = {(0, 1): 1.2, (0, 2): 0.8, (1, 2): 1.0}

    def target(x_batch):
        radii, angles = _polar_batch(x_batch)
        values = np.sum(radii**2, axis=1)
        for k in range(r):
            for l in range(k + 1, r):
                values = values + PENDULUM_COUPLING * pair_scale[(k, l)] * radii[
                    :, k
                ] * radii[:, l] * np.cos(angles[:, k] - angles[:, l])
        values = values + PENDULUM_TRIPLE * radii[:, 0] * radii[:, 1] ** 2 * radii[
            :, 2
        ] * np.cos(angles[:, 0] - 2.0 * angles[:, 1] + angles[:, 2])
        return values

    _audit_invariance(target, generator, n, rng)
    x = rng.standard_normal((n_samples, n))
    y = target(x)[:, None]
    if noise_sigma > 0:
        y = y + noise_sigma * rng.standard_normal(y.shape)
    meta = DatasetMeta(
        task="pendulum6d",
        n=n,
        out_dim=1,
        n_samples=n_samples,
        noise_sigma=noise_sigma,
        seed=seed,
        true_generator=generator,
        true_rates=rates,
    )
    return Dataset(x, y, meta)


# -- serialization ---------------------------------------------------------------


def save_dataset(ds, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": ds.meta.to_json_dict()}) + "\n")
        for i in range(len(ds)):
            fh.write(json.dumps({"x": ds.x[i].tolist(), "y": ds.y[i].tolist()}) + "\n")


def load_dataset(path):
    """Read a JSONL dataset; malformed lines, non-finite values and samples
    that do not match the header's dimensions raise ValueError naming the
    file (and the line, where there is one)."""
    xs, ys, linenos = [], [], []
    meta = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON ({exc})") from exc
            if lineno == 1:
                if "meta" not in obj:
                    raise ValueError(f"{path}: line 1: missing meta header")
                meta = DatasetMeta.from_json_dict(obj["meta"])
            else:
                if "x" not in obj or "y" not in obj:
                    raise ValueError(f"{path}: line {lineno}: sample needs x and y")
                xs.append(obj["x"])
                ys.append(obj["y"])
                linenos.append(lineno)
    if meta is None:
        raise ValueError(f"{path}: empty dataset file")
    try:
        ds = Dataset(np.asarray(xs), np.asarray(ys), meta)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    finite = np.isfinite(ds.x).all(axis=1) & np.isfinite(ds.y).all(axis=1)
    if not finite.all():
        lineno = linenos[int(np.argmin(finite))]
        raise ValueError(f"{path}: line {lineno}: non-finite value in x or y")
    return ds
