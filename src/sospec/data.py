"""Synthetic tasks with known ground-truth generators, plus dataset I/O.

Targets are built from resonant torus characters (with polynomial radial
envelopes so they stay smooth through the origin) and radial terms, all
expressed in the frame of a known canonical form. That makes them invariant
under the generated subgroup by construction; every dataset is audited for
this at generation time before it is returned. Every target is a
polynomial in the complex block coordinates z_k = x_{2k} + i x_{2k+1}: a
character with its envelope, rho_m e^{i m.theta}, is prod_k z_k^{m_k}
(conj z_k for negative m_k), which `kernels.torus_fwd` computes from the
raw coordinates, so no angle is taken.

A dataset is one `Dataset` object: its arrays x and y and the fields its
file's header records with them. Its n, out_dim and row count are the
arrays' shape, stored nowhere else: `save_dataset` writes them into the
header as n, outDim and nSamples, and `load_dataset` reads them back only
to size the arrays and check the rows against them.

Files are JSON lines: one meta header object, then one {"x": .., "y": ..}
object per sample. Floats round-trip exactly. Saving works in chunks of
rows, and loading a file laid out as saving writes it works in byte
ranges of lines, each run in a worker pool when a file has more than one.
Loading allocates arrays of the header's shape and copies each range's
rows into place, so memory stays at the arrays' size whatever the file's
length. Any other file, and any file with a problem, is read once more
in-process one line at a time, and that pass is the only source of the
loader's error messages.
"""

import itertools
import json
import math
import os
from contextlib import closing
from dataclasses import dataclass, replace

import numpy as np

from . import fields, kernels, pool
from .lattice import primitive_set, resonant_subset
from .lie import CanonicalForm, Generator, assemble_generator, exp_skew, retract_orthogonal
from .lie import matrix_exp  # noqa: F401 (perfbench/tracing.py wraps it here too)

AUDIT_PAIRS = 64
AUDIT_TOL = 1e-9

# Bandwidth of a synth target's characters unless given, and gen-data's
# default: at 1, rates like (2, 1) have no resonance and the target is radial.
DATA_BANDWIDTH = 2

# Spring-coupling strengths of the 6-d pendulum analog.
PENDULUM_COUPLING = 0.8
PENDULUM_TRIPLE = 0.25

# Dataset I/O runs in chunks: save_dataset formats rows holding about
# SAVE_CHUNK_VALUES numbers a chunk (about 100 KB of text), load_dataset
# parses about LOAD_CHUNK_BYTES of lines a chunk (about 50 KB of arrays).
# What a pool worker sends back a chunk so stays under glibc's 128 KB mmap
# threshold: with 350 KB chunks of text, a pooled 64 000-row save left the
# parent's heap about 1.4 MB larger than an in-process one.
SAVE_CHUNK_VALUES = 4096
LOAD_CHUNK_BYTES = 1 << 17
# What a number in a sample line may be made of, for `_parse_rows`.
_NUMBER_BYTES = b"0123456789.eE+-"


@dataclass(eq=False)
class Dataset:
    """Samples x, of shape (rows, n), and y, of shape (rows, out_dim), with
    the fields their file's header records besides that shape."""

    x: np.ndarray
    y: np.ndarray
    task: str
    noise_sigma: float
    seed: int
    true_generator: Generator | None = None
    true_rates: np.ndarray | None = None
    output_kind: str = "regression"

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.ndim != 2 or self.y.ndim != 2 or self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x and y must be 2-d with matching row counts")
        if self.x.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        gen = self.true_generator
        if gen is not None and gen.n != self.x.shape[1]:
            raise ValueError(f"true generator has n={gen.n}, samples have {self.x.shape[1]} inputs")

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


def synth_generator(n, seed, rates, kind):
    """The true canonical form of a synthetic task at `seed`: `rates`,
    scaled to unit norm, in a random frame drawn from SeedSequence([seed, 7]),
    or make_random_generator(n, seed, kind) when `rates` is None."""
    if rates is None:
        return make_random_generator(n, seed, kind)
    rates = np.asarray(rates, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    q = retract_orthogonal(rng.standard_normal((n, n)))
    return CanonicalForm(q, rates / np.linalg.norm(rates))


# -- targets -------------------------------------------------------------------


def _harmonics(x_batch, freq):
    """Re and Im of rho_m e^{i m.theta} = prod_k z_k^{m_k} (conj z_k for a
    negative m_k) for each row m of `freq`, where z_k = x_{2k} + i x_{2k+1}
    are the rows' complex block coordinates, and the squared block radii
    x_{2k}^2 + x_{2k+1}^2."""
    x = np.ascontiguousarray(x_batch, dtype=np.float64)
    sq = x * x
    re, im = kernels.torus_fwd(x.view(np.complex128), freq, np.empty((len(x), 2 * len(freq))))
    return re, im, sq[:, 0::2] + sq[:, 1::2]


def _resonant_character_target(cf, bandwidth, rng):
    """Random invariant target: resonant characters with radial envelopes
    plus a quadratic radial term, as a callable batch -> values.

    Each character term carries an extra even radial factor (1 + e*r_j^2).
    Without it the target would be a quadratic form, and every quadratic
    form is invariant under the full torus of its eigenplanes, so the
    generator would not be identifiable from the data.
    """
    r = cf.r
    freq = resonant_subset(cf.rates, primitive_set(bandwidth, r), AUDIT_TOL)
    draws = [
        (
            rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0]),
            rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0]),
            rng.uniform(0.2, 0.4),
            rng.integers(r),
        )
        for _ in freq
    ]
    a, b, e, j = np.array(draws, dtype=np.float64).reshape(-1, 4).T
    j = j.astype(np.intp)
    radial_w = rng.uniform(0.25, 0.5, size=r)

    def target(x_batch):
        re, im, rsq = _harmonics(x_batch @ cf.q, freq)
        terms = (a * re + b * im) * (1.0 + e * rsq[:, j])
        return rsq @ radial_w + terms.sum(axis=1)

    return target


def _audit_invariance(target, generator, n, rng):
    """Verify |f(exp(tB) x) - f(x)| <= AUDIT_TOL on random pairs."""
    xs = rng.standard_normal((AUDIT_PAIRS, n))
    ts = rng.uniform(-np.pi, np.pi, size=AUDIT_PAIRS)
    _, w, v = exp_skew(generator.entries)  # each exp(tB) is v diag(e^{-itw}) v^H
    flows = ((v * np.exp(-1j * ts[:, None, None] * w)) @ v.conj().T).real
    moved = (flows @ xs[:, :, None])[:, :, 0]
    worst = float(np.max(np.abs(target(moved) - target(xs))))
    if not worst <= AUDIT_TOL:
        raise RuntimeError(f"generated target is not invariant: audit error {worst:.3e}")
    return worst


def check_noise_sigma(noise_sigma):
    """Raise ValueError unless `noise_sigma` is finite and nonnegative."""
    if not 0 <= noise_sigma < np.inf:  # NaN fails every comparison
        raise ValueError(f"noise sigma must be finite and nonnegative, got {noise_sigma!r}")


def synth_invariant_regression(cf, n_samples, noise_sigma, seed, bandwidth=DATA_BANDWIDTH):
    """Regression task invariant under the subgroup of `cf`.

    The noiseless target is audited for invariance before noise is added,
    and rescaled to unit standard deviation over the drawn sample so
    noise_sigma reads as a relative noise level across tasks. When no
    resonance exists within the bandwidth the target falls back to its
    radial part, which is invariant under every block rotation.
    """
    check_noise_sigma(noise_sigma)
    if n_samples < 2:  # the target is scaled by its standard deviation over the sample
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    rng = np.random.default_rng(seed)
    raw_target = _resonant_character_target(cf, bandwidth, rng)
    generator = assemble_generator(cf)
    _audit_invariance(raw_target, generator, cf.n, rng)
    x = rng.standard_normal((n_samples, cf.n))
    clean = raw_target(x)
    scale = float(np.std(clean))
    y = (clean / scale)[:, None]
    if noise_sigma > 0:
        y = y + noise_sigma * rng.standard_normal(y.shape)
    return Dataset(x, y, "synth", noise_sigma, seed, true_generator=generator,
                   true_rates=cf.rates.copy())


def synth_invariant_classification(cf, n_samples, noise_sigma, seed, bandwidth=DATA_BANDWIDTH):
    """Binary labels from the thresholded invariant regression target."""
    ds = synth_invariant_regression(cf, n_samples, noise_sigma, seed, bandwidth)
    labels = (ds.y > np.median(ds.y)).astype(np.float64)
    return replace(ds, y=labels, task="synth-cls", output_kind="binary")


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
    integrate pendulum dynamics. In block coordinates z_k the cosine terms
    are Re(z_k conj z_l) and Re(z_1 conj(z_2)^2 z_3), which is how the
    target computes them.
    """
    check_noise_sigma(noise_sigma)
    n, r = 6, 3
    rng = np.random.default_rng(seed)
    rates = np.ones(r) / np.sqrt(float(r))
    cf = CanonicalForm(np.eye(n), rates)
    generator = assemble_generator(cf)
    # rays (1,-1,0), (1,0,-1), (0,1,-1) with their pair scales, then (1,-2,1)
    freq = np.array([[1, -1, 0], [1, 0, -1], [0, 1, -1], [1, -2, 1]], dtype=np.intp)
    weights = np.array([PENDULUM_COUPLING * s for s in (1.2, 0.8, 1.0)] + [PENDULUM_TRIPLE])

    def target(x_batch):
        re, _, rsq = _harmonics(x_batch, freq)
        return rsq.sum(axis=1) + (re * weights).sum(axis=1)

    _audit_invariance(target, generator, n, rng)
    x = rng.standard_normal((n_samples, n))
    y = target(x)[:, None]
    if noise_sigma > 0:
        y = y + noise_sigma * rng.standard_normal(y.shape)
    return Dataset(x, y, "pendulum6d", noise_sigma, seed, true_generator=generator, true_rates=rates)


# -- serialization ---------------------------------------------------------------


def save_dataset(ds, path):
    """Write `ds` as JSON lines; non-finite values raise ValueError before
    anything is written, since load_dataset would reject the file.

    Rows are formatted in chunks of about SAVE_CHUNK_VALUES numbers, one
    `json.dumps` a row, in a pool of `pool.worker_count(chunks)` workers,
    and streamed to `path` through `fields.write`.
    """
    if not (np.isfinite(ds.x).all() and np.isfinite(ds.y).all()):
        raise ValueError(f"{path}: non-finite value in x or y")
    (rows, n), out_dim = ds.x.shape, ds.y.shape[1]
    step = max(1, SAVE_CHUNK_VALUES // (n + out_dim))
    tasks = [(start, min(start + step, rows)) for start in range(0, rows, step)]
    workers = pool.worker_count(len(tasks))
    gen, rates = ds.true_generator, ds.true_rates
    meta = {
        "task": ds.task,
        "n": n,
        "outDim": out_dim,
        "nSamples": rows,
        "noiseSigma": ds.noise_sigma,
        "seed": ds.seed,
        "trueGenerator": None if gen is None else gen.to_json_dict(),
        "trueLambda": None if rates is None else rates.tolist(),
        "outputKind": ds.output_kind,
    }
    header = json.dumps({"meta": meta}) + "\n"
    with closing(pool.run_in_order(_format_rows, ds, tasks, workers)) as chunks:
        fields.write(path, itertools.chain([header], chunks))


def _row_template(n, out_dim):
    """The `%` template of one sample line with n inputs and out_dim
    outputs: the text `json.dumps({"x": xs, "y": ys})` writes, with `%r`
    for each value, since json.dumps writes a finite float as its repr."""
    return '{"x": [%s], "y": [%s]}\n' % (", ".join(["%r"] * n), ", ".join(["%r"] * out_dim))


def _format_rows(ds, start, stop):
    """Rows start..stop-1 of `ds` as JSON lines, formatted with one `%`."""
    values = np.hstack((ds.x[start:stop], ds.y[start:stop]))
    template = _row_template(ds.x.shape[1], ds.y.shape[1]) * (stop - start)
    return template % tuple(values.ravel().tolist())


def load_dataset(path):
    """Read a JSONL dataset straight into arrays of the header's shape.

    The header's n, outDim and nSamples only size the arrays and check the
    rows; the dataset keeps the arrays, whose shape they are. A header that
    is not UTF-8 JSON, has a field that breaks its rule (see README
    "Datasets"; a negative noiseSigma, or a trueGenerator whose n is not
    the header's) or declares more rows than the file can hold, at two
    bytes a number and two a line, raises ValueError at once. Sample lines
    laid out exactly as save_dataset writes them are then parsed in byte
    ranges of about LOAD_CHUNK_BYTES that end on line boundaries, in a pool
    of `pool.worker_count(ranges)` workers; each range's rows are copied
    into their place as it arrives, so no list of rows is kept. A range
    laid out any other way, a row count other than the header's or a
    non-finite value sends the whole file once through `_read_lines`,
    which loads the lines if they are valid and otherwise raises
    ValueError naming the file and the line of the first problem.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header:
            raise ValueError(f"{path}: empty dataset file")
        meta = fields.read(fields.load(header, path, 1), "meta", dict, f"{path}: line 1: header")
        where = f"{path}: line 1: meta header"
        gen = fields.read(meta, "trueGenerator", dict, where, None)
        if gen is not None:
            gen = Generator.from_json_dict(gen, f"{where} trueGenerator")
        task = fields.read(meta, "task", str, where)
        n, out_dim, count = (fields.read(meta, key, int, where) for key in ("n", "outDim", "nSamples"))
        attrs = dict(
            task=task,
            noise_sigma=fields.read(meta, "noiseSigma", float, where),
            seed=fields.read(meta, "seed", int, where),
            true_generator=gen,
            true_rates=fields.read(meta, "trueLambda", fields.Array(1), where, None),
            output_kind=fields.read(meta, "outputKind", ("regression", "binary"), where, "regression"),
        )
        if gen is not None and gen.n != n:
            raise ValueError(f"{where} trueGenerator has n={gen.n}, the header has n={n}")
        try:
            check_noise_sigma(attrs["noise_sigma"])
        except ValueError as exc:
            raise ValueError(f"{where} noiseSigma: {exc}") from None
        if count * 2 * (n + out_dim + 1) > os.fstat(fh.fileno()).st_size:
            raise ValueError(f"{path}: line 1: meta header nSamples={count} is more rows than the file has")
        tasks = [(*span, n, out_dim) for span in _line_spans(fh)]
    x = np.empty((count, n))
    y = np.empty((count, out_dim))
    row, workers = 0, pool.worker_count(len(tasks))
    with closing(pool.run_in_order(_parse_rows, path, tasks, workers)) as chunks:
        for values in chunks:
            if values is None or row + len(values) > count or not np.isfinite(values).all():
                row = None  # read the whole file again, one line at a time
                break
            x[row : row + len(values)] = values[:, :n]
            y[row : row + len(values)] = values[:, n:]
            row += len(values)
    if row != count:
        _read_lines(path, x, y)
    try:
        return Dataset(x, y, **attrs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _line_spans(fh):
    """(start, stop) of the byte ranges from `fh`'s position to its end,
    each about LOAD_CHUNK_BYTES long and ending after a line feed (or at
    the end of the file)."""
    start, end = fh.tell(), os.fstat(fh.fileno()).st_size
    while start < end:
        fh.seek(min(start + LOAD_CHUNK_BYTES, end) - 1)
        fh.readline()
        yield start, fh.tell()
        start = fh.tell()


def _parse_rows(path, start, stop, n, out_dim):
    """The sample lines in bytes start..stop-1 of `path` as one (rows,
    n + out_dim) array, or None unless they are laid out exactly as
    save_dataset writes them and every number converts.

    The structure is checked with the numbers deleted, then taken out, and
    all the numbers are parsed with one `json.loads` as one list: json's
    scanner checks and converts each number as it would on its own line.
    """
    with open(path, "rb") as fh:
        fh.seek(start)
        block = fh.read(stop - start)
    rows = block.count(b"\n")
    skeleton = _row_template(n, out_dim).replace("%r", "").encode()
    if not rows or block.translate(None, _NUMBER_BYTES) != skeleton * rows:
        return None
    # what lies between the first '{"x": [' and the last ']}\n', with the
    # structure between them replaced; anything but numbers and ", " left
    # over means a number stood inside the structure
    numbers = block.replace(b']}\n{"x": [', b", ").replace(b'], "y": [', b", ")[7:-3]
    if numbers.translate(None, _NUMBER_BYTES) != b", " * (rows * (n + out_dim) - 1):
        return None
    try:
        values = np.array(json.loads("[%s]" % numbers.decode()), dtype=np.float64)
    except (ValueError, OverflowError):
        return None
    return values.reshape(rows, n + out_dim)


def _read_lines(path, x, y):
    """Parse the sample lines of `path` into x and y, one `json.loads` a
    line, raising ValueError at the first problem in file order.

    Lines end at a line feed; a carriage return before one is whitespace,
    and lines of ASCII whitespace are skipped. Every x and y value must be
    a JSON int or float. A line beyond the header's
    row count is reported as one more sample, however it reads.
    """
    (count, n), out_dim = x.shape, y.shape[1]
    row = 0
    with open(path, "rb") as fh:
        fh.readline()
        for lineno, raw in enumerate(fh, start=2):
            if raw.isspace():
                continue
            if row == count:
                rows = count + 1 + sum(not rest.isspace() for rest in fh)
                raise ValueError(f"{path}: {rows} samples, meta header declares nSamples={count}")
            obj = fields.load(raw.removesuffix(b"\n"), path, lineno)
            xs, ys = (fields.read(obj, key, list, f"{path}: line {lineno}: sample") for key in "xy")
            if len(xs) != n or len(ys) != out_dim:
                raise ValueError(
                    f"{path}: samples have {len(xs)} inputs and {len(ys)} outputs, "
                    f"meta declares n={n} and out_dim={out_dim} (line {lineno})"
                )
            for value in xs + ys:
                if type(value) not in (int, float):  # a bool is no number
                    raise ValueError(f"{path}: line {lineno}: sample value {value!r} is not a number")
            try:
                x[row], y[row] = xs, ys
            except OverflowError as exc:  # an int too large for a float
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, x[row].tolist() + y[row].tolist())):
                raise ValueError(f"{path}: line {lineno}: non-finite value in x or y")
            row += 1
    if row != count:
        raise ValueError(f"{path}: {row} samples, meta header declares nSamples={count}")
