"""Seed study: how often training recovers the generator, over many seeds.

A family is a task and a training configuration for each of its seeds, on
a fixed number of rows at a fixed noise. The study trains every (family,
seed) run, fanned out through `pool.run_in_order`, and writes per family
the recovery rate (|cos| with the true generator above HIT_COS), the
median |cos|, the mean seconds a run, and how often `lambdaReliable` is
true on hits and on misses, which gives the reliability flag's precision
and recall. On a family whose data has no unique one-parameter symmetry
(generic rates: a 2-torus of them) no reliable claim is right, whatever
its |cos|.

A study along an axis, noise or samples, runs every family at each of the
axis's values in place of its own noise or row count, and writes those
figures once per value: how recovery changes with the data.
"""

import math
import time
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import fields, pool
from .data import double_pendulum_task, make_random_generator, synth_invariant_regression
from .lie import CanonicalForm, retract_orthogonal
from .train import RunReport, TrainConfig, train

# A run recovers the generator when its |cos| with the true one exceeds this.
HIT_COS = 0.99

# The values an axis takes when none are given.
NOISE_VALUES = [round(0.1 * k, 1) for k in range(1, 11)]
SAMPLE_VALUES = [8000, 16000, 32000, 64000]


def rotated_4d_config(seed):
    """Task config for the randomly-aligned 4-d problem: a stronger penalty
    and two committed restart pairs per alignment parity, so the run
    explores both frequency-ray hypotheses and validation picks the one
    with an exact continuation. 60 epochs; each run stays well under the
    5-minute budget."""
    return TrainConfig(seed=seed, bandwidth=1, epochs=60, mu_init=0.4, restarts=4)


def rotated_4d_task(seed, n_samples=8000, sigma=0.1):
    """Acceptance criterion 2's data: a random frame, rates (1,-1)/sqrt(2),
    8 000 rows at sigma 0.1 unless given."""
    rng = np.random.default_rng(100 + seed)
    cf = CanonicalForm(
        retract_orthogonal(rng.standard_normal((4, 4))),
        np.array([1.0, -1.0]) / np.sqrt(2.0),
    )
    return synth_invariant_regression(cf, n_samples, sigma, seed=200 + seed, bandwidth=2)


def _random_4d_task(kind, data_seed, bandwidth):
    def task(seed, n_samples, sigma):
        cf = make_random_generator(4, seed, kind)
        return synth_invariant_regression(cf, n_samples, sigma, data_seed + seed, bandwidth)

    return task


class Family(NamedTuple):
    task: object  # (seed, n_samples, sigma) -> Dataset
    config: object  # seed -> TrainConfig
    seeds: range
    unique: bool  # whether the data has a unique one-parameter symmetry
    n_samples: int  # rows, and noise sigma, of a run not on an axis
    sigma: float


FAMILIES = {
    "rotated4d": Family(rotated_4d_task, rotated_4d_config, range(1, 21), True, 8000, 0.1),
    "pendulum6d": Family(
        lambda s, n_samples, sigma: double_pendulum_task(n_samples, sigma, 41 + s),
        lambda s: TrainConfig(seed=s, bandwidth=1),
        range(1, 11),
        True,
        32000,
        0.1,
    ),
    "rational4d": Family(
        _random_4d_task("rational", 400, 2),
        lambda s: TrainConfig(seed=s, bandwidth=2),
        range(1, 11),
        True,
        8000,
        0.1,
    ),
    "generic4d": Family(
        _random_4d_task("generic", 300, 1),
        lambda s: TrainConfig(seed=s, bandwidth=1),
        range(1, 11),
        False,
        8000,
        0.1,
    ),
}


def check_values(axis, values):
    """The values a study along `axis` runs at: `values`, or the axis's
    defaults when it is empty, as noise sigmas (floats) or row counts
    (ints). Raises ValueError on an axis other than noise or samples, and
    names the first value that is not finite and positive, that is a row
    count with a fraction or one no dataset header holds (2^63 or more), or
    that repeats an earlier one: the runs at one value are summarized
    together."""
    if axis not in ("noise", "samples"):
        raise ValueError(f"axis must be noise or samples, got {axis!r}")
    values = list(values) or (NOISE_VALUES if axis == "noise" else SAMPLE_VALUES)
    for i, value in enumerate(values):
        if not 0 < value < math.inf:  # NaN fails every comparison
            raise ValueError(f"{axis} values must be finite and positive, got {value!r}")
        if axis == "samples":
            if value != int(value):
                raise ValueError(f"samples values must be whole row counts, got {value!r}")
            fields.check(int(value), int, f"samples value {value!r}")  # as a header's nSamples
        if value in values[:i]:
            raise ValueError(f"{axis} values must be distinct, got {value!r} twice")
    return [float(v) if axis == "noise" else int(v) for v in values]


def run_row(overrides, name, seed, axis=None, value=None):
    """One study run: train family `name` at `seed`, with `overrides`
    replacing fields of its TrainConfig and, given an `axis`, its `value`
    in place of the family's sigma or n_samples; returns the run's row. A
    run that raises gives a row that names the exception, so the other
    runs carry on."""
    family = FAMILIES[name]
    n_samples = value if axis == "samples" else family.n_samples
    sigma = value if axis == "noise" else family.sigma
    start = time.perf_counter()
    try:
        dataset = family.task(seed, n_samples, sigma)
        _, report = train(dataset, replace(family.config(seed), **overrides))
    except Exception as exc:  # recorded in the row
        seconds, reason = time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        report = RunReport(name, seed, {}, wall_clock=seconds, failure_reason=reason)
    cos = None if report.cosine_similarity is None else abs(report.cosine_similarity)
    return {
        "seed": seed,
        "cos": cos,
        "hit": cos is not None and cos > HIT_COS,
        "reliable": bool(report.lambda_reliable),
        "nullity": report.nullity,
        "testMse": report.test_mse,
        "seconds": report.wall_clock,
        "failureReason": report.failure_reason,
    }


def _ratio(num, den):
    return None if den == 0 else num / den


def summarize(family, rows):
    """A family's figures from its rows."""
    hits = [row for row in rows if row["hit"]]
    claims = [row for row in rows if row["reliable"]]
    right = [row for row in claims if row["hit"]] if family.unique else []
    cosines = [row["cos"] for row in rows if row["cos"] is not None]
    return {
        "uniqueSubgroup": family.unique,
        "runs": len(rows),
        "hits": len(hits),
        "recoveryRate": len(hits) / len(rows),
        "medianCos": float(np.median(cosines)) if cosines else None,
        "secondsPerRun": float(np.mean([row["seconds"] for row in rows])),
        "reliableOnHits": sum(row["reliable"] for row in hits),
        "reliableOnMisses": len(claims) - sum(row["reliable"] for row in hits),
        "flagPrecision": _ratio(len(right), len(claims)),
        "flagRecall": _ratio(len(right), len(hits)) if family.unique else None,
        "rows": rows,
    }


def run_study(names, seeds=None, overrides=None, axis=None, values=(), progress=None):
    """The study document for the families `names`.

    Each family runs its own seeds, or `seeds` when given; `overrides` maps
    TrainConfig fields to values that replace every run's (a miniature
    study, say). With an `axis`, "noise" or "samples", every run is made
    at each of `check_values(axis, values)` in place of the family's own
    sigma or n_samples, and the document holds one set of figures per
    value under "points". All runs go through one `pool.run_in_order` in
    `worker_count(runs)` processes, each training its restarts in-process.
    `progress`, if given, is called with (value, family name, row) in run
    order, the value None without an axis.
    """
    overrides = dict(overrides or {})
    points = [None] if axis is None else check_values(axis, values)
    tasks = [
        (name, seed, axis, value)
        for value in points
        for name in names
        for seed in (seeds or FAMILIES[name].seeds)
    ]
    rows = {(value, name): [] for value in points for name in names}
    runs = pool.run_in_order(run_row, overrides, tasks, pool.worker_count(len(tasks)))
    for (name, _, _, value), row in zip(tasks, runs):
        if progress is not None:
            progress(value, name, row)
        rows[value, name].append(row)

    def figures(value):
        families = {name: summarize(FAMILIES[name], rows[value, name]) for name in names}
        return {"flagPrecision": flag_precision(families), "families": families}

    doc = {"hitCos": HIT_COS, "overrides": overrides}
    if axis is None:
        return {**doc, **figures(None)}
    return {**doc, "axis": axis, "points": [{"value": v, **figures(v)} for v in points]}


def flag_precision(families):
    """The reliability flag's precision over the summarized `families`
    (name -> figures): of all reliable claims, the share that are hits on a
    family with a unique subgroup."""
    claims = sum(f["reliableOnHits"] + f["reliableOnMisses"] for f in families.values())
    right = sum(
        f["reliableOnHits"] for name, f in families.items() if FAMILIES[name].unique
    )
    return _ratio(right, claims)
