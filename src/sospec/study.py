"""Seed study: how often training recovers the generator, over many seeds.

A family is a task and a training configuration for each of its seeds. The
study trains every (family, seed) run, fanned out through
`pool.run_in_order`, and writes per family the recovery rate (|cos| with
the true generator above HIT_COS), the median |cos|, the mean seconds a
run, and how often `lambdaReliable` is true on hits and on misses, which
gives the reliability flag's precision and recall. On a family whose data
has no unique one-parameter symmetry (generic rates: a 2-torus of them) no
reliable claim is right, whatever its |cos|.
"""

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import pool
from .data import double_pendulum_task, make_random_generator, synth_invariant_regression
from .lie import CanonicalForm, retract_orthogonal
from .train import TrainConfig, train

# A run recovers the generator when its |cos| with the true one exceeds this.
HIT_COS = 0.99


def rotated_4d_config(seed):
    """Task config for the randomly-aligned 4-d problem: a stronger penalty
    and two committed restart pairs per alignment parity, so the run
    explores both frequency-ray hypotheses and validation picks the one
    with an exact continuation. 60 epochs; each run stays well under the
    5-minute budget."""
    return TrainConfig(seed=seed, bandwidth=1, epochs=60, mu_init=0.4, restarts=4)


def rotated_4d_task(seed):
    """Acceptance criterion 2's data: a random frame, rates (1,-1)/sqrt(2),
    8 000 rows at sigma 0.1."""
    rng = np.random.default_rng(100 + seed)
    cf = CanonicalForm(
        retract_orthogonal(rng.standard_normal((4, 4))),
        np.array([1.0, -1.0]) / np.sqrt(2.0),
    )
    return synth_invariant_regression(cf, 8000, 0.1, seed=200 + seed, bandwidth=2)


def _random_4d_task(kind, data_seed, bandwidth):
    def task(seed):
        cf = make_random_generator(4, seed, kind)
        return synth_invariant_regression(cf, 8000, 0.1, data_seed + seed, bandwidth)

    return task


class Family(NamedTuple):
    task: object  # seed -> Dataset
    config: object  # seed -> TrainConfig
    seeds: range
    unique: bool  # whether the data has a unique one-parameter symmetry


FAMILIES = {
    "rotated4d": Family(rotated_4d_task, rotated_4d_config, range(1, 21), True),
    "pendulum6d": Family(
        lambda s: double_pendulum_task(32000, 0.1, 41 + s),
        lambda s: TrainConfig(seed=s, bandwidth=1),
        range(1, 11),
        True,
    ),
    "rational4d": Family(
        _random_4d_task("rational", 400, 2),
        lambda s: TrainConfig(seed=s, bandwidth=2),
        range(1, 11),
        True,
    ),
    "generic4d": Family(
        _random_4d_task("generic", 300, 1),
        lambda s: TrainConfig(seed=s, bandwidth=1),
        range(1, 11),
        False,
    ),
}


def run_row(overrides, name, seed):
    """One study run: train family `name` at `seed`, with `overrides`
    replacing fields of its TrainConfig; returns the run's row."""
    family = FAMILIES[name]
    _, report = train(family.task(seed), replace(family.config(seed), **overrides))
    cos = None if report.cosine_similarity is None else abs(report.cosine_similarity)
    return {
        "seed": seed,
        "cos": cos,
        "hit": cos is not None and cos > HIT_COS,
        "reliable": bool(report.rates_reliable),
        "nullity": report.nullity,
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


def run_study(names, seeds=None, overrides=None, progress=None):
    """The study document for the families `names`.

    Each family runs its own seeds, or `seeds` when given; `overrides` maps
    TrainConfig fields to values that replace every run's (a miniature
    study, say). The runs go through `pool.run_in_order` in
    `worker_count(runs)` processes, each training its restarts in-process.
    `progress`, if given, is called with (family name, row) in run order.
    """
    overrides = dict(overrides or {})
    tasks = [(name, s) for name in names for s in (seeds or FAMILIES[name].seeds)]
    rows = {name: [] for name in names}
    for (name, _), row in zip(
        tasks, pool.run_in_order(run_row, overrides, tasks, pool.worker_count(len(tasks)))
    ):
        if progress is not None:
            progress(name, row)
        rows[name].append(row)
    families = {name: summarize(FAMILIES[name], rows[name]) for name in names}
    return {
        "hitCos": HIT_COS,
        "overrides": overrides,
        "flagPrecision": flag_precision(families),
        "families": families,
    }


def flag_precision(families):
    """The reliability flag's precision over the summarized `families`
    (name -> figures): of all reliable claims, the share that are hits on a
    family with a unique subgroup."""
    claims = sum(f["reliableOnHits"] + f["reliableOnMisses"] for f in families.values())
    right = sum(
        f["reliableOnHits"] for name, f in families.items() if FAMILIES[name].unique
    )
    return _ratio(right, claims)
