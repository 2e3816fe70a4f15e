"""Noise and sample-size sweeps with seeded, independently repeatable runs."""

import csv
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    DATA_BANDWIDTH,
    check_noise_sigma,
    double_pendulum_task,
    synth_generator,
    synth_invariant_regression,
)
from .lattice import primitive_set
from .pool import run_in_order, worker_count
from .train import TrainConfig, train

NOISE_VALUES = [round(0.1 * k, 1) for k in range(1, 11)]
SAMPLE_VALUES = [8000, 16000, 32000, 64000]


@dataclass
class SweepSpec:
    axis: str  # noise | samples
    values: list = field(default_factory=list)
    repeats: int = 3
    task: str = "synth"  # synth | pendulum6d
    n: int = 4
    rates: tuple | None = (1, -1)  # synth only; None draws a random generator
    n_samples: int = 8000  # fixed size on the noise axis
    noise_sigma: float = 0.1  # fixed noise on the samples axis
    base: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.axis not in ("noise", "samples"):
            raise ValueError(f"axis must be noise or samples, got {self.axis!r}")
        if not self.values:
            self.values = list(NOISE_VALUES if self.axis == "noise" else SAMPLE_VALUES)
        check_values(self.values)
        check_noise_sigma(self.noise_sigma)
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if self.task not in ("synth", "pendulum6d"):
            raise ValueError(f"unknown sweep task {self.task!r}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")
        if self.task == "synth" and self.n % 2 != 0:
            raise ValueError(f"ambient dimension must be even, got {self.n}")
        if self.task == "synth" and self.rates is not None and len(self.rates) != self.n // 2:
            raise ValueError(f"need {self.n // 2} rates for n={self.n}, got {self.rates}")
        # raise ValueError on a bandwidth too large to enumerate, before any
        # cell runs: the model's, and the one synth data are built at
        primitive_set(self.base.bandwidth, 3 if self.task == "pendulum6d" else self.n // 2)
        if self.task == "synth":
            primitive_set(DATA_BANDWIDTH, self.n // 2)


def check_values(values):
    """Raise ValueError naming the first of `values` that is not finite and
    positive or that repeats an earlier one: each value's runs write report
    files named by the value, and `aggregate` groups runs by it."""
    for i, value in enumerate(values):
        if not 0 < value < math.inf:  # NaN fails every comparison
            raise ValueError(f"sweep values must be finite and positive, got {value!r}")
        if value in values[:i]:
            raise ValueError(f"sweep values must be distinct, got {value!r} twice")


def _make_dataset(spec, value, seed):
    if spec.axis == "noise":
        n_samples, sigma = spec.n_samples, float(value)
    else:
        n_samples, sigma = int(value), spec.noise_sigma
    if spec.task == "pendulum6d":
        return double_pendulum_task(n_samples, sigma, seed)
    cf = synth_generator(spec.n, seed, spec.rates, "rational")
    return synth_invariant_regression(cf, n_samples, sigma, seed)


def run_one(spec, value_index, repeat):
    """One seeded run of the sweep grid; returns the report JSON dict."""
    value = spec.values[value_index]
    seed = int(
        np.random.SeedSequence([spec.base.seed, value_index, repeat]).generate_state(1)[0]
        % 2**31
    )
    ds = _make_dataset(spec, value, seed)
    cfg = replace(spec.base, seed=seed)
    _, report = train(ds, cfg)
    doc = report.to_json_dict()
    doc["sweep"] = {"axis": spec.axis, "value": value, "repeat": repeat}
    return doc


def aggregate(spec, run_docs):
    """Mean and sample std of |cosine similarity| and loss per axis value.

    Failed runs are skipped; nRuns counts the survivors.
    """
    points = []
    for value in spec.values:
        cos_vals, loss_vals = [], []
        for doc in run_docs:
            if doc["sweep"]["value"] != value or doc.get("failureReason"):
                continue
            if doc.get("cosineSimilarity") is not None:
                cos_vals.append(abs(doc["cosineSimilarity"]))
            loss = doc.get("testMse")
            if loss is None:
                loss = doc.get("accuracy")
            if loss is not None:
                loss_vals.append(loss)

        def _mean_std(vals):
            if not vals:
                return None, None
            if len(vals) == 1:
                return float(vals[0]), 0.0
            return float(np.mean(vals)), float(np.std(vals, ddof=1))

        mean_cos, std_cos = _mean_std(cos_vals)
        mean_loss, std_loss = _mean_std(loss_vals)
        points.append(
            {
                "value": value,
                "meanCos": mean_cos,
                "stdCos": std_cos,
                "meanLoss": mean_loss,
                "stdLoss": std_loss,
                "nRuns": len(cos_vals),
            }
        )
    return {"axis": spec.axis, "points": points}


def _run_cell(spec, value_index, repeat):
    """`run_one`'s report dict, or a failure doc naming the exception it
    raised."""
    try:
        return run_one(spec, value_index, repeat)
    except Exception as exc:  # record, keep sweeping
        return {
            "sweep": {"axis": spec.axis, "value": spec.values[value_index], "repeat": repeat},
            "failureReason": f"{type(exc).__name__}: {exc}",
        }


def run_sweep(spec, progress=None):
    """All runs of the grid; returns (per-run report dicts, aggregate dict).

    The runs go through `pool.run_in_order` in `worker_count(runs)`
    processes. Pool workers are forked and held to one BLAS thread, and
    `train` in a pool worker trains its restarts in-process, so pools do
    not nest. With one process the runs go one after another here, and
    each `train` picks its own worker count. `progress`, if given, is
    called with each run's dict in grid order.
    """
    cells = [(i, rep) for i in range(len(spec.values)) for rep in range(spec.repeats)]
    docs = []
    for doc in run_in_order(_run_cell, spec, cells, worker_count(len(cells))):
        if progress is not None:
            progress(doc)
        docs.append(doc)
    return docs, aggregate(spec, docs)


def write_sweep_outputs(out_dir, docs, agg):
    """Per-run reports, one aggregate JSON, and a plot-ready CSV mirror."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for doc in docs:
        s = doc["sweep"]
        path = out / f"run_{s['axis']}_{s['value']}_{s['repeat']}.report.json"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        paths.append(path)
    agg_path = out / "aggregate.json"
    agg_path.write_text(json.dumps(agg) + "\n", encoding="utf-8")
    csv_path = out / "aggregate.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axisValue", "meanCos", "stdCos", "meanLoss", "stdLoss"])
        for p in agg["points"]:
            writer.writerow([p["value"], p["meanCos"], p["stdCos"], p["meanLoss"], p["stdLoss"]])
    return paths, agg_path, csv_path
