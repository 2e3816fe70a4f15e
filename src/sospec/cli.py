"""Command-line surface: gen-data, train, eval, sweep, report.

All randomness flows from --seed. Flags override values from --config
(flat `key = value` text); every effective knob is echoed into the run
report. Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import model
from .data import (
    double_pendulum_task,
    load_dataset,
    make_random_generator,
    save_dataset,
    synth_invariant_classification,
    synth_invariant_regression,
)
from .lie import CanonicalForm, retract_orthogonal
from .sweep import SweepSpec, run_sweep, write_sweep_outputs
from .train import RunReport, TrainConfig, evaluate_params, train

TASKS = ("pendulum6d", "synth", "synth-cls")

# TrainConfig fields settable via config file or flags, with the plain
# type (int, float or str) that parses each from text.
_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


class CliError(Exception):
    """Validation problem; maps to exit code 1."""


def _parse_config_file(path):
    values = {}
    p = Path(path)
    if not p.exists():
        raise CliError(f"config file not found: {path}")
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _CONFIG_FIELDS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = raw
    return values


def build_train_config(args):
    """Defaults < config file < explicit flags, all validated by TrainConfig."""
    values = {}
    if getattr(args, "config", None):
        for key, raw in _parse_config_file(args.config).items():
            values[key] = _CONFIG_FIELDS[key](raw)
    for key in _CONFIG_FIELDS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    try:
        return TrainConfig(**values)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid configuration: {exc}") from exc


def _add_train_flags(sub):
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--lr", type=float)
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--mu", dest="mu_init", type=float)
    sub.add_argument("--mu-max-scale", dest="mu_max_scale", type=float)
    sub.add_argument("--warmup-epochs", dest="warmup_epochs", type=int)
    sub.add_argument("--bandwidth", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--loss", choices=("auto", "squared-error", "logistic"))
    sub.add_argument("--hidden", type=int)
    sub.add_argument("--rel-threshold", dest="rel_threshold", type=float)
    sub.add_argument("--mu-ramp", dest="mu_ramp", choices=("linear", "constant"))
    sub.add_argument("--restarts", type=int)


def _require_file(path, what):
    if not Path(path).exists():
        raise CliError(f"{what} not found: {path}")
    return path


def _write_json(path, doc):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _parse_rates(raw):
    try:
        rates = np.asarray([float(v) for v in raw.split(",")], dtype=np.float64)
    except ValueError as exc:
        raise CliError(f"bad --rates {raw!r}: {exc}") from exc
    if rates.size == 0 or not np.any(rates):
        raise CliError("--rates must contain a nonzero vector")
    return rates / np.linalg.norm(rates)


def cmd_gen_data(args):
    if args.task == "pendulum6d":
        if args.n not in (None, 6):
            raise CliError("pendulum6d is a 6-dimensional task")
        ds = double_pendulum_task(args.n_samples, args.sigma, args.seed)
    else:
        n = args.n if args.n is not None else 4
        if n % 2 != 0:
            raise CliError(f"ambient dimension must be even, got {n}")
        if args.rates is not None:
            rng = np.random.default_rng(np.random.SeedSequence([args.seed, 7]))
            cf = CanonicalForm(
                retract_orthogonal(rng.standard_normal((n, n))), _parse_rates(args.rates)
            )
        else:
            cf = make_random_generator(n, args.seed, kind=args.generator)
        maker = (
            synth_invariant_classification if args.task == "synth-cls" else synth_invariant_regression
        )
        ds = maker(cf, args.n_samples, args.sigma, args.seed, bandwidth=args.gen_bandwidth)
    save_dataset(ds, args.out)
    print(f"gen-data: wrote {len(ds)} samples of task {ds.meta.task} (n={ds.meta.n}) to {args.out}")
    return 0


def cmd_train(args):
    cfg = build_train_config(args)
    ds = load_dataset(_require_file(args.data, "dataset"))
    params, report = train(ds, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = out_dir / "checkpoint.json"
    report_path = out_dir / "report.json"
    _write_json(report_path, report.to_json_dict())
    if report.failure_reason is not None:
        print(f"train: FAILED ({report.failure_reason}); diagnostic report at {report_path}")
        return 2
    model.save_checkpoint(params, checkpoint_path, config=report.config)
    headline = (
        f"acc={report.accuracy:.4f}" if report.accuracy is not None else f"mse={report.test_mse:.6f}"
    )
    cos = "n/a" if report.cosine_similarity is None else f"{report.cosine_similarity:+.5f}"
    print(f"train: {headline} cos={cos} best_epoch={report.best_epoch} -> {report_path}")
    return 0


def cmd_eval(args):
    params, saved_cfg = model.load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    ds = load_dataset(_require_file(args.data, "dataset"))
    cfg_fields = {k: v for k, v in saved_cfg.items() if k in _CONFIG_FIELDS}
    if not cfg_fields:
        raise CliError("checkpoint carries no training configuration")
    if (ds.meta.n, ds.meta.out_dim) != (params.n, params.out_dim):
        raise CliError(
            f"dataset {args.data} has n={ds.meta.n} and out_dim={ds.meta.out_dim}, "
            f"checkpoint {args.checkpoint} has n={params.n} and out_dim={params.out_dim}"
        )
    cfg = TrainConfig(**cfg_fields)
    report = RunReport(task=ds.meta.task, seed=cfg.seed, config=saved_cfg)
    evaluate_params(params, ds, cfg, report)
    _write_json(args.out, report.to_json_dict())
    headline = (
        f"acc={report.accuracy:.4f}" if report.accuracy is not None else f"mse={report.test_mse:.6f}"
    )
    print(f"eval: {headline} -> {args.out}")
    return 0


def cmd_sweep(args):
    base = build_train_config(args)
    spec = SweepSpec(
        axis=args.axis,
        values=[float(v) if args.axis == "noise" else int(float(v)) for v in args.values]
        if args.values
        else [],
        repeats=args.repeats,
        task=args.task if args.task != "synth-cls" else "synth",
        n=args.n if args.n is not None else 4,
        rates=tuple(_parse_rates(args.rates)) if args.rates else (1, -1),
        n_samples=args.n_samples,
        noise_sigma=args.sigma,
        base=base,
    )
    docs, agg = run_sweep(
        spec,
        jobs=args.jobs,
        progress=lambda doc: print(
            f"  run axis={doc['sweep']['value']} rep={doc['sweep']['repeat']}"
            + (f" FAILED: {doc['failureReason']}" if doc.get("failureReason") else ""),
            flush=True,
        ),
    )
    paths, agg_path, csv_path = write_sweep_outputs(args.out, docs, agg)
    print(f"sweep: {len(paths)} runs -> {agg_path} and {csv_path}")
    return 0


def _fmt_mean_std(values):
    vals = [v for v in values if v is not None]
    if not vals:
        return "n/a"
    if len(vals) == 1:
        return f"{vals[0]:.5f}"
    return f"{np.mean(vals):.5f} ± {np.std(vals, ddof=1):.5f}"


def cmd_report(args):
    root = Path(args.dir)
    if not root.is_dir():
        raise CliError(f"not a directory: {args.dir}")
    rows = {}
    for path in sorted(root.rglob("*report*.json")):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise CliError(f"unreadable report {path}: {exc}") from exc
        if doc.get("failureReason"):
            continue
        task = doc.get("task", "unknown")
        rows.setdefault(task, []).append(doc)
    if not rows:
        raise CliError(f"no run reports found under {args.dir}")
    summary = []
    lines = [
        "| Task | Runs | Test MSE | Accuracy | Inv. Error | |Cosine Sim.| |",
        "|---|---|---|---|---|---|",
    ]
    for task in sorted(rows):
        docs = rows[task]
        cos_vals = [abs(d["cosineSimilarity"]) for d in docs if d.get("cosineSimilarity") is not None]
        entry = {
            "task": task,
            "nRuns": len(docs),
            "testMse": _fmt_mean_std([d.get("testMse") for d in docs]),
            "accuracy": _fmt_mean_std([d.get("accuracy") for d in docs]),
            "invarianceError": _fmt_mean_std([d.get("invarianceError") for d in docs]),
            "cosineSimilarity": _fmt_mean_std(cos_vals),
        }
        summary.append(entry)
        lines.append(
            f"| {task} | {entry['nRuns']} | {entry['testMse']} | {entry['accuracy']} "
            f"| {entry['invarianceError']} | {entry['cosineSimilarity']} |"
        )
    md = "\n".join(lines) + "\n"
    out_md = root / "summary.md"
    out_json = root / "summary.json"
    out_md.write_text(md, encoding="utf-8")
    _write_json(out_json, {"tasks": summary})
    print(f"report: {sum(len(v) for v in rows.values())} runs over {len(rows)} tasks -> {out_md}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def build_parser():
    parser = _Parser(prog="sospec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a synthetic dataset")
    gen.add_argument("--task", choices=TASKS, required=True)
    gen.add_argument("--n", type=int, help="ambient dimension (synth tasks)")
    gen.add_argument("--n-samples", dest="n_samples", type=int, default=8000)
    gen.add_argument("--sigma", type=float, default=0.1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--rates", help="comma-separated true rates, e.g. '1,-1'")
    gen.add_argument(
        "--generator",
        choices=("mixed", "rational", "generic", "diagonal"),
        default="mixed",
        help="how to draw the true generator when --rates is not given",
    )
    gen.add_argument("--gen-bandwidth", dest="gen_bandwidth", type=int, default=2)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_data)

    tr = sub.add_parser("train", help="train and write checkpoint + report")
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True, help="output directory")
    _add_train_flags(tr)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="recompute metrics for a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_eval)

    sw = sub.add_parser("sweep", help="noise or sample sweep")
    sw.add_argument("--axis", choices=("noise", "samples"), required=True)
    sw.add_argument("--values", nargs="*", help="axis values (defaults per axis)")
    sw.add_argument("--repeats", type=int, default=3)
    sw.add_argument("--task", choices=("pendulum6d", "synth"), default="synth")
    sw.add_argument("--n", type=int)
    sw.add_argument("--rates")
    sw.add_argument("--n-samples", dest="n_samples", type=int, default=8000)
    sw.add_argument("--sigma", type=float, default=0.1)
    sw.add_argument("--jobs", type=int, default=1)
    sw.add_argument("--out", required=True, help="output directory")
    _add_train_flags(sw)
    sw.set_defaults(func=cmd_sweep)

    rp = sub.add_parser("report", help="consolidate run reports into a table")
    rp.add_argument("--dir", required=True)
    rp.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # unexpected: runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
