"""Command-line surface: gen-data, train, eval, report, study.

All randomness flows from --seed. Flags override values from --config
(flat `key = value` text); every effective knob is echoed into the run
report. Exit codes: 0 success, 1 validation error or a file that cannot
be read or written, 2 runtime failure.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import fields, model, study
from .data import (
    DATA_BANDWIDTH,
    double_pendulum_task,
    load_dataset,
    save_dataset,
    synth_generator,
    synth_invariant_classification,
    synth_invariant_regression,
)
from .lattice import primitive_set
from .train import RunReport, TrainConfig, check_trainable, evaluate_params, resolve_loss, train

TASKS = ("pendulum6d", "synth", "synth-cls")

# TrainConfig fields settable via config file or flags, with the plain type
# (int or float) that parses each from text and that a checkpoint holds.
_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_REPORT_METRICS = ("testMse", "accuracy", "invarianceError", "cosineSimilarity")


class CliError(Exception):
    """Validation problem; maps to exit code 1."""


def _parse_config_file(path):
    values = {}
    text = fields.text(Path(path).read_bytes(), path)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(f"{path}: line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _CONFIG_FIELDS:
            raise CliError(f"{path}: line {lineno}: unknown config key {key!r}")
        try:
            values[key] = _CONFIG_FIELDS[key](raw)
        except ValueError as exc:
            raise CliError(f"{path}: line {lineno}: bad value for {key}: {exc}") from exc
    return values


def build_train_config(args):
    """Defaults < config file < explicit flags, all validated by TrainConfig."""
    values = {}
    if getattr(args, "config", None):
        values.update(_parse_config_file(args.config))
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
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--mu", dest="mu_init", type=float)
    sub.add_argument("--warmup-epochs", dest="warmup_epochs", type=int)
    sub.add_argument("--bandwidth", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--restarts", type=int)


def _write_json(path, doc, indent=None):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    fields.write(path, [json.dumps(doc, indent=indent), "\n"])


def _headline(report):
    if report.accuracy is not None:
        return f"acc={report.accuracy:.4f}"
    return f"mse={report.test_mse:.6f}"


def _parse_rates(raw):
    try:
        rates = np.asarray([float(v) for v in raw.split(",")], dtype=np.float64)
    except ValueError as exc:
        raise CliError(f"bad --rates {raw!r}: {exc}") from exc
    # The task scales the rates to unit norm, which a norm that overflows to
    # inf would turn into zero rates.
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(rates)
    if not 0.0 < norm < np.inf:  # NaN fails every comparison
        raise CliError(f"bad --rates {raw!r}: need a nonzero vector of finite norm")
    return rates


def _ambient_dimension(n):
    """--n of a synth task, 4 when not given; even and at least 2."""
    if n is not None and (n < 2 or n % 2):
        rule = "even" if n % 2 else "at least 2"
        raise CliError(f"ambient dimension must be {rule}, got {n} from --n")
    return 4 if n is None else n


def _reject_synth_flags(args):
    """pendulum6d has fixed rates in 6 dimensions, so --n other than 6 or a
    synth-only flag given with it is an error rather than ignored."""
    if args.task != "pendulum6d":
        return
    if args.n not in (None, 6):
        raise CliError(f"pendulum6d is a 6-dimensional task, got --n {args.n}")
    for dest in ("rates", "generator", "gen_bandwidth"):
        if getattr(args, dest) is not None:
            flag = "--" + dest.replace("_", "-")
            raise CliError(f"{flag} applies to synth tasks only, not to pendulum6d")


def cmd_gen_data(args):
    _reject_synth_flags(args)
    fields.check(args.seed, int, "--seed")  # as train reads the file's header back
    # A synth target is scaled by its standard deviation over the sample,
    # which one sample leaves at zero.
    least = 1 if args.task == "pendulum6d" else 2
    if args.n_samples < least:
        raise CliError(
            f"--n-samples must be at least {least} for task {args.task}, got {args.n_samples}"
        )
    fields.check(args.n_samples, int, f"--n-samples {args.n_samples}")  # as train reads nSamples
    if not 0 <= args.sigma < np.inf:  # NaN fails every comparison
        raise CliError(f"--sigma must be finite and nonnegative, got {args.sigma}")
    if args.task == "pendulum6d":
        ds = double_pendulum_task(args.n_samples, args.sigma, args.seed)
    else:
        n = _ambient_dimension(args.n)
        rates = None if args.rates is None else _parse_rates(args.rates)
        bandwidth = DATA_BANDWIDTH if args.gen_bandwidth is None else args.gen_bandwidth
        if bandwidth < 1:
            raise CliError(f"--gen-bandwidth must be at least 1, got {bandwidth}")
        primitive_set(bandwidth, n // 2)  # rejects a box too large before the frame is drawn
        cf = synth_generator(n, args.seed, rates, args.generator or "mixed")
        maker = (
            synth_invariant_classification if args.task == "synth-cls" else synth_invariant_regression
        )
        ds = maker(cf, args.n_samples, args.sigma, args.seed, bandwidth=bandwidth)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, args.out)
    print(f"gen-data: wrote {len(ds)} samples of task {ds.task} (n={ds.x.shape[1]}) to {args.out}")
    return 0


def cmd_train(args):
    cfg = build_train_config(args)
    ds = load_dataset(args.data)
    # a run rejected here leaves no directory, and an --out that cannot be
    # made costs no training
    check_trainable(ds, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    params, report = train(ds, cfg)
    checkpoint_path = out_dir / "checkpoint.json"
    report_path = out_dir / "report.json"
    _write_json(report_path, report.to_json_dict())
    if report.failure_reason is not None:
        print(f"train: FAILED ({report.failure_reason}); diagnostic report at {report_path}")
        return 2
    model.save_checkpoint(params, checkpoint_path, config=report.config)
    cos = "n/a" if report.cosine_similarity is None else f"{report.cosine_similarity:+.5f}"
    print(f"train: {_headline(report)} cos={cos} best_epoch={report.best_epoch} -> {report_path}")
    return 0


def cmd_eval(args):
    params, saved_cfg = model.load_checkpoint(args.checkpoint)
    ds = load_dataset(args.data)
    # Ignores resolvedLoss and the settings older checkpoints carry that are now fixed.
    where = f"{args.checkpoint}: checkpoint config"
    cfg = TrainConfig(**{k: fields.read(saved_cfg, k, t, where) for k, t in _CONFIG_FIELDS.items()})
    if (ds.x.shape[1], ds.y.shape[1]) != (params.n, params.out_dim):
        raise CliError(
            f"dataset {args.data} has n={ds.x.shape[1]} and out_dim={ds.y.shape[1]}, "
            f"checkpoint {args.checkpoint} has n={params.n} and out_dim={params.out_dim}"
        )
    if params.loss_kind != resolve_loss(ds):
        raise CliError(
            f"dataset {args.data} needs the {resolve_loss(ds)} loss, "
            f"checkpoint {args.checkpoint} was trained with the {params.loss_kind} loss"
        )
    report = RunReport(task=ds.task, seed=cfg.seed, config=saved_cfg)
    evaluate_params(params, ds, cfg, report)
    _write_json(args.out, report.to_json_dict())
    print(f"eval: {_headline(report)} -> {args.out}")
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
        doc = fields.load(path.read_bytes(), path)
        where = f"{path}: report"
        if fields.read(doc, "failureReason", str, where, None):
            continue
        row = {key: fields.read(doc, key, float, where, None) for key in _REPORT_METRICS}
        row["cosineSimilarity"] = row["cosineSimilarity"] and abs(row["cosineSimilarity"])
        rows.setdefault(fields.read(doc, "task", str, where, "unknown"), []).append(row)
    if not rows:
        raise CliError(f"no run reports found under {args.dir}")
    summary = []
    lines = [
        "| Task | Runs | Test MSE | Accuracy | Inv. Error | |Cosine Sim.| |",
        "|---|---|---|---|---|---|",
    ]
    for task in sorted(rows):
        docs = rows[task]
        entry = {"task": task, "nRuns": len(docs)}
        entry.update({key: _fmt_mean_std([d[key] for d in docs]) for key in _REPORT_METRICS})
        summary.append(entry)
        lines.append(
            f"| {task} | {entry['nRuns']} | {entry['testMse']} | {entry['accuracy']} "
            f"| {entry['invarianceError']} | {entry['cosineSimilarity']} |"
        )
    md = "\n".join(lines) + "\n"
    out_md = root / "summary.md"
    out_json = root / "summary.json"
    fields.write(out_md, [md])
    _write_json(out_json, {"tasks": summary})
    print(f"report: {sum(len(v) for v in rows.values())} runs over {len(rows)} tasks -> {out_md}")
    return 0


def cmd_study(args):
    if args.values is not None and args.axis is None:
        raise CliError("--values needs --axis")
    values = ()
    if args.axis is not None:
        try:
            values = study.check_values(args.axis, args.values or ())
        except ValueError as exc:
            raise CliError(f"bad --values: {exc}") from exc

    def at(value):
        return "" if value is None else f" at {args.axis}={value}"

    def progress(value, name, row):
        failed = f" FAILED: {row['failureReason']}" if row["failureReason"] else ""
        print(
            f"  {name}{at(value)} seed={row['seed']} |cos|={row['cos']} "
            f"reliable={row['reliable']}{failed}",
            flush=True,
        )

    names = list(dict.fromkeys(args.family or study.FAMILIES))
    doc = study.run_study(names, axis=args.axis, values=values, progress=progress)
    out = args.out or ("BENCH_seedstudy.json" if args.axis is None else f"study-{args.axis}.json")
    _write_json(out, doc, indent=1)  # a table to read and diff
    for point in doc.get("points", [doc]):
        for name, fam in point["families"].items():
            print(
                f"study: {name}{at(point.get('value'))} recovered {fam['hits']}/{fam['runs']}, "
                f"reliable on {fam['reliableOnHits']} hits and {fam['reliableOnMisses']} misses"
            )
        print(f"study: flag precision{at(point.get('value'))} {point['flagPrecision']}")
    print(f"study: wrote {out}")
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
        help="how to draw the true generator when --rates is not given (default mixed)",
    )
    gen.add_argument("--gen-bandwidth", dest="gen_bandwidth", type=int)
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

    rp = sub.add_parser("report", help="consolidate run reports into a table")
    rp.add_argument("--dir", required=True)
    rp.set_defaults(func=cmd_report)

    st = sub.add_parser("study", help="recovery rate and flag precision over many seeds")
    st.add_argument("--family", action="append", choices=list(study.FAMILIES))
    st.add_argument("--axis", choices=("noise", "samples"), help="run every family along this axis")
    st.add_argument("--values", nargs="+", type=float, help="axis values (defaults per axis)")
    st.add_argument(
        "--out", help="default BENCH_seedstudy.json, or study-<axis>.json with --axis"
    )
    st.set_defaults(func=cmd_study)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except Exception as exc:
        # an OSError that names no file, such as a fork that fails, is a runtime failure
        if isinstance(exc, (CliError, ValueError)) or isinstance(exc, OSError) and exc.filename:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
