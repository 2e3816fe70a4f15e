"""The benchmark's workloads and the ledger that counts their operations.

Each workload has a set-up (each one imports `sospec` afresh), an optional
one-off training, and a round of operations. The runner sets up once,
trains once if the workload asks for it, then repeats `rounds_per_setup`
rounds and a further set-up for the run's length. Every program call is an
operation: it is attempted, it fails if it raises or reports a failure,
and its outputs go through the independent checks in `checks`. Inputs are
made from the workload seed only; the program receives nothing but those
inputs.
"""

import contextlib
import gc
import hashlib
import importlib
import json
import sys
import traceback
from time import perf_counter
from types import SimpleNamespace

import checks

PENDULUM_SAMPLES = 32000  # acceptance criterion 1
CLI_SAMPLES = 64000  # the largest sample count of the samples sweep
NOISE_SIGMA = 0.1


class OperationFailed(Exception):
    pass


def fresh_import():
    """Import sospec from scratch, dropping any copy a previous set-up loaded."""
    for name in [n for n in sys.modules if n == "sospec" or n.startswith("sospec.")]:
        del sys.modules[name]
    importlib.import_module("sospec.cli")
    mods = {n: sys.modules[f"sospec.{n}"] for n in ("cli", "data", "model", "train")}
    return SimpleNamespace(**mods)


class Ledger:
    """Counts operations, records check failures and keeps tracing and
    garbage-collector counting off while the benchmark checks outputs."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, label, fn):
        """Run one program operation; returns (result, seconds), or
        (None, None) when it fails. The garbage of earlier operations is
        collected first, as it would be gone in a fresh process."""
        self.attempted += 1
        with self.recorder.paused():
            gc.collect()
        start = perf_counter()
        try:
            result = fn()
        except Exception:  # any error of the program is a failed operation
            self.failed += 1
            print(f"perfbench: operation {label} failed", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None, None
        return result, perf_counter() - start

    def check(self, label, fn):
        with self.recorder.paused():
            try:
                problems = fn()
            except Exception as exc:  # an output the check cannot read is wrong
                problems = [f"{type(exc).__name__}: {exc}"]
        for problem in problems:
            self.problems.append(f"{label}: {problem}")
            print(f"perfbench: check {label} failed: {problem}", file=sys.stderr)
        return not problems


def run_cli(sospec, argv):
    """`sospec <argv>` in-process; the program's own output goes to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        code = sospec.cli.main([str(a) for a in argv])
    if code != 0:
        raise OperationFailed(f"sospec {argv[0]} exited with {code}")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """Subclasses set `name` and `rounds_per_setup` and implement `setup`,
    `round` and, if `trains_once`, `train_once`; each returns
    {metric name: [seconds, ...]} for the operations it times."""

    trains_once = False

    def __init__(self, seed, work_dir, ledger):
        self.seed = seed
        self.work = work_dir
        self.ledger = ledger
        self.data_path = work_dir / "data.jsonl"
        self.sospec = None
        self.passed_digest = None
        self.x = self.y = None  # the dataset file as the benchmark parsed it

    def file_mb(self):
        return self.data_path.stat().st_size / 1e6

    def eval_op(self, checkpoint_path, train_report, out_path):
        """`sospec eval` of a checkpoint, checked against its train report
        and the benchmark's own forward pass."""
        argv = ["eval", "--checkpoint", checkpoint_path, "--data", self.data_path, "--out", out_path]
        _, seconds = self.ledger.op("eval", lambda: run_cli(self.sospec, argv))
        if seconds is None:
            return None

        def run():
            report, ckpt = read_json(out_path), read_json(checkpoint_path)
            seed = ckpt["config"]["seed"]
            return checks.check_eval_matches_train(train_report, report) + checks.check_test_mse(
                ckpt, self.x, self.y, seed, report
            )

        self.ledger.check("eval", run)
        return seconds

    def check_dataset_file(self, reference):
        """The file parsed with plain json equals the reference dataset bit
        for bit, and its targets are the documented pendulum target plus
        noise of the declared scale. A file with the same bytes as one that
        passed is only compared by digest."""
        with self.ledger.recorder.paused():
            digest = hashlib.sha256(self.data_path.read_bytes()).digest()
        if digest == self.passed_digest:
            return

        def run():
            meta, x, y = checks.read_jsonl(self.data_path)
            self.x, self.y = x, y
            problems = checks.check_same_data(x, y, reference.x, reference.y)
            if meta["noiseSigma"] != NOISE_SIGMA or meta["nSamples"] != len(x):
                problems.append(f"meta header {meta} does not describe the data")
            return problems + checks.check_pendulum_noise(x, y, NOISE_SIGMA)

        if self.ledger.check("dataset-file", run):
            self.passed_digest = digest


class Pendulum6d(Workload):
    """Acceptance criterion 1: double_pendulum_task(32000, 0.1, seed=41+s)
    trained with TrainConfig(seed=s, bandwidth=1); s=1 is the acceptance run.
    Set-up generates and saves the dataset and loads it back the way
    `sospec train --data` would. The one-off training is a full `train()`;
    a round then runs `sospec eval` of its checkpoint and regenerates the
    dataset file."""

    name = "pendulum6d"
    trains_once = True
    rounds_per_setup = 2

    def generate(self):
        s = self.sospec

        def run():
            ds = s.data.double_pendulum_task(PENDULUM_SAMPLES, NOISE_SIGMA, 41 + self.seed)
            s.data.save_dataset(ds, self.data_path)
            return ds

        ds, seconds = self.ledger.op("gen-data", run)
        if ds is not None:
            self.check_dataset_file(ds)
        return ds, seconds

    def setup(self):
        ds, gen_s = self.generate()
        if ds is None:
            raise OperationFailed("dataset generation failed")
        self.dataset, load_s = self.ledger.op(
            "load", lambda: self.sospec.data.load_dataset(self.data_path)
        )
        if self.dataset is None:
            raise OperationFailed("dataset load failed")
        self.ledger.check(
            "load", lambda: checks.check_same_data(self.dataset.x, self.dataset.y, ds.x, ds.y)
        )
        return {"gen_data_s": [gen_s], "setup_ops_s": [gen_s + load_s]}

    def train_once(self):
        s = self.sospec
        cfg = s.train.TrainConfig(seed=self.seed, bandwidth=1)

        def train():
            params, report = s.train.train(self.dataset, cfg)
            if report.failure_reason is not None:
                raise OperationFailed(report.failure_reason)
            return params, report

        out, train_s = self.ledger.op("train", train)
        if out is None:
            raise OperationFailed("train failed")
        params, report = out
        self.checkpoint_path = self.work / "checkpoint.json"
        with self.ledger.recorder.paused():
            s.model.save_checkpoint(params, self.checkpoint_path, config=report.config)
            self.train_report = report.to_json_dict()
            with open(self.work / "report-train.json", "w", encoding="utf-8") as fh:
                json.dump(self.train_report, fh)
        self.ledger.check(
            "recovery",
            lambda: checks.check_recovery(
                read_json(self.checkpoint_path), self.train_report, checks.pendulum_generator()
            ),
        )
        return {"train_s": [train_s]}

    def round(self):
        eval_s = self.eval_op(self.checkpoint_path, self.train_report, self.work / "report-eval.json")
        gen_s = self.generate()[1]
        return {
            "eval_s": [] if eval_s is None else [eval_s],
            "gen_data_s": [] if gen_s is None else [gen_s],
        }


class CliEval(Workload):
    """The user path after training, through `sospec.cli.main`: set-up runs
    `gen-data` for 64 000 pendulum samples and trains a bandwidth-2
    checkpoint with a short `sospec train`; a round runs `gen-data` again
    (rewriting the same file) and `eval` of that checkpoint on it."""

    name = "cli-eval"
    rounds_per_setup = 2
    TRAIN_ARGS = ("--bandwidth", 2, "--epochs", 1, "--warmup-epochs", 1, "--restarts", 1,
                  "--batch-size", 1024)

    def gen_argv(self):
        return ["gen-data", "--task", "pendulum6d", "--n-samples", CLI_SAMPLES,
                "--sigma", NOISE_SIGMA, "--seed", self.seed, "--out", self.data_path]

    def setup(self):
        s = self.sospec
        _, gen_s = self.ledger.op("gen-data", lambda: run_cli(s, self.gen_argv()))
        if gen_s is None:
            raise OperationFailed("gen-data failed")
        with self.ledger.recorder.paused():
            self.reference = s.data.double_pendulum_task(CLI_SAMPLES, NOISE_SIGMA, self.seed)
        self.check_dataset_file(self.reference)
        run_dir = self.work / "run"
        argv = ["train", "--data", self.data_path, "--out", run_dir, "--seed", self.seed,
                *self.TRAIN_ARGS]
        _, train_s = self.ledger.op("train", lambda: run_cli(s, argv))
        if train_s is None:
            raise OperationFailed("train failed")
        self.checkpoint_path = run_dir / "checkpoint.json"
        self.train_report = read_json(run_dir / "report.json")
        return {"gen_data_s": [gen_s], "train_s": [train_s], "setup_ops_s": [gen_s + train_s]}

    def round(self):
        _, gen_s = self.ledger.op("gen-data", lambda: run_cli(self.sospec, self.gen_argv()))
        if gen_s is None:
            return {}
        self.check_dataset_file(self.reference)
        eval_s = self.eval_op(self.checkpoint_path, self.train_report, self.work / "report-eval.json")
        return {"gen_data_s": [gen_s], "eval_s": [] if eval_s is None else [eval_s]}


WORKLOADS = {w.name: w for w in (Pendulum6d, CliEval)}
