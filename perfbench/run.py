"""End-to-end and per-layer benchmark of sospec.

    python3 perfbench/run.py --workload pendulum6d --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. A run sets the workload up, runs its one-off training if it has
one, then repeats cycles of whole rounds of the workload's operations and
a further set-up until `--seconds` have passed (at least one round),
checks every output with the independent checks in `checks.py`, and
prints as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
ones; with `--trace 1` the program is wrapped by `tracing.py` and the
metrics are the per-layer ones. Work files, reports and traces go to
`perfbench/out/<workload>-seed<seed>[-trace]/`.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread per process: the kernels are small, and one thread keeps
# timings steady on a shared machine.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# End-to-end metric -> (unit, how a run summarises its samples). On a
# shared virtual machine a command's time can have two modes: on the one in
# the README, a fixed loop ran up to twice as slow for ten to twenty seconds
# at a time. The mean over the run moves in proportion to the share of it
# spent slow, where the median jumps from one mode to the other and the
# fastest sample depends on whether a rare fast stretch fell in the run.
# Set-up reports the median of its repeats.
END_TO_END = {
    "setup_s": ("s", statistics.median),
    "train_s": ("s", statistics.fmean),
    "gen_data_s": ("s", statistics.fmean),
    "eval_s": ("s", statistics.fmean),
    "peak_rss_mb": ("MB", max),
}


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def run(args, workload_cls, recorder, work):
    from workloads import Ledger, fresh_import

    ledger = Ledger(recorder)
    workload = workload_cls(args.seed, work, ledger)
    timings = {}

    def collect(stage_timings):
        for key, values in stage_timings.items():
            timings.setdefault(key, []).extend(values)

    def setup():
        index = len(timings.get("setup_s", ()))
        gc.collect()
        start = perf_counter()
        workload.sospec = fresh_import()
        import_s = perf_counter() - start
        recorder.install()
        recorder.begin("setup", index)
        stage = workload.setup()
        recorder.end()
        timings.setdefault("setup_s", []).append(import_s + sum(stage.pop("setup_ops_s")))
        collect(stage)

    # One set-up and the workload's one-off training, then cycles of
    # `rounds_per_setup` rounds and a further set-up for `--seconds`, so the
    # samples of every metric are spread over the whole measured window.
    setup()
    if workload.trains_once:
        recorder.begin("train", 0)
        collect(workload.train_once())
        recorder.end()
    round_s = []
    start = perf_counter()
    while True:
        for _ in range(workload.rounds_per_setup):
            recorder.begin("round", len(round_s))
            stage = workload.round()
            recorder.end()
            collect(stage)
            round_s.append(sum(sum(v) for v in stage.values()))
        if perf_counter() - start >= args.seconds:
            break
        setup()

    if args.trace:
        from tracing import layer_metrics

        layer = layer_metrics(recorder.tracer, recorder.gc, workload.file_mb(), statistics.median(round_s))
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        recorder.tracer.write(
            work / "trace.json",
            {"workload": args.workload, "seed": args.seed, "rounds": len(round_s)},
        )
    else:
        timings["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        missing = [k for k in END_TO_END if not timings.get(k)]
        if missing:
            ledger.problems.append(f"no successful operation measured {missing}")
        metrics = {
            k: {"value": summary(timings[k]), "unit": unit}
            for k, (unit, summary) in END_TO_END.items()
            if timings.get(k)
        }
    workload.data_path.unlink(missing_ok=True)  # the dataset is rebuilt by every run
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "samples": timings, "round_s": round_s}, fh)
    return result


def main(argv=None):
    if not (SRC / "sospec" / "__init__.py").is_file():
        print(f"perfbench: no sospec sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    from tracing import Recorder
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    work = OUT / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = run(args, WORKLOADS[args.workload], Recorder(bool(args.trace)), work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
