import dataclasses
import json
import os
import re
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import sospec.pool as pool_mod
import sospec.train as train_mod
from sospec import study
from sospec.cli import main as cli_main
from sospec.data import Dataset
from sospec.train import RunReport, TrainConfig, train

# A miniature of the study: two seeds, one epoch.
MINI = {"epochs": 1, "warmup_epochs": 1}

ROW_KEYS = {"seed", "cos", "hit", "reliable", "nullity", "testMse", "seconds", "failureReason"}
FAMILY_KEYS = {
    "uniqueSubgroup", "runs", "hits", "recoveryRate", "medianCos", "secondsPerRun",
    "reliableOnHits", "reliableOnMisses", "flagPrecision", "flagRecall", "rows",
}


def _row(seed, cos, reliable):
    return {"seed": seed, "cos": cos, "hit": cos > study.HIT_COS, "reliable": reliable,
            "nullity": 1 if reliable else 0, "testMse": 0.5, "seconds": 2.0,
            "failureReason": None}


def _stub_row(overrides, name, seed, axis=None, value=None):
    """A stand-in for `study.run_row` that trains nothing and names the
    family and axis value of its run."""
    return {"seed": seed, "cos": None, "hit": False, "reliable": False, "nullity": None,
            "testMse": None, "seconds": 0.0, "failureReason": f"{name} at {axis}={value}"}


def _varied_row(overrides, name, seed, axis=None, value=None):
    """A stand-in for `study.run_row` that trains nothing: a hit on every
    seed at noise 0.2 and only on seed 1 elsewhere, reliable but on seed 2."""
    cos = 0.999 if value == 0.2 or seed == 1 else 0.5
    return _row(seed, cos, reliable=seed != 2)


def _without_seconds(doc):
    """`doc` with every `seconds` and `secondsPerRun` dropped, at any depth."""
    if isinstance(doc, dict):
        return {k: _without_seconds(v) for k, v in doc.items()
                if k not in ("seconds", "secondsPerRun")}
    if isinstance(doc, list):
        return [_without_seconds(v) for v in doc]
    return doc


def _pools_fork():
    """Whether `pool.worker_count` can give a job more than one process."""
    return pool_mod._HAVE_FORK and pool_mod._blas_thread_calls() is not None


class TestStudy:
    def test_miniature_schema_and_a_row_is_a_direct_train(self):
        doc = study.run_study(["rotated4d", "generic4d"], seeds=(1, 2), overrides=MINI)
        assert set(doc) == {"hitCos", "overrides", "flagPrecision", "families"}
        assert doc["overrides"] == MINI
        assert list(doc["families"]) == ["rotated4d", "generic4d"]
        for fam in doc["families"].values():
            assert set(fam) == FAMILY_KEYS
            assert fam["runs"] == 2
            assert [row["seed"] for row in fam["rows"]] == [1, 2]
            assert all(set(row) == ROW_KEYS for row in fam["rows"])
        family = study.FAMILIES["rotated4d"]
        _, report = train(family.task(2), dataclasses.replace(family.config(2), **MINI))
        row = doc["families"]["rotated4d"]["rows"][1]
        assert row["cos"] == abs(report.cosine_similarity)
        assert row["reliable"] == report.lambda_reliable
        assert row["nullity"] == report.nullity
        assert row["testMse"] == report.test_mse
        assert row["failureReason"] is None

    def test_flag_precision_and_recall(self):
        rows = [_row(1, 0.999, True), _row(2, 0.999, False), _row(3, 0.5, True), _row(4, 0.5, False)]
        fam = study.summarize(study.FAMILIES["rotated4d"], rows)
        assert (fam["hits"], fam["recoveryRate"], fam["medianCos"]) == (2, 0.5, 0.7495)
        assert (fam["reliableOnHits"], fam["reliableOnMisses"]) == (1, 1)
        assert (fam["flagPrecision"], fam["flagRecall"]) == (0.5, 0.5)
        # Where the data has a 2-torus of symmetries every reliable claim is
        # false, hit or not.
        generic = study.summarize(study.FAMILIES["generic4d"], rows)
        assert (generic["flagPrecision"], generic["flagRecall"]) == (0.0, None)

    def test_rotated_config_is_the_acceptance_protocol(self):
        cfg = study.rotated_4d_config(3)
        assert (cfg.seed, cfg.bandwidth, cfg.epochs, cfg.mu_init, cfg.restarts) == (3, 1, 60, 0.4, 4)

    @pytest.mark.parametrize(
        "flags, found",
        [
            (("--family", "rotated"), "argument --family: invalid choice: 'rotated'"),
            (("--family", "pendulum"), "argument --family: invalid choice: 'pendulum'"),
            (("--axis", "depth"), "argument --axis: invalid choice: 'depth'"),
            (("--values", "0.1"), "--values needs --axis"),
            (("--axis", "noise", "--values", "0.1", "abc"),
             "argument --values: invalid float value: 'abc'"),
            (("--axis", "noise", "--values", "nan"),
             "bad --values: noise values must be finite and positive, got nan"),
            (("--axis", "noise", "--values", "0.1", "0.3", "0.1"),
             "bad --values: noise values must be distinct, got 0.1 twice"),
            (("--axis", "samples", "--values", "8000", "-5"),
             "bad --values: samples values must be finite and positive, got -5.0"),
            # a count with a fraction is an error, not rounded down to a count
            (("--axis", "samples", "--values", "8000.5"),
             "bad --values: samples values must be whole row counts, got 8000.5"),
            # a row count no dataset header can hold
            (("--axis", "samples", "--values", "8000", "1e19"),
             "bad --values: samples value 1e+19 is not a nonnegative integer below 2^63"),
        ],
    )
    def test_bad_flag_exits_one_naming_it(self, tmp_path, capsys, monkeypatch, flags, found):
        studies = []
        monkeypatch.setattr(study, "run_study", lambda *args, **kw: studies.append(args))
        out = tmp_path / "study.json"
        assert cli_main(["study", "--family", "generic4d", *flags, "--out", str(out)]) == 1
        assert f"error: {found}" in capsys.readouterr().err
        assert studies == [] and not out.exists()

    @pytest.mark.parametrize("values, expected", [
        ((), study.SAMPLE_VALUES),
        (("100", "2e2"), [100, 200]),
    ])
    def test_axis_study_writes_one_point_per_value(self, tmp_path, monkeypatch, capsys, values,
                                                   expected):
        monkeypatch.setattr(study, "run_row", _stub_row)
        monkeypatch.chdir(tmp_path)
        argv = ["study", "--family", "generic4d", "--axis", "samples"]
        assert cli_main([*argv, *(("--values", *values) if values else ())]) == 0
        assert os.listdir(tmp_path) == ["study-samples.json"]  # not the seed study's file
        doc = json.loads((tmp_path / "study-samples.json").read_text())
        assert [point["value"] for point in doc["points"]] == expected
        for point in doc["points"]:
            rows = point["families"]["generic4d"]["rows"]
            assert [row["failureReason"] for row in rows] == [
                f"generic4d at samples={point['value']}"] * 10
        out = capsys.readouterr().out
        assert f"study: generic4d at samples={expected[-1]} recovered 0/10" in out

    def test_sweep_is_no_command(self, tmp_path, capsys):
        # a sweep is a study along an axis
        out = tmp_path / "sweep"
        assert cli_main(["sweep", "--axis", "noise", "--out", str(out)]) == 1
        assert "invalid choice: 'sweep'" in capsys.readouterr().err
        assert not out.exists()

    def test_committed_figures_follow_from_their_rows(self):
        doc = json.loads((Path(__file__).parent.parent / "BENCH_seedstudy.json").read_text())
        assert (doc["hitCos"], doc["overrides"]) == (study.HIT_COS, {})
        assert list(doc["families"]) == list(study.FAMILIES)
        for name, fam in doc["families"].items():
            assert [row["seed"] for row in fam["rows"]] == list(study.FAMILIES[name].seeds)
            assert study.summarize(study.FAMILIES[name], fam["rows"]) == fam, name
        assert study.flag_precision(doc["families"]) == doc["flagPrecision"]


class TestAxis:
    def test_default_values(self):
        assert study.check_values("noise", ()) == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        assert study.check_values("samples", []) == [8000, 16000, 32000, 64000]
        counts = study.check_values("samples", [8000.0, 2e3])
        assert counts == [8000, 2000] and all(type(v) is int for v in counts)

    @pytest.mark.parametrize(
        "axis, values, found",
        [
            ("noise", [0.1, float("nan")], "noise values must be finite and positive, got nan"),
            ("noise", [float("inf")], "noise values must be finite and positive, got inf"),
            ("noise", [0.1, -0.2], "noise values must be finite and positive, got -0.2"),
            ("samples", [8000, 0], "samples values must be finite and positive, got 0"),
            ("noise", [0.1, 0.2, 0.1], "noise values must be distinct, got 0.1 twice"),
            ("samples", [8000, 8000.0], "samples values must be distinct, got 8000.0 twice"),
            ("samples", [8000.5], "samples values must be whole row counts, got 8000.5"),
            ("depth", [1.0], "axis must be noise or samples, got 'depth'"),
        ],
    )
    def test_values_that_name_no_distinct_run_are_rejected(self, monkeypatch, axis, values,
                                                           found):
        monkeypatch.setattr(study, "run_row", None)  # no run may start
        with pytest.raises(ValueError, match=re.escape(found)):
            study.run_study(["generic4d"], axis=axis, values=values)

    def test_an_axis_at_the_family_value_repeats_the_plain_study(self):
        plain = study.run_study(["generic4d"], seeds=(1,), overrides=MINI)
        curve = study.run_study(["generic4d"], seeds=(1,), overrides=MINI, axis="noise",
                                values=[0.1])
        assert list(curve) == ["hitCos", "overrides", "axis", "points"]
        assert (curve["axis"], [point["value"] for point in curve["points"]]) == ("noise", [0.1])
        assert plain["families"]["generic4d"]["rows"][0]["failureReason"] is None
        point = {k: v for k, v in curve["points"][0].items() if k != "value"}
        assert _without_seconds(point) == _without_seconds(
            {k: plain[k] for k in ("flagPrecision", "families")}
        )

    def test_progress_sees_each_run_in_grid_order(self, monkeypatch):
        monkeypatch.setattr(study, "run_row", _stub_row)
        seen = []
        doc = study.run_study(["rotated4d", "pendulum6d"], seeds=(1, 2), axis="samples",
                              values=[100, 200], progress=lambda *run: seen.append(run))
        assert [(value, name, row["seed"], row["failureReason"]) for value, name, row in seen] == [
            (value, name, seed, f"{name} at samples={value}")
            for value in (100, 200) for name in ("rotated4d", "pendulum6d") for seed in (1, 2)
        ]
        assert [row for point in doc["points"] for fam in point["families"].values()
                for row in fam["rows"]] == [row for _, _, row in seen]

    @pytest.mark.parametrize("axis, values, failing", [
        ("noise", [0.2, 0.4], (0.4, 8000)),
        ("samples", [2000, 3000], (0.1, 3000)),
    ])
    def test_a_run_that_raises_is_recorded_and_the_others_carry_on(self, monkeypatch, axis,
                                                                   values, failing):
        real_train = study.train

        def fails_at_the_second_value(ds, cfg):
            # (sigma, rows) of the runs at the second value
            if (ds.noise_sigma, len(ds)) == failing:
                raise RuntimeError("injected failure")
            return real_train(ds, cfg)

        monkeypatch.setattr(study, "train", fails_at_the_second_value)
        doc = study.run_study(["generic4d"], seeds=(1, 2), overrides=MINI, axis=axis,
                              values=values)
        ok, failed = (point["families"]["generic4d"] for point in doc["points"])
        assert [row["failureReason"] for row in ok["rows"]] == [None, None]
        assert all(row["cos"] is not None and row["testMse"] > 0 for row in ok["rows"])
        for row in failed["rows"]:
            assert row["failureReason"] == "RuntimeError: injected failure"
            assert (row["cos"], row["hit"], row["reliable"], row["nullity"], row["testMse"]) == (
                None, False, False, None, None)
            assert row["seconds"] >= 0.0
        assert (failed["runs"], failed["hits"], failed["medianCos"]) == (2, 0, None)

    def test_the_same_run_twice_gives_the_same_row(self):
        first, second = (study.run_row(MINI, "generic4d", 1, "noise", 0.3) for _ in range(2))
        assert first["failureReason"] is None and first["cos"] is not None
        assert _without_seconds(first) == _without_seconds(second)

    @pytest.mark.parametrize("axis, value, task_args", [
        (None, None, (1, 8000, 0.1)),
        ("noise", 0.4, (1, 8000, 0.4)),
        ("samples", 3000, (1, 3000, 0.1)),
    ])
    def test_an_axis_value_replaces_only_its_own_field(self, monkeypatch, axis, value,
                                                       task_args):
        asked = []

        def record_task(seed, n_samples, sigma):
            asked.append((seed, n_samples, sigma))
            raise RuntimeError("no data")

        family = study.FAMILIES["generic4d"]
        monkeypatch.setitem(study.FAMILIES, "generic4d", family._replace(task=record_task))
        row = study.run_row({}, "generic4d", 1, axis, value)
        assert asked == [task_args]
        assert row["failureReason"] == "RuntimeError: no data"

    def test_each_point_follows_from_its_rows(self, monkeypatch):
        monkeypatch.setattr(study, "run_row", _varied_row)
        doc = study.run_study(["rotated4d", "generic4d"], seeds=(1, 2, 3), axis="noise",
                              values=[0.2, 0.6])
        for point in doc["points"]:
            for name, fam in point["families"].items():
                assert study.summarize(study.FAMILIES[name], fam["rows"]) == fam
            assert study.flag_precision(point["families"]) == point["flagPrecision"]
        rates = [point["families"]["rotated4d"]["recoveryRate"] for point in doc["points"]]
        assert rates == [1.0, pytest.approx(1 / 3)]
        assert [point["flagPrecision"] for point in doc["points"]] == [0.5, 0.25]

    def test_pooled_study_equals_in_process(self, monkeypatch):
        args = (["generic4d"], (1, 2), MINI, "noise", [0.1, 0.3])
        pooled = study.run_study(*args)
        monkeypatch.setattr(pool_mod, "worker_count", lambda tasks: 1)
        in_process = study.run_study(*args)
        assert _without_seconds(pooled) == _without_seconds(in_process)
        rows = [row for point in pooled["points"] for row in point["families"]["generic4d"]["rows"]]
        assert len(rows) == 4 and not any(row["failureReason"] for row in rows)


def _zeros(n_samples):
    return Dataset(np.zeros((n_samples, 4)), np.zeros((n_samples, 1)), "zeros", 0.0, 0)


class TestStudyPool:
    @pytest.mark.parametrize("runs", [1, 2])
    def test_pooled_runs_train_in_process(self, monkeypatch, runs):
        # one run goes in-process, and its train picks its own worker count
        if runs > 1 and pool_mod.worker_count(runs) == 1:
            pytest.skip("this machine keeps every job in-process")
        big, parent = _zeros(4000), os.getpid()

        def record_workers(ds, cfg):
            # the row carries the restart workers as nullity, a pool worker as reliable
            workers = train_mod._restart_workers(big, TrainConfig())
            report = RunReport(ds.task, cfg.seed, {}, nullity=workers,
                               lambda_reliable=os.getpid() != parent, wall_clock=0.0)
            return None, report

        monkeypatch.setattr(study, "train", record_workers)
        doc = study.run_study(["generic4d"], seeds=range(1, runs + 1))
        rows = doc["families"]["generic4d"]["rows"]
        expected = 1 if runs > 1 else train_mod._restart_workers(big, TrainConfig())
        assert [(row["nullity"], row["reliable"]) for row in rows] == [(expected, runs > 1)] * runs
        assert not any(row["failureReason"] for row in rows)

    @pytest.mark.parametrize("cpus, runs, workers", [(1000, 4, 4), (3, 4, 3), (2, 1, None)])
    def test_jobs_capped_at_runs_and_cpus(self, monkeypatch, cpus, runs, workers):
        # workers None: no pool, the one run goes in-process
        if not _pools_fork():
            pytest.skip("this platform keeps every job in-process")
        asked = []

        class StubPool:
            """Runs each task here: no process is started, whatever count it
            is asked for."""

            def __init__(self, count, shared):
                asked.append(count)
                monkeypatch.setattr(pool_mod, "_worker_shared", shared)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(pool_mod, "worker_pool", StubPool)
        monkeypatch.setattr(study, "run_row", _stub_row)
        monkeypatch.setattr(pool_mod.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        doc = study.run_study(["generic4d"], seeds=range(1, runs + 1))
        assert [row["seed"] for row in doc["families"]["generic4d"]["rows"]] == list(
            range(1, runs + 1))
        assert asked == ([] if workers is None else [workers])
        assert pool_mod.worker_count(runs) == (workers or 1)
