import dataclasses
import json
from pathlib import Path

import pytest

from sospec import study
from sospec.cli import main as cli_main
from sospec.train import train

# A miniature of the study: two seeds, one epoch.
MINI = {"epochs": 1, "warmup_epochs": 1}

ROW_KEYS = {"seed", "cos", "hit", "reliable", "nullity", "seconds", "failureReason"}
FAMILY_KEYS = {
    "uniqueSubgroup", "runs", "hits", "recoveryRate", "medianCos", "secondsPerRun",
    "reliableOnHits", "reliableOnMisses", "flagPrecision", "flagRecall", "rows",
}


def _row(seed, cos, reliable):
    return {"seed": seed, "cos": cos, "hit": cos > study.HIT_COS, "reliable": reliable,
            "nullity": 1 if reliable else 0, "seconds": 2.0, "failureReason": None}


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
        assert row["reliable"] == report.rates_reliable
        assert row["nullity"] == report.nullity
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

    @pytest.mark.parametrize("family", ["rotated", "pendulum"])
    def test_unknown_family_exits_one(self, tmp_path, capsys, family):
        out = tmp_path / "study.json"
        assert cli_main(["study", "--family", family, "--out", str(out)]) == 1
        assert "--family" in capsys.readouterr().err
        assert not out.exists()

    def test_committed_figures_follow_from_their_rows(self):
        doc = json.loads((Path(__file__).parent.parent / "BENCH_seedstudy.json").read_text())
        assert (doc["hitCos"], doc["overrides"]) == (study.HIT_COS, {})
        assert list(doc["families"]) == list(study.FAMILIES)
        for name, fam in doc["families"].items():
            assert [row["seed"] for row in fam["rows"]] == list(study.FAMILIES[name].seeds)
            assert study.summarize(study.FAMILIES[name], fam["rows"]) == fam, name
        assert study.flag_precision(doc["families"]) == doc["flagPrecision"]
