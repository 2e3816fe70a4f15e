"""The README against the tree it describes."""

import json
import re
from pathlib import Path

from sospec.data import double_pendulum_task, save_dataset

ROOT = Path(__file__).resolve().parents[1]


def test_readme_layout_lists_every_module_and_no_other():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^- `src/sospec/([^`]+)`", layout, flags=re.MULTILINE))
    modules = {path.name for path in (ROOT / "src" / "sospec").glob("*.py")} - {"__init__.py"}
    assert listed == modules


def test_readme_dataset_header_lists_every_key_save_writes(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Datasets\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- ((?:`[^`]+`, )*`[^`]+`):", section, flags=re.MULTILINE)
    listed = [name for bullet in bullets for name in re.findall(r"`([^`]+)`", bullet)]
    path = tmp_path / "ds.jsonl"
    save_dataset(double_pendulum_task(2, 0.0, 0), path)
    written = json.loads(path.read_text().split("\n", 1)[0])["meta"]
    assert sorted(listed) == sorted(written)
