"""The README against the tree it describes."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_layout_lists_every_module_and_no_other():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^- `src/sospec/([^`]+)`", layout, flags=re.MULTILINE))
    modules = {path.name for path in (ROOT / "src" / "sospec").glob("*.py")} - {"__init__.py"}
    assert listed == modules
