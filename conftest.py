import sys
from pathlib import Path

import pytest

# Let tests run from a fresh checkout without installation.
_src = str(Path(__file__).resolve().parent / "src")
if _src not in sys.path:
    sys.path.insert(0, _src)


def _sospec_modules():
    return {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "sospec"}


@pytest.fixture(autouse=True)
def _restore_sospec_modules():
    """Put back, after each test, the sospec modules loaded before it.

    A test that re-imports sospec (perfbench's fixtures do) would otherwise
    leave its copies in sys.modules, and a later test whose module imported
    the earlier copies would send a pool functions that no longer pickle:
    a pool pickles a function by its module's name.
    """
    before = _sospec_modules()
    yield
    for name in _sospec_modules():
        del sys.modules[name]
    sys.modules.update(before)
