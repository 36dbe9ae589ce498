"""The package version has one source: ``src/repro/_version.py``.

Cache keys and checkpoint refusal read ``repro._version.__version__``;
a second literal in the packaging files could only disagree with it.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_packaging_files_carry_no_version_literal():
    for name in ("setup.py", "pyproject.toml"):
        text = (ROOT / name).read_text()
        assert not re.search(r"\d+\.\d+\.\d+", text), name
        assert not re.search(r"""\bversion\s*=\s*["']""", text), name


def test_pyproject_reads_the_version_module():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^dynamic\s*=\s*\["version"\]', text, re.M)
    assert 'version = {attr = "repro._version.__version__"}' in text
