"""Every Python file of the project parses as Python 3.10, the oldest version
pyproject.toml admits. This catches 3.11-only syntax (such as `except*`)
without a 3.10 interpreter; it says nothing of 3.11-only library calls.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_source_file_parses_as_python_3_10():
    sources = sorted(path for top in ("src", "tests", "perfbench")
                     for path in (ROOT / top).rglob("*.py"))
    assert len(sources) > 20
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
