"""README's "Library use" section and the package root name the same API."""

import inspect
import re
from pathlib import Path

import cacheopt

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def library_use() -> str:
    start = README.index("## Library use")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def test_readme_library_names_resolve():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 1
    names = set(re.findall(r"\bco\.(\w+)", blocks[0]))
    assert {"evolve", "exhaustive"} <= names
    assert [name for name in sorted(names) if not hasattr(cacheopt, name)] == []


def test_every_root_export_is_named_in_library_use():
    section = library_use()
    exports = [name for name, value in vars(cacheopt).items()
               if not name.startswith("_") and not inspect.ismodule(value)]
    assert exports
    assert [name for name in exports if not re.search(rf"\b{name}\b", section)] == []
