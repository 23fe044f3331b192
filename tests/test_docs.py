"""README.md and every module's examples run as doctests; README lists the public names."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import twosquares

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    results = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert results.attempted > 0
    assert results.failed == 0


def test_module_doctests():
    attempted = 0
    for info in pkgutil.iter_modules(twosquares.__path__):
        module = importlib.import_module(f"twosquares.{info.name}")
        results = doctest.testmod(module)
        assert results.failed == 0, info.name
        attempted += results.attempted
    assert attempted >= 8  # words.py has 6 examples, laurent.py 2


def test_public_names_listed_with_a_reason():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Public names\n", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^- `(\w+)` — \S", section, flags=re.MULTILINE)
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(listed) == set(twosquares.__all__) - {"__version__"}
