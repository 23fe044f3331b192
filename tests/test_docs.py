"""README.md: its examples run as doctests, and it lists the public names."""

import doctest
import re
from pathlib import Path

import twosquares

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    results = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert results.attempted > 0
    assert results.failed == 0


def test_public_names_listed_with_a_reason():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Public names\n", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^- `(\w+)` — \S", section, flags=re.MULTILINE)
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(listed) == set(twosquares.__all__) - {"__version__"}
