"""The README's library quick tour runs against the package it documents."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_import_line_runs():
    text = README.read_text(encoding="utf-8")
    tour = text.split("## Library quick tour", 1)[1]
    code = tour.split("```python", 1)[1].split("```", 1)[0]
    line = re.search(r"^from certsurv import \([^)]*\)", code, re.MULTILINE)
    assert line, "the quick tour has no `from certsurv import (...)` line"
    namespace = {}
    exec(line.group(0), namespace)
    names = re.findall(r"\w+", line.group(0).split("(", 1)[1])
    assert names and all(callable(namespace[name]) for name in names)
