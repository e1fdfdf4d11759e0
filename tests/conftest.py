"""Puts ``src/`` on the import path and collects acceptance-criterion
outcomes to print after the run."""

import os
import sys
from pathlib import Path

# a fresh checkout runs `python -m pytest` without installing the package;
# the environment variable carries the path into subprocess tests
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
_paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if _SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC] + [p for p in _paths if p])

_LINES = []


def record_criterion(num: int, description: str, passed: bool) -> None:
    _LINES.append((num, description, passed))


def pytest_terminal_summary(terminalreporter):
    if not _LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num, desc, passed in sorted(_LINES):
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num:02d} {word}  {desc}")
