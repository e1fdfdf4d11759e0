"""Puts ``src/`` on the import path, writes no bytecode cache, requires
every test to leave no child process behind, and collects
acceptance-criterion outcomes to print after the run."""

import os
import sys
from pathlib import Path

import pytest

# a fresh checkout runs `python -m pytest` without installing the package;
# the environment variable carries the path into subprocess tests
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
_paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if _SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC] + [p for p in _paths if p])

# a run leaves no __pycache__ under src/: a cached package starts with less
# to compile, so a benchmark run after the tests would measure less work
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

_LINES = []


@pytest.fixture(autouse=True)
def no_child_outlives_its_test():
    """Every process a test starts, a table's worker included, has been
    reaped when the test ends."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def record_criterion(num: int, description: str, passed: bool) -> None:
    _LINES.append((num, description, passed))


def pytest_terminal_summary(terminalreporter):
    if not _LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num, desc, passed in sorted(_LINES):
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num:02d} {word}  {desc}")
