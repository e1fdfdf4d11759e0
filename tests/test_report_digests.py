"""Golden digests of fixed-seed reports.

``report_digests.json`` maps a command line to the sha256 of the JSON report
it prints.  A change that keeps every verdict and every witness keeps every
digest; a change that alters a report on purpose says so in CHANGES.md and
rewrites the file with
``PYTHONPATH=src python tests/test_report_digests.py``.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from sccckit.cli import main

DIGESTS = Path(__file__).with_name("report_digests.json")

_VERIFY = [("sccc", "fdhilb"), ("sccc", "rel"), ("ortho", "fdhilb"),
           ("ortho", "rel"), ("prep-state", "weights"), ("prep-state", "rel"),
           ("prep-state", "wproj:fdhilb"), ("wproj", "wproj:fdhilb"),
           ("wproj", "wproj:rel"), ("born", "wproj:fdhilb"),
           ("equivalence", "wproj:fdhilb")]
_TELEPORT = [(model, state) for model in ("fdhilb", "wproj:fdhilb")
             for state in (None, "[[0.6,0],[0,0.8]]")]

ARGVS = (
    [f"verify {suite} --model {model} --seed 7 --trials 3 --json -"
     for suite, model in _VERIFY]
    + [f"protocol teleport --model {model} --seed 7"
       + (f" --state {state}" if state else "") + " --json -"
       for model, state in _TELEPORT])


def report_digest(argv: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv.split())
    assert code == 0, argv
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_the_golden_file_covers_every_command_line():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(ARGVS)


@pytest.mark.parametrize("argv", ARGVS)
def test_fixed_seed_report_is_byte_identical(argv):
    assert report_digest(argv) == json.loads(DIGESTS.read_text())[argv]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({a: report_digest(a) for a in ARGVS},
                                  indent=2, sort_keys=True) + "\n")
