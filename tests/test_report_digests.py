"""Golden digests of fixed-seed reports.

``report_digests.json`` maps a command line to the sha256 of the JSON report
it prints: every (suite, model selector) pair the CLI accepts, plus
teleport and born at ``--nu 1/2`` and ``2``.  ``failing_report_digests.json``
does the same for reports run with every model's ``equal`` answering False,
so that each row deciding a law through ``model.equal`` fails at trial 0
and prints its witness.  A report prints as one line of sorted JSON; the
digest is taken over its indented form,
``json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"``, and each
test also holds the printed line to ``json.dumps(json.loads(out),
sort_keys=True) + "\n"`` and to ``from_json(out).to_json()``, so the two
pin every printed byte.  A change that keeps every verdict and every
witness keeps every digest; a change that alters a report on purpose says
so in CHANGES.md and rewrites both files with
``PYTHONPATH=src python tests/test_report_digests.py``, which prints each
command line whose digest it adds, drops or changes.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from sccckit.cli import main
from sccckit.models import ModelHandle
from sccckit.report import from_json
from sccckit.suites import SUITE_NAMES
from sccckit.wproj import WProjModel
from test_law_sink import ALLOWED

DIGESTS = Path(__file__).with_name("report_digests.json")
FAILING_DIGESTS = Path(__file__).with_name("failing_report_digests.json")

_SELECTORS = ["fdhilb", "rel", "weights", "wproj:fdhilb", "wproj:rel", "wproj:weights"]
# the corrupted control of these two needs more than 3 leg trials to break
_TRIALS = {("equivalence", "rel"): 10, ("equivalence", "wproj:rel"): 10}
_TELEPORT = [(model, state) for model in ("fdhilb", "wproj:fdhilb")
             for state in (None, "[[0.6,0],[0,0.8]]")]
# born at the exponents other than the default, whose scalars take roots;
# the report does not echo --nu, so the failing ones pin its values
_BORN_NU = [f"verify born --model {model} --seed 7 --trials 3 --nu {nu} --json -"
            for model in ("fdhilb", "wproj:fdhilb") for nu in ("1/2", "2")]

ARGVS = (
    [f"verify {suite} --model {model} --seed 7 "
     f"--trials {_TRIALS.get((suite, model), 3)} --json -"
     for suite in SUITE_NAMES for model in _SELECTORS]
    + [f"protocol teleport --model {model} --seed 7"
       + (f" --state {state}" if state else "") + " --json -"
       for model, state in _TELEPORT]
    + _BORN_NU)

FAILING_ARGVS = [f"verify {suite} --model {model} --seed 7 --trials 3 --json -"
                 for suite in ("sccc", "ortho", "born", "wproj")
                 for model in ("fdhilb", "rel", "wproj:fdhilb")] + _BORN_NU


def _report(argv: str, exit_code: int = 0) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv.split())
    assert code == exit_code, argv
    return out.getvalue()


def _digest(out: str) -> str:
    """The sha256 of ``out``'s indented form, once ``out`` is held to the
    canonical encoding: one line of sorted JSON that ``from_json`` reads back
    to the same bytes."""
    value = json.loads(out)
    assert out == json.dumps(value, sort_keys=True) + "\n"
    assert out.count("\n") == 1
    assert from_json(out).to_json() == out
    indented = json.dumps(value, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(indented.encode()).hexdigest()


def report_digest(argv: str) -> str:
    return _digest(_report(argv))


def _never_equal(self, f, g, rel=None) -> bool:
    return False


def _failing_report(argv: str) -> str:
    """``argv``'s report with every model's ``equal`` answering False."""
    with mock.patch.object(ModelHandle, "equal", _never_equal), \
            mock.patch.object(WProjModel, "equal", _never_equal):
        return _report(argv, exit_code=1)


def failing_report_digest(argv: str) -> str:
    return _digest(_failing_report(argv))


def test_the_golden_file_covers_every_command_line():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(ARGVS)
    assert sorted(json.loads(FAILING_DIGESTS.read_text())) == sorted(FAILING_ARGVS)


@pytest.mark.parametrize("argv", ARGVS)
def test_fixed_seed_report_is_byte_identical(argv):
    assert report_digest(argv) == json.loads(DIGESTS.read_text())[argv]


@pytest.mark.parametrize("argv", FAILING_ARGVS)
def test_failing_report_keeps_every_witness(argv):
    assert failing_report_digest(argv) == json.loads(FAILING_DIGESTS.read_text())[argv]


@pytest.mark.parametrize("argv", FAILING_ARGVS)
def test_every_row_on_the_law_sink_fails_at_trial_zero(argv):
    rows = json.loads(_failing_report(argv))["results"]
    held = [r["check_name"] for r in rows if r["check_name"] not in ALLOWED
            and (r["status"] != "fail" or r["witness"]["trial"] != 0)]
    assert held == []


def _rewrite(path: Path, digests: dict) -> None:
    """Write ``digests`` to ``path``, printing each command line whose digest
    was added, dropped or changed."""
    old = json.loads(path.read_text()) if path.exists() else {}
    moved = [("dropped" if argv not in digests else "added" if argv not in old
              else "changed", argv)
             for argv in sorted(old.keys() | digests.keys())
             if old.get(argv) != digests.get(argv)]
    for what, argv in moved:
        print(f"{path.name}: {what} {argv}")
    if not moved:
        print(f"{path.name}: no digest changed")
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _rewrite(DIGESTS, {a: report_digest(a) for a in ARGVS})
    _rewrite(FAILING_DIGESTS, {a: failing_report_digest(a) for a in FAILING_ARGVS})
