"""The tolerance rule is stated once, and ``--tolerance`` reaches the rows.

``semirings._within`` is the one statement of "a gap within ``ABS_TOL``, or
finite and within rel times the scale", and ``nonneg_value`` the one sign
test of a scalar against ``REAL_TOL``.  Nothing outside ``semirings.py``
names the three constants, or ``NEGLIGIBLE``, below which a sampled arrow
is skipped as degenerate (``semirings.negligible``), except the runner's
default tolerance in ``report.py``, nothing in the package hides a tolerance of its own in
numpy's ``allclose`` or ``isclose``, and no comparison outside
``semirings.py`` holds a float literal below 1e-3.  Every row a suite decides itself reads
the run's tolerance, so a gap the default forgives fails at a tighter one.
"""
import ast
from itertools import count
from pathlib import Path

import pytest

from sccckit import Morphism, born, core, fdhilb, resolve_model, run_suite, suites
from sccckit.models import ModelHandle

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sccckit"

CONSTANTS = {"ABS_TOL", "REL_TOL", "REAL_TOL", "NEGLIGIBLE"}


def _named(tree: ast.AST):
    """(line, constant) for each mention of a tolerance constant: a name, an
    attribute or an imported alias."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and n.id in CONSTANTS:
            yield n.lineno, n.id
        elif isinstance(n, ast.Attribute) and n.attr in CONSTANTS:
            yield n.lineno, n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from ((n.lineno, a.name) for a in n.names if a.name in CONSTANTS)


def _runner_default() -> set[int]:
    """The lines of report.py where the runner reads its default tolerance:
    the import and ``CheckRunner.__init__``."""
    tree = ast.parse((PACKAGE / "report.py").read_text())
    runner = next(n for n in tree.body
                  if isinstance(n, ast.ClassDef) and n.name == "CheckRunner")
    init = next(n for n in runner.body
                if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom)]
    return {line for node in [init, *imports] for line, _ in _named(node)}


def test_no_module_but_semirings_names_a_tolerance_constant():
    allowed = _runner_default()
    assert allowed, "the runner's default tolerance moved out of report.py"
    offenders = [f"{path.name} line {line}: {name}"
                 for path in sorted(PACKAGE.glob("*.py")) if path.name != "semirings.py"
                 for line, name in _named(ast.parse(path.read_text()))
                 if not (path.name == "report.py" and line in allowed)]
    assert offenders == [], f"tolerance constants named outside semirings.py: {offenders}"


def test_no_module_hides_a_tolerance_in_allclose_or_isclose():
    # numpy's allclose and isclose carry their own rtol and atol, which the
    # rule's constants do not reach; every tolerant decision reads _within
    offenders = [f"{path.name}: {word}" for path in sorted(PACKAGE.glob("*.py"))
                 for word in ("allclose", "isclose") if word in path.read_text()]
    assert offenders == [], f"allclose or isclose in the package: {offenders}"


def _small_float(node: ast.expr) -> bool:
    """A float literal, signed or not, with 0 < |x| < 1e-3."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < abs(node.value) < 1e-3)


def test_no_comparison_outside_semirings_has_a_tolerance_literal():
    # a literal that small is a tolerance, and tolerances live in semirings.py
    offenders = [f"{path.name} line {n.lineno}"
                 for path in sorted(PACKAGE.glob("*.py")) if path.name != "semirings.py"
                 for n in ast.walk(ast.parse(path.read_text()))
                 if isinstance(n, ast.Compare)
                 and any(_small_float(o) for o in [n.left, *n.comparators])]
    assert offenders == [], f"tolerance literals compared outside semirings.py: {offenders}"


def _status(report, name: str) -> str:
    return next(r.status for r in report.results if r.check_name == name)


@pytest.fixture
def drifting_rep(monkeypatch):
    """``canonical_rep`` off by 1e-11 relative on every other call, a gap the
    default tolerance forgives and 1e-13 does not."""
    calls, original = count(), suites.canonical_rep

    def rep(f):
        r = original(f)
        return Morphism(r.dom, r.cod, r.array * (1 + 1e-11 * (next(calls) % 2)),
                        r.semiring)

    monkeypatch.setattr(suites, "canonical_rep", rep)


@pytest.mark.parametrize("model", ["fdhilb", "wproj:fdhilb", "weights"])
def test_tolerance_reaches_canonical_representative_phase_free(drifting_rep, model):
    row = "canonical-representative-phase-free"
    loose = run_suite("wproj", resolve_model(model), trials=10, seed=0)
    tight = run_suite("wproj", resolve_model(model), trials=10, seed=0, tolerance=1e-13)
    assert (_status(loose, row), _status(tight, row)) == ("pass", "fail")


@pytest.mark.parametrize("model", ["fdhilb", "wproj:fdhilb"])
def test_tolerance_reaches_one_plus_one(monkeypatch, model):
    original = born.scalar_sum

    def drifting(m, s, t, nu=1, trace_fn=None):
        r = original(m, s, t, nu, trace_fn)
        return Morphism(r.dom, r.cod, r.array * (1 + 1e-11), r.semiring)

    monkeypatch.setattr(born, "scalar_sum", drifting)
    loose = run_suite("born", resolve_model(model), trials=3, seed=0)
    tight = run_suite("born", resolve_model(model), trials=3, seed=0, tolerance=1e-13)
    assert (_status(loose, "one-plus-one"), _status(tight, "one-plus-one")) == ("pass", "fail")


def test_tolerance_reaches_born_probability_loop(monkeypatch):
    row = "born-probability-loop"
    original = core.trace

    def drifting(f):
        r = original(f)
        return Morphism(r.dom, r.cod, r.array * (1 + 1e-6), r.semiring)

    monkeypatch.setattr(core, "trace", drifting)
    loose = run_suite("sccc", fdhilb(), trials=3, seed=1, tolerance=1e-3)
    tight = run_suite("sccc", fdhilb(), trials=3, seed=1)
    assert _status(loose, row) == "pass"
    failed = next(r for r in tight.results if r.check_name == row)
    assert failed.status == "fail" and set(failed.witness) == {"psi", "trial"}


def test_tolerance_reaches_phase_witnesses(monkeypatch):
    # a unit scalar off by 1e-6 relative: g = u . f is phase equivalent to f
    # at 1e-3, and neither its doubled form nor its witnesses are at the default
    row = "phase-witnesses"
    original = ModelHandle.sample_unit_scalar

    def drifting(self, rng):
        u = original(self, rng)
        return Morphism(u.dom, u.cod, u.array * (1 + 1e-6), u.semiring)

    monkeypatch.setattr(ModelHandle, "sample_unit_scalar", drifting)
    loose = run_suite("sccc", fdhilb(), trials=3, seed=1, tolerance=1e-3)
    tight = run_suite("sccc", fdhilb(), trials=3, seed=1)
    assert (_status(loose, row), _status(tight, row)) == ("pass", "fail")
