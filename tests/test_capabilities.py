"""Semiring capabilities: the suites read what a semiring can do, not which
semiring it is, so a copy of a shipped semiring behaves like the original."""

import ast
import dataclasses
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import sccckit
from sccckit import (BOOLEAN, COMPLEX, NONNEG, WProjModel, resolve_model,
                     run_suite, semiring_model)
from sccckit.semirings import corrupted_complex

COPIES = [(COMPLEX, "fdhilb"), (BOOLEAN, "rel"), (NONNEG, "weights")]


def _verdicts(suite, model):
    report = run_suite(suite, model, trials=4, seed=11, max_dim=2)
    return [(r.check_name, r.status) for r in report.results]


@pytest.mark.parametrize("s, selector", COPIES, ids=[sel for _, sel in COPIES])
def test_a_copy_of_a_semiring_runs_the_suites_like_the_original(s, selector):
    copy = semiring_model(dataclasses.replace(s, name=f"copy-of-{s.name}"))
    original = resolve_model(selector)
    assert copy.semiring is not original.semiring
    for suite in ("sccc", "ortho", "prep-state"):
        assert _verdicts(suite, copy) == _verdicts(suite, original), suite
    for suite in ("wproj", "born", "prep-state", "equivalence"):
        assert (_verdicts(suite, WProjModel(copy))
                == _verdicts(suite, WProjModel(original))), f"wproj:{suite}"


def test_idempotent_is_derived_from_one_plus_one():
    assert not COMPLEX.idempotent
    assert BOOLEAN.idempotent
    assert not NONNEG.idempotent
    assert not corrupted_complex().idempotent


def test_multiples_count_up_until_a_repeat():
    assert COMPLEX.multiples(3) == [0, 1, 2]
    assert COMPLEX.multiples(4) == [0, 1, 2, 3]
    assert BOOLEAN.multiples(3) == [False, True]
    assert BOOLEAN.multiples(4) == [False, True]
    assert NONNEG.multiples(3) == [0.0, 1.0, 2.0]
    assert NONNEG.multiples(4) == [0.0, 1.0, 2.0, 3.0]


def test_only_complex_declares_phases():
    assert COMPLEX.phase is not None
    assert BOOLEAN.phase is None
    assert NONNEG.phase is None
    # under the identity involution u o u(dagger) = u^2, which is not 1
    assert corrupted_complex().phase is None


def test_complex_phase_is_a_unit_drawn_from_one_uniform():
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    u = COMPLEX.phase(rng)
    assert abs(abs(u) - 1.0) < 1e-12
    assert u == np.exp(2j * np.pi * twin.random())
    assert rng.random() == twin.random()


@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (24,)])
def test_complex_sample_is_two_normal_draws_in_one(shape):
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    got = COMPLEX.sample(rng, shape)
    want = twin.standard_normal(shape) + 1j * twin.standard_normal(shape)
    assert got.shape == shape and got.dtype == np.complex128
    assert got.tobytes() == want.tobytes()
    # the generator is left where the two draws leave it
    assert rng.standard_normal(5).tobytes() == twin.standard_normal(5).tobytes()


# -- no semiring switch outside semirings.py -----------------------------------

SWITCH = re.compile(r"is (not )?(COMPLEX|BOOLEAN|NONNEG)\b"
                    r"|dtype [!=]= np\.(bool_|complex128)\b")

# Each remaining switch is a refusal or a route that needs complex numbers
# themselves, not a capability a semiring could declare.
ALLOWED_SWITCHES = Counter({
    ("cli.py", "_checked_inputs"): 1,          # teleport refuses other models
    ("protocols.py", "run_teleportation"): 1,  # teleport refuses other models
    ("report.py", "deserialize_morphism"): 1,  # JSON stores complex pairs
})


def _enclosing_functions(tree):
    """Map each line to the qualified name of the innermost def around it."""
    where = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                for line in range(child.lineno, child.end_lineno + 1):
                    where[line] = name
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return where


def test_semiring_switches_stay_in_semirings_module():
    found = Counter()
    for path in sorted(Path(sccckit.__file__).parent.glob("*.py")):
        if path.name == "semirings.py":
            continue
        text = path.read_text()
        where = _enclosing_functions(ast.parse(text))
        for lineno, line in enumerate(text.splitlines(), start=1):
            if SWITCH.search(line):
                found[(path.name, where.get(lineno, "<module>"))] += 1
    assert found == ALLOWED_SWITCHES
