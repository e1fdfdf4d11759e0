"""What set-up imports: ``import sccckit`` loads no submodule, resolving a
model loads only the model layer, each CLI command loads only its own layer,
and every exported name still resolves.

The footprint is read in a fresh interpreter, since this one has long
imported the whole package.
"""
import ast
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import sccckit

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sccckit"
MODEL_LAYER = {"errors", "objects", "semirings", "morphisms", "models"}
QUOTIENT = {"core", "wproj"}
# each module imports only modules before it, so each is first loaded here
# by its own attribute access
SUBMODULES = ["errors", "objects", "semirings", "morphisms", "core", "ortho",
              "models", "wproj", "report", "born", "protocols", "suites"]

LOADED = "sorted(m[8:] for m in sys.modules if m.startswith('sccckit.'))"


def _fresh(code: str):
    """The JSON that code prints in a fresh interpreter, after ``import sys``."""
    done = subprocess.run([sys.executable, "-c", f"import sys\n{code}"],
                          capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_importing_the_package_loads_no_submodule():
    assert _fresh(f"import json, sccckit\nprint(json.dumps({LOADED}))") == []


@pytest.mark.parametrize("selector,extra", [
    ("fdhilb", set()), ("rel", set()), ("weights", set()),
    ("wproj:fdhilb", QUOTIENT), ("wproj:rel", QUOTIENT),
    ("wproj:weights", QUOTIENT)])
def test_resolving_a_model_loads_only_the_model_layer(selector, extra):
    loaded = _fresh("import json\nfrom sccckit import resolve_model\n"
                    f"resolve_model({selector!r})\nprint(json.dumps({LOADED}))")
    assert set(loaded) == MODEL_LAYER | extra


def _command_footprint(argv: list[str]) -> dict:
    """The sccckit modules, and whether ``fractions`` is among all modules,
    loaded by one CLI command in a fresh interpreter."""
    return _fresh(
        "import contextlib, io, json\nfrom sccckit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        f"print(json.dumps({{'code': code, 'loaded': {LOADED}, "
        "'fractions': 'fractions' in sys.modules}))")


def test_teleport_loads_the_protocol_and_no_suite_table():
    seen = _command_footprint(["protocol", "teleport", "--seed", "1"])
    assert seen == {"code": 0, "fractions": False, "loaded": sorted(
        MODEL_LAYER | QUOTIENT | {"cli", "report", "ortho", "protocols"})}


@pytest.mark.parametrize("suite", ["sccc", "wproj", "prep-state", "ortho",
                                   "born", "equivalence"])
def test_verify_loads_its_tables_and_no_protocol(suite):
    seen = _command_footprint(["verify", suite, "--model", "fdhilb", "--seed", "1",
                               "--trials", "2", "--max-dim", "2"])
    assert seen["code"] == 0
    assert "suites" in seen["loaded"] and "protocols" not in seen["loaded"]


def test_each_submodule_is_an_attribute_without_a_prior_import():
    seen = _fresh(
        "import json, sccckit\nseen = []\n"
        f"for m in {SUBMODULES!r}:\n"
        "    before = 'sccckit.' + m in sys.modules\n"
        "    seen.append([m, before, getattr(sccckit, m).__name__])\n"
        "print(json.dumps(seen))")
    assert seen == [[m, False, f"sccckit.{m}"] for m in SUBMODULES]


def _defining_modules() -> dict[str, list[str]]:
    """Each name defined at the top level of a module of the package, with
    the modules that define it, from one parse of each source."""
    homes = defaultdict(list)
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                continue
            for name in bound:
                homes[name].append(path.stem)
    return homes


def test_every_exported_name_is_its_defining_modules_object():
    star = {}
    exec("from sccckit import *", star)
    assert sorted(n for n in star if n != "__builtins__") == sorted(sccckit.__all__)
    homes = _defining_modules()
    for name in sccckit.__all__:
        assert len(homes[name]) == 1, (name, homes[name])
        module = sys.modules[f"sccckit.{homes[name][0]}"]
        assert getattr(sccckit, name) is vars(module)[name], name
        assert star[name] is vars(module)[name], name


def test_the_listing_names_every_export_and_submodule():
    listed = dir(sccckit)
    assert set(sccckit.__all__) | set(SUBMODULES) <= set(listed)
    assert listed == sorted(listed)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        sccckit.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from sccckit import no_such_name", {})
