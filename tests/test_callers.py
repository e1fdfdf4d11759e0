"""Every public name in the package has a caller in the program.

A caller is a reference from ``src/`` or ``perfbench/`` outside the name's
own definition; a re-export from ``__init__`` or a use in a test is not one.
A public method of a public class counts as called only when some code
reaches it as an attribute (``x.name``) or spells it as a string; a bare
name of the same spelling is some other function.  Code that only tests
reach is either promoted to a caller or deleted.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sccckit"

# public names the program itself need not call, with the reason each stays
ALLOWED = {
    "semiring_model": "the documented way to check a user's own semiring",
    "from_json": "reads a saved report back; the inverse of the CLI's --json",
    "deserialize_morphism": "reads a morphism witness back out of a saved report",
    "corrupted_complex": "the negative-control semiring the semiring-law tests run",
    "sample_state": "the acceptance gate's state sampler",
    "stream": "one trial's generator, for replaying a failure named in a report",
}


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, node


def _methods():
    for path, cls in _definitions():
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    yield path, cls, node


def _references(tree: ast.AST, names: bool = True) -> Counter:
    """Names a tree loads (unless ``names`` is off), reads as an attribute
    or spells as a string."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and names:
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs[node.value] += 1
    return refs


def _uncalled() -> list[str]:
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sources]
    refs = sum((_references(tree) for tree in trees), Counter())
    attrs = sum((_references(tree, names=False) for tree in trees), Counter())
    # a definition's references to itself, from inside its own body, do not count
    functions = [f"{path.stem}.{node.name}" for path, node in _definitions()
                 if refs[node.name] == _references(node)[node.name]]
    methods = [f"{path.stem}.{cls.name}.{node.name}" for path, cls, node in _methods()
               if attrs[node.name] == _references(node, names=False)[node.name]]
    return functions + methods


def test_every_public_name_has_a_caller_in_the_program():
    uncalled = [n for n in _uncalled() if n.split(".")[-1] not in ALLOWED]
    assert uncalled == [], f"public names only tests reach: {uncalled}"


def test_the_allow_list_names_only_uncalled_definitions():
    defined = ({node.name for _, node in _definitions()}
               | {node.name for _, _, node in _methods()})
    uncalled = {n.split(".")[-1] for n in _uncalled()}
    assert set(ALLOWED) <= defined & uncalled
