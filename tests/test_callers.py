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
    "from_json": "reads a saved report back; the inverse of the CLI's --json",
    "deserialize_morphism": "reads a morphism witness back out of a saved report",
    "corrupted_complex": "the negative-control semiring the semiring-law tests run",
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


# parameters with a default that no call in the program passes, with the
# reason each stays
ALLOWED_DEFAULTS = {
    "check_semiring_laws.samples": "README documents the default of 24, and a "
                                   "user may draw more",
}


def _defaulted(fn: ast.FunctionDef) -> list[str]:
    """The parameters of ``fn`` that have a default, in order."""
    positional = fn.args.posonlyargs + fn.args.args
    with_default = positional[len(positional) - len(fn.args.defaults):]
    keyword = [a for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if d is not None]
    return [a.arg for a in with_default + keyword]


def _passes(call: ast.Call, fn: ast.FunctionDef, offset: int) -> set[str]:
    """The parameters of ``fn`` that ``call`` passes, when its first
    positional argument binds parameter ``offset`` (1 past a bound self)."""
    if any(k.arg is None for k in call.keywords) or any(
            isinstance(a, ast.Starred) for a in call.args):
        return set(_defaulted(fn))
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    return ({k.arg for k in call.keywords}
            | set(positional[offset:offset + len(call.args)]))


def _unpassed_defaults() -> list[str]:
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    calls = [node for path in sources
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call)]
    by_name = [(c.func.id, c) for c in calls if isinstance(c.func, ast.Name)]
    by_attr = [(c.func.attr, c) for c in calls if isinstance(c.func, ast.Attribute)]
    # a function is reached by name or as a module attribute (offset 0); a
    # method only as an attribute, where a bound self takes position 0
    reached = [(node, 0, by_name + by_attr) for _, node in _definitions()
               if isinstance(node, ast.FunctionDef)]
    reached += [(node, 0 if any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                for d in node.decorator_list) else 1, by_attr)
                for _, _, node in _methods()]
    unpassed = []
    for fn, offset, named in reached:
        passed = set().union(*(_passes(call, fn, offset)
                               for name, call in named if name == fn.name))
        unpassed += [f"{fn.name}.{p}" for p in _defaulted(fn) if p not in passed]
    return unpassed


def test_every_default_parameter_is_passed_by_the_program():
    unpassed = _unpassed_defaults()
    assert [p for p in unpassed if p not in ALLOWED_DEFAULTS] == [], \
        f"parameters with a default that no call in the program passes: {unpassed}"
    assert set(ALLOWED_DEFAULTS) <= set(unpassed), \
        "ALLOWED_DEFAULTS names a parameter the program passes"
