"""Every field of a dataclass in the package is read by the program.

A read is an attribute load (``x.name``) or the name spelled as a string,
anywhere in ``src/`` or ``perfbench/``.  Reads inside the class's own
``__init__`` or ``__post_init__`` do not count: a field that only its
constructor checks is state that nothing uses, and is deleted.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sccckit"

# dataclass fields the program need not read, with the reason each stays
ALLOWED = {}

CONSTRUCTORS = {"__init__", "__post_init__"}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _reads(tree: ast.AST) -> Counter:
    """Names a tree loads as an attribute or spells as a string."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads[node.value] += 1
    return reads


def _dataclasses():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                yield path, node


def _unread() -> list[str]:
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    reads = sum((_reads(ast.parse(p.read_text(), filename=str(p))) for p in sources),
                Counter())
    unread = []
    for path, cls in _dataclasses():
        own = sum((_reads(n) for n in cls.body
                   if isinstance(n, ast.FunctionDef) and n.name in CONSTRUCTORS),
                  Counter())
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                field = node.target.id
                if reads[field] == own[field]:
                    unread.append(f"{path.stem}.{cls.name}.{field}")
    return unread


def test_every_dataclass_field_is_read_by_the_program():
    # a rule that finds no dataclass would pass on anything
    seen = {f"{path.stem}.{cls.name}" for path, cls in _dataclasses()}
    assert {"morphisms.Morphism", "ortho.OplusDecomposition"} <= seen
    unread = [n for n in _unread() if n not in ALLOWED]
    assert unread == [], f"fields nothing outside their constructor reads: {unread}"


def test_the_allow_list_names_only_unread_fields():
    assert set(ALLOWED) <= set(_unread())
