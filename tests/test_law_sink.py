"""Every equation a check table states goes through its ``report.Law``.

The check tables of ``suites.py`` and ``born.leg_checks`` decide their laws
with one comparer, so that whatever the runner learns from a comparison is
learnt in one place.  A call to ``equal``, ``wequal`` or ``wequal_to`` (as a
name or as an attribute) anywhere in those tables bypasses it.  The rows
below decide some other way, each for the reason given; every other row
states its law through ``law(...)`` and compares nothing itself.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sccckit"

COMPARERS = {"equal", "wequal", "wequal_to"}

# rows that decide outside the sink, with the reason each does
ALLOWED = {
    "norm-scalar-positive": "a sign test of one scalar by semirings.nonneg_value",
    "equality-criteria-agree": "compares through wequal_to itself: the row "
                               "states that wequal's three criteria agree",
    "canonical-representative-idempotent": "compares representatives with "
                                           "morphisms.equal, not classes",
    "canonical-representative-phase-free": "compares representatives with "
                                           "morphisms.equal, not classes",
    "quotient-scalars-nonnegative": "a sign test of one scalar by semirings.nonneg_value",
    "quotient-separates-weight-from-phase": "its first comparison asserts two "
                                            "classes differ",
    "zero-through-zero-object": "counts nonzero entries, exactly",
    "block-sum-on-phase-classes": "an expected failure judged on fixed gaps",
    "valuation-splits-binary": "decides through born.check_born_decomposition",
    "valuation-splits-ternary": "decides through born.check_born_decomposition",
    "one-plus-one": "compares a scalar's value with a number by "
                    "semirings._within at the run's tolerance",
    "doubles-determine-morphisms": "an implication between two comparisons; "
                                   "law cannot state an antecedent",
    "projectors-determine-names": "an implication between two comparisons; "
                                  "law cannot state an antecedent",
    "densities-determine-states": "an implication between two comparisons; "
                                  "law cannot state an antecedent",
    "doubles-determine-morphisms-exhaustive": "decides whole shape classes "
                                              "with semiring.equal_to_each",
}


def _parsed_tables() -> list[ast.FunctionDef]:
    """The check-table builders: every function of suites.py, and leg_checks."""
    suites = ast.parse((PACKAGE / "suites.py").read_text())
    born = ast.parse((PACKAGE / "born.py").read_text())
    return ([n for n in suites.body if isinstance(n, ast.FunctionDef)]
            + [n for n in born.body
               if isinstance(n, ast.FunctionDef) and n.name == "leg_checks"])


TABLES = _parsed_tables()


def _rows(table: ast.FunctionDef):
    """(check name, the nodes that decide it) for each row of a table.

    A row is a ``Check("name", ...)`` call, or a call ``entry("name", ...)``
    of a local factory whose ``Check`` takes its name from a parameter, as
    prep-state builds its rows.  What decides a row is its function (for a
    factory row, the call with its arguments) and every local function it
    calls, transitively.
    """
    defs = {n.name: n for n in ast.walk(table) if isinstance(n, ast.FunctionDef)}
    factories = {name: d for name, d in defs.items()
                 for call in ast.walk(d) if _is_call(call, "Check")
                 and isinstance(call.args[0], ast.Name)
                 and call.args[0].id in {a.arg for a in d.args.args}}
    built = {id(n) for d in factories.values() for n in ast.walk(d)}
    for node in ast.walk(table):
        if _is_call(node, "Check") and id(node) not in built:
            fn = node.args[3]
            if isinstance(fn, ast.Call):  # a factory such as splits(2)
                fn = fn.func
            start = fn if isinstance(fn, ast.Lambda) else defs[fn.id]
        elif any(_is_call(node, name) for name in factories):
            start = node
        else:
            continue
        yield node.args[0].value, _reach(start, defs)


def _is_call(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name)


def _reach(start: ast.AST, defs: dict) -> list[ast.AST]:
    """start and every function of defs it calls by name, transitively."""
    nodes, todo = [], [start]
    while todo:
        node = todo.pop()
        if all(node is not n for n in nodes):
            nodes.append(node)
            todo += [defs[c.func.id] for c in _walk([node])
                     if any(_is_call(c, name) for name in defs)]
    return nodes


def _walk(trees):
    return (n for tree in trees for n in ast.walk(tree))


def _called(trees) -> set[str]:
    return {n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            for n in _walk(trees) if isinstance(n, ast.Call)
            and isinstance(n.func, (ast.Name, ast.Attribute))}


def _comparisons(trees):
    for n in _walk(trees):
        if isinstance(n, ast.Call):
            f = n.func
            if ((isinstance(f, ast.Name) and f.id in COMPARERS)
                    or (isinstance(f, ast.Attribute) and f.attr in COMPARERS)):
                yield n


def _decided_by(allowed: bool) -> set[int]:
    """The nodes that decide the allowed rows, or those of every other row."""
    return {id(n) for table in TABLES for name, nodes in _rows(table)
            if (name in ALLOWED) == allowed for n in _walk(nodes)}


def test_no_table_compares_outside_the_sink():
    # a comparison passes only inside allowed rows, and none of the others
    # may reach it through a shared local function
    allowed, others = _decided_by(True), _decided_by(False)
    offenders = [f"{table.name} line {call.lineno}" for table in TABLES
                 for call in _comparisons([table])
                 if id(call) not in allowed or id(call) in others]
    assert offenders == [], f"comparisons that bypass report.Law: {offenders}"


def test_every_other_row_states_its_law_through_the_sink():
    missing = [name for table in TABLES for name, fn in _rows(table)
               if name not in ALLOWED and "law" not in _called(fn)]
    assert missing == [], f"rows that neither call law nor are allowed: {missing}"


def test_the_allow_list_names_only_rows_that_decide_outside_the_sink():
    rows = {name: fn for table in TABLES for name, fn in _rows(table)}
    assert sorted(set(ALLOWED) - set(rows)) == []
    inside = [name for name in ALLOWED if "law" in _called(rows[name])
              and not any(_comparisons(rows[name]))]
    assert inside == [], f"allowed rows that only use the sink: {inside}"
