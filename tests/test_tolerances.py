"""One numerical policy: every tolerance of the package is assigned in
`cheshire.tolerances` and nowhere else, and each one there is read."""

import ast
import re
from pathlib import Path

import cheshire

SOURCES = {path.stem: ast.parse(path.read_text()) for path in Path(cheshire.__file__).parent.glob("*.py")}
TOLERANCE_NAME = re.compile(r"[A-Z0-9_]*(_TOL|_EPS|_SLACK|_NOISE)|DEAD_BRANCH_[A-Z0-9_]+|ACCEPTANCE_BOUND")


def module_assignments(tree: ast.Module):
    """(name, value) of every plain or annotated module-level assignment."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)):
                yield name.id, node.value


def names_read(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_tolerances_assigned_only_in_their_module():
    stray = [f"{module}.{name}" for module, tree in SOURCES.items() if module != "tolerances"
             for name, _ in module_assignments(tree) if TOLERANCE_NAME.fullmatch(name)]
    assert stray == []


def test_every_tolerance_is_read():
    # read by another module, or by the definition of a tolerance that is
    definitions = dict(module_assignments(SOURCES["tolerances"]))
    live = set().union(*(names_read(tree) for module, tree in SOURCES.items() if module != "tolerances"))
    live &= set(definitions)
    while True:
        derived = set().union(*(names_read(definitions[name]) for name in live)) & set(definitions)
        if derived <= live:
            break
        live |= derived
    assert sorted(set(definitions) - live) == []


def test_tolerance_module_holds_only_tolerances():
    names = [name for name, _ in module_assignments(SOURCES["tolerances"])]
    assert len(names) == len(set(names))
    assert [name for name in names if not TOLERANCE_NAME.fullmatch(name)] == []
