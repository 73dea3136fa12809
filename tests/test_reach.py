"""Every function and class in ``src/gaussdec`` is reached from ``src``.

A definition that no code in the package names is a candidate for the test
oracles (``tests/oracles.py``) or for deletion.  Both scans are syntactic: a
``Name`` or ``Attribute`` that spells a definition's name refers to it, and
dunder methods count as reached, since Python calls them.  The first scan
asks whether anything in the package names a definition; the second follows
names transitively from the command line's entry points, so it also finds
code that only other unreached code calls.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gaussdec"

ENTRY_POINTS = ("main", "entrypoint")

# No command reaches these; each stays in src for one reason.
# - sym_eigen (with Spectrum, _fix_signs and _rotate_columns) and
#   simultaneous_diagonalization (with SimDiag): the benchmark traces both by
#   name (bench/spans.py); sym_eigen is also the tests' Jacobi oracle.
# - jacobi_eigen: sym_eigen's eigenvalues, which the tests' oracles read
#   (tests/oracles.py); the benchmark traces it too.
# The set shrinks when the benchmark traces sym_eigvals in place of the dead
# names, and again when the eigenvector code moves to the test oracles
# (ROADMAP, "Benchmark catch-up", step 1, and "One eigen path in src").
NOT_FROM_COMMANDS = {
    "Spectrum",
    "_fix_signs",
    "sym_eigen",
    "jacobi_eigen",
    "_rotate_columns",
    "SimDiag",
    "simultaneous_diagonalization",
}


def _names_in(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _modules(root: Path) -> list[ast.Module]:
    return [ast.parse(path.read_text(), filename=str(path)) for path in root.glob("*.py")]


def _definitions(trees: list[ast.Module]) -> list[ast.AST]:
    return [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached_definitions(root: Path) -> set[str]:
    trees = _modules(root)
    named = set().union(*map(_names_in, trees))
    return {
        node.name
        for node in _definitions(trees)
        if node.name not in named and not _is_dunder(node.name)
    }


def unreached_from(root: Path, entry_points) -> set[str]:
    """Definitions that no chain of names starting at ``entry_points`` reaches;
    a definition reaches every name in its body."""
    body_names: dict[str, set[str]] = {}
    for node in _definitions(_modules(root)):
        body_names.setdefault(node.name, set()).update(_names_in(node))
    reached, todo = set(), list(entry_points)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(body_names.get(name, ()))
    return {name for name in body_names if name not in reached and not _is_dunder(name)}


def test_only_the_known_oracles_are_unreached():
    # a definition that nothing names is also unreached from the commands
    assert unreached_definitions(SRC) <= NOT_FROM_COMMANDS


def test_no_command_reaches_the_eigenvector_path():
    assert unreached_from(SRC, ENTRY_POINTS) == NOT_FROM_COMMANDS
