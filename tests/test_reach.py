"""Every function and class in ``src/gaussdec`` is reached from ``src``.

A definition that no code in the package names is a candidate for the test
oracles (``tests/oracles.py``) or for deletion.  The scan is syntactic: a
definition counts as reached when any ``Name`` or ``Attribute`` in the
package spells its name, and dunder methods count as reached, since Python
calls them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gaussdec"

# correlation_eigs_oracle: the Jacobi check on the eigenvalue route, kept in
# src beside it.  simultaneous_diagonalization: the paper's R = U D V build;
# it leaves this set when the eigenvector code moves to the test oracles
# (ROADMAP, "One eigen path in src").
UNREACHED = {"correlation_eigs_oracle", "simultaneous_diagonalization"}


def unreached_definitions(root: Path) -> set[str]:
    defined, named = set(), set()
    for path in root.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return {
        name for name in defined - named if not (name.startswith("__") and name.endswith("__"))
    }


def test_only_the_known_oracles_are_unreached():
    assert unreached_definitions(SRC) == UNREACHED
