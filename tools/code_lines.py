"""Print the code lines of each module of a package and their total.

A code line is a source line that is not blank, not only a comment and not
part of a docstring (of a module, class or function).  Run it from the
repository root as ``python3 tools/code_lines.py [src/nfacanon]``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else "src/nfacanon")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<16} {count:>6}")
    print(f"{'total':<16} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
