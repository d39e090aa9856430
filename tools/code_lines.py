"""Print the code lines of each module of a package and their total.

A code line is a source line that is not blank, not only a comment and not
part of a docstring (of a module, class or function).  Run it from the
repository root as ``python3 tools/code_lines.py [src/nfacanon]``.  With
``--base REF`` it also prints each module's count at the git revision REF
(read with ``git show``; a module absent there counts 0) and the delta, so
``python3 tools/code_lines.py --base main`` gives a change's net line delta.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
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


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def base_counts(package: Path, ref: str) -> dict[str, int]:
    """Code lines of each ``*.py`` module directly in ``package`` at git ``ref``."""
    listed = _git("ls-tree", "--name-only", f"{ref}:{package.as_posix()}").split()
    return {
        name: code_lines(_git("show", f"{ref}:{(package / name).as_posix()}"))
        for name in listed
        if name.endswith(".py")
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", default="src/nfacanon")
    parser.add_argument("--base", metavar="REF", help="git revision to count the delta against")
    args = parser.parse_args(argv)
    package = Path(args.package)
    counts = {path.name: code_lines(path.read_text()) for path in sorted(package.glob("*.py"))}
    if args.base is None:
        for name, count in counts.items():
            print(f"{name:<16} {count:>6}")
        print(f"{'total':<16} {sum(counts.values()):>6}")
        return 0
    base = base_counts(package, args.base)
    print(f"{'module':<16} {'lines':>6} {'base':>6} {'delta':>6}")
    for name in sorted(counts.keys() | base.keys()):
        now, before = counts.get(name, 0), base.get(name, 0)
        print(f"{name:<16} {now:>6} {before:>6} {now - before:>+6}")
    now, before = sum(counts.values()), sum(base.values())
    print(f"{'total':<16} {now:>6} {before:>6} {now - before:>+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
