"""Count code lines: physical lines that hold code, without blanks, comments or docstrings.

    python3 scripts/code_lines.py [PATH ...]

Each PATH is a Python file or a directory, searched for ``*.py`` files
recursively; the default is the package, ``src/recshrink``.  A line counts
when a token other than a comment, a newline or an indent falls on it, so
every line of a statement that spans several lines counts.  The lines of a
docstring (the first statement of a module, class or function, when it is
a string) do not count.  One line per file gives its count and path, and a
last line the total.

Uses the standard library only.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "recshrink"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers taken by the docstrings of a module and its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Code lines of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def python_files(paths) -> list[Path]:
    """The given files, and the ``*.py`` files under the given directories, sorted."""
    files = []
    for path in map(Path, paths):
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=[str(_PACKAGE)],
                        help="files or directories (default: src/recshrink)")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        count = count_code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:7,d}  {path}")
    print(f"{total:7,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
