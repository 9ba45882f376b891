"""No module or class body of the project defines a function or class name twice.

Python binds a repeated name to its last definition, so an earlier copy is
dead code: a repeated test is never collected, a repeated function never
called.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parents[1]
DIRECTORIES = ("src", "tests", "scripts")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def repeated_definitions(source: str) -> list[tuple[str, int, int]]:
    """(name, first line, repeated line) of each name a module or class body defines again."""
    repeats = []
    tree = ast.parse(source)
    for body in [tree.body] + [node.body for node in ast.walk(tree)
                               if isinstance(node, ast.ClassDef)]:
        first = {}
        for node in body:
            if isinstance(node, _DEFINITIONS):
                if node.name in first:
                    repeats.append((node.name, first[node.name], node.lineno))
                else:
                    first[node.name] = node.lineno
    return repeats


def test_the_check_finds_a_repeat_in_a_module_and_in_a_class():
    source = "def f(): pass\nclass C:\n    def g(self): pass\n    def g(self): pass\ndef f(): pass\n"
    assert sorted(repeated_definitions(source)) == [("f", 1, 5), ("g", 3, 4)]
    assert repeated_definitions("def f(): pass\nclass C:\n    def f(self): pass\n") == []


def test_no_body_defines_a_name_twice():
    paths = sorted(path for name in DIRECTORIES for path in (ROOT / name).rglob("*.py"))
    assert len(paths) > 20
    repeats = [(str(path.relative_to(ROOT)), *repeat) for path in paths
               for repeat in repeated_definitions(path.read_text(encoding="utf-8"))]
    assert repeats == []
