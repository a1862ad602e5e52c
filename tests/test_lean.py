"""The code and its documents carry nothing stale: every top-level function
and class of the package is used in it, every test the README names is
defined, and every command line the README shows parses. The README stays
within its size bound. Source is read with `ast`; nothing is collected, and
no command is run."""

import ast
import pathlib
import re
import shlex

from aukit.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aukit"
TESTS = ROOT / "tests"


def _trees(directory):
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(directory.glob("*.py"))}


def _top_level(tree):
    """name -> node of each top-level function and class of a module."""
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def test_every_top_level_function_and_class_is_used():
    # loaded as a name or an attribute anywhere in the package: a function
    # that only tests or the README reach is not a path any command runs
    trees = _trees(PACKAGE)
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    unused = [f"{module}.{name}" for module, tree in trees.items()
              for name in _top_level(tree) if name not in loaded]
    assert unused == []


def _members(tree, name):
    """The names a test class `name` of one module defines or inherits
    from the module's other classes."""
    classes = {n: node for n, node in _top_level(tree).items()
               if isinstance(node, ast.ClassDef)}
    members, todo = set(), [name]
    while todo:
        node = classes.get(todo.pop())
        if node is not None:
            members |= {n.name for n in node.body
                        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
            todo += [base.id for base in node.bases if isinstance(base, ast.Name)]
    return members


def test_readme_names_only_tests_that_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    trees = _trees(TESTS)
    stale = []
    # node ids: tests/<module>.py, then a test or class, then a class's test
    for module, parts in re.findall(r"tests/(\w+)\.py((?:::\w+)*)", readme):
        names = parts.split("::")[1:]
        if module not in trees:
            stale.append(f"tests/{module}.py")
        elif names and (names[0] not in _top_level(trees[module]) or (
                len(names) > 1 and names[1] not in _members(trees[module], names[0]))):
            stale.append(f"tests/{module}.py{parts}")
    # bare names anywhere, module names aside
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    named = set(re.findall(r"\b(test_\w+|Test[A-Z]\w*)\b(?!\.py)", readme))
    stale += sorted(named - defined - set(trees))
    assert named, "the README names no test"
    assert stale == []


def test_readme_is_at_most_30000_bytes():
    # one statement per contract; measurements belong in CHANGES.md
    assert len((ROOT / "README.md").read_bytes()) <= 30_000


def test_readme_command_lines_parse():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.DOTALL)
             for line in block.splitlines() if line.startswith("aukit ")]
    parser = build_parser()
    commands = {parser.parse_args(shlex.split(line)[1:]).command for line in lines}
    # one example of every subcommand
    assert commands == set(parser._subparsers._group_actions[0].choices)
