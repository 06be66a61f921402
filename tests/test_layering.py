"""Which package modules each module of `src/qpisde` imports, read from the source.

The rules every layer shares, the error types among them, live in `model`,
which every layer imports anyway; the CSV text module is imported only by the
modules that write CSV.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qpisde"


def _package_imports(tree):
    """(modules, names): the qpisde modules a source imports anywhere in it, relative or
    by name, and the names it binds by importing them from those modules."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.name.split(".")[1] for a in node.names if a.name.startswith("qpisde."))
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "qpisde"):
            module = (node.module or "").removeprefix("qpisde").lstrip(".")
            if module:
                modules.add(module)
                names.update(a.name for a in node.names)
            else:  # from . import a, b
                modules.update(a.name for a in node.names)
    return modules, names


def _defined(tree):
    """The names a module's top level assigns or defines, classes included."""
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                found.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return found


TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_package_modules():
    assert set(TREES) == {"__init__", "_csvtext", "analysis", "brownian", "cli", "model", "schemes", "stability"}


def test_only_the_csv_writers_import_the_csv_text_module():
    imports = {name: _package_imports(tree)[0] for name, tree in TREES.items()}
    assert {name for name, modules in imports.items() if "_csvtext" in modules} == {"cli", "stability"}
    assert imports["_csvtext"] == {"model"}


def test_block_rule_lives_in_model_alone():
    for rule in ("_BATCH_VALUES", "_block_rows"):
        assert [name for name, tree in TREES.items() if rule in _defined(tree)] == ["model"], rule
    # a copy bound by import would not follow a change to model._BATCH_VALUES, as tests make
    assert not any("_BATCH_VALUES" in _package_imports(tree)[1] for tree in TREES.values())


def test_error_types_live_in_model_alone():
    for error in ("QpisdeError", "InvalidInputError", "SingularStepError"):
        assert [name for name, tree in TREES.items() if error in _defined(tree)] == ["model"], error


def test_no_module_imports_errors():
    assert not any("errors" in _package_imports(tree)[0] for tree in TREES.values())
