"""Commands that draw no normal never import scipy or numpy.random, runs
that write no CSV never build the CSV writer's digit tables, and each step
loads only the `qpisde` modules it runs.

scipy.special costs ~0.3 s of a ~0.5 s cold start, and only the inverse
normal CDF of the path draws needs it, so `brownian` imports it at the first
draw, and numpy.random (~15 ms) with it for PCG64. The writer's tables are
built at the first CSV value for the same reason. These checks run in a
fresh interpreter, because the test session itself has scipy loaded and the
tables built.
"""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Runs each step in order and prints, per step, whether scipy and numpy.random are loaded after it.
SCRIPT = """
import contextlib, io, os, sys

def report(step):
    print(step, "scipy" in sys.modules, "numpy.random" in sys.modules)

import qpisde.cli
report("import")

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return qpisde.cli.main(argv)
        except SystemExit as exc:
            return exc.code

assert run(["stability", "--grid", "5"]) == 0
report("stability")
assert run(["--help"]) == 0
report("help")
assert run(["converge", "--paths", "0"]) == 2
report("exit-2")
assert run(["simulate", "--n", "4"]) == 0
report("simulate")
"""


def test_scipy_loaded_only_at_the_first_draw():
    done = subprocess.run([sys.executable, "-c", SCRIPT], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = {step: (scipy, random) for step, scipy, random in map(str.split, done.stdout.splitlines())}
    assert loaded == {"import": ("False", "False"), "stability": ("False", "False"), "help": ("False", "False"),
                      "exit-2": ("False", "False"), "simulate": ("True", "True")}


# Prints after each step whether the CSV writer's digit tables are built (the
# size of their cache, 0 or 1); the CSV stability run shows that it can change.
TABLES_SCRIPT = """
import contextlib, io
import qpisde.cli
from qpisde import _csvtext

def run(step, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert qpisde.cli.main(argv) == 0
    print(step, _csvtext._group_tables.cache_info().currsize)

print("import", _csvtext._group_tables.cache_info().currsize)
run("svg", ["stability", "--grid", "5", "--format", "svg"])
run("csv", ["stability", "--grid", "5"])
"""


def test_writer_tables_built_at_the_first_csv():
    done = subprocess.run([sys.executable, "-c", TABLES_SCRIPT],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    built = dict(line.split() for line in done.stdout.splitlines())
    assert built == {"import": "0", "svg": "0", "csv": "1"}


# Runs each step in order and prints, per step, the sorted `qpisde` modules loaded after it: the
# parser needs `schemes` and `stability`, and a command loads the other layers it runs.
MODULES_SCRIPT = """
import contextlib, io, sys

def report(step):
    print(step, *sorted(name for name in sys.modules if name.split(".")[0] == "qpisde"))

import qpisde.cli
report("import")

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return qpisde.cli.main(argv)
        except SystemExit as exc:
            return exc.code

assert run(["--help"]) == 0
report("help")
assert run(["converge", "--paths", "0"]) == 2
report("exit-2")
assert run(["stability", "--grid", "5", "--format", "svg"]) == 0
report("svg")
assert run(["stability", "--grid", "5"]) == 0
report("stability")
assert run(["simulate", "--n", "4"]) == 0
report("simulate")
assert run(["converge", "--n-list", "4,16", "--paths", "2"]) == 0
report("converge")
"""


def test_each_step_loads_only_the_modules_it_runs():
    done = subprocess.run([sys.executable, "-c", MODULES_SCRIPT], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = {step: set(modules) for step, *modules in map(str.split, done.stdout.splitlines())}
    at_import = {"qpisde", "qpisde.cli", "qpisde.model"}
    parser = at_import | {"qpisde.schemes", "qpisde.stability"}
    assert loaded == {"import": at_import, "help": parser, "exit-2": parser, "svg": parser,
                      "stability": parser | {"qpisde._csvtext"},
                      "simulate": parser | {"qpisde._csvtext", "qpisde.brownian"},
                      "converge": parser | {"qpisde._csvtext", "qpisde.brownian", "qpisde.analysis"}}


# A bare `import qpisde`, then its version, a public name and a submodule by attribute.
PACKAGE_SCRIPT = """
import sys

def report(step):
    print(step, "numpy" in sys.modules, *sorted(name for name in sys.modules if name.startswith("qpisde.")))

import qpisde
report("import")
assert qpisde.__version__
report("version")
assert qpisde.mix_seed.__module__ == "qpisde.brownian"
report("name")
assert qpisde.analysis.__name__ == "qpisde.analysis"
report("submodule")
"""


def test_bare_import_loads_nothing_until_a_name_is_used():
    done = subprocess.run([sys.executable, "-c", PACKAGE_SCRIPT], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = {step: (numpy, set(modules)) for step, numpy, *modules in map(str.split, done.stdout.splitlines())}
    path_layers = {"qpisde.model", "qpisde.brownian"}
    assert loaded == {"import": ("False", set()), "version": ("False", set()), "name": ("True", path_layers),
                      "submodule": ("True", path_layers | {"qpisde.schemes", "qpisde.analysis"})}


def _scipy_imports(node, top_level):
    """(lineno, at_module_level) of each scipy import under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            names = [child.module or ""]
        else:
            names = []
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            yield child.lineno, top_level
        # a function body runs when called; anything else runs at import
        nested = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        yield from _scipy_imports(child, top_level and not nested)


def test_no_module_imports_scipy_at_module_level():
    found = {path.name: list(_scipy_imports(ast.parse(path.read_text()), True))
             for path in sorted((SRC / "qpisde").glob("*.py"))}
    at_import = {name: [line for line, top in hits if top] for name, hits in found.items()}
    assert not any(at_import.values()), at_import
    # the scan sees the deferred import, so it would see a module-level one
    assert [top for _, top in found["brownian.py"]] == [False]
