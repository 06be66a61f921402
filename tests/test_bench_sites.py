"""The benchmark's traced layers name functions that are where it looks for them.

`bench/tracer.py` wraps each function of its `SITES` table at every module that
lists it, and skips a module that has no attribute of that name without a word,
so a function that moved or was renamed would read 0 calls and no run would
flag it. The table is read from the source; nothing under `bench/` is run or
edited. The ensemble check in `bench/workloads.py` also calls
`qpisde.schemes.qpi_block_solve_oracle` and reads the pair it returns through
`.alpha` and `.beta`, so the oracle keeps returning a named pair until the
bench reads it some other way. The tests skip when the checkout has no `bench/`.
"""

import ast
import importlib
import pathlib
import types

import numpy as np
import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
if not TRACER.is_file():
    pytest.skip("no bench/tracer.py in this checkout", allow_module_level=True)

SITES = next(ast.literal_eval(node.value) for node in ast.parse(TRACER.read_text()).body
             if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SITES"])


def _home(name):
    """The home module and attribute of the function a span name ("model.exact_solution") traces, and the function."""
    module, attr = name.rsplit(".", 1)
    return f"qpisde.{module}", attr, getattr(importlib.import_module(f"qpisde.{module}"), attr)


@pytest.mark.parametrize("name", SITES)
def test_each_layer_is_defined_in_its_home_module(name):
    home, attr, fn = _home(name)
    assert (fn.__module__, fn.__name__) == (home, attr)
    assert home in SITES[name]


@pytest.mark.parametrize("name", SITES)
def test_every_site_that_holds_the_name_holds_the_same_function(name):
    # a site may lack the name (cli calls schemes.integrate through the module), but not hold another object
    _, attr, fn = _home(name)
    for site in SITES[name]:
        assert getattr(importlib.import_module(site), attr, fn) is fn, site


def test_the_oracle_returns_the_pair_the_ensemble_check_reads():
    from qpisde.schemes import qpi_block_solve_oracle

    # called as the ensemble check calls it: a namespace for the params, numpy floats for the increments
    pair = qpi_block_solve_oracle(types.SimpleNamespace(mu=-1.0, sigma=0.5), 1.0 / 512,
                                  np.float64(0.03), np.float64(-0.02))
    alpha, beta = pair
    assert alpha != beta  # so a pair whose names are swapped fails below
    assert (pair.alpha, pair.beta) == (alpha, beta)
