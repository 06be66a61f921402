"""The package's public names: `qpisde/__init__` maps each to the module that
defines it and imports that module at the name's first use, so every name is
the object its home module defines. What a bare `import qpisde` loads, and that
a submodule still resolves by attribute after it, is checked in a fresh
interpreter in `tests/test_coldstart.py`."""

import importlib

import pytest

import qpisde

NAMES = [
    "ConvergenceTable", "ErrorReport", "GbmParams",
    "InvalidInputError", "LocalErrorReport", "QpisdeError",
    "RegionGrid", "SchemeId", "SingularStepError",
    "coarsen", "convergence_study", "error_norms",
    "exact_solution", "generate_path", "iem_amplification",
    "integrate", "local_error_study", "milstein_amplification", "mix_seed",
    "qpi_exact_amplification", "qpi_paper_lhs",
    "region_scan", "region_to_csv", "region_to_svg",
]


def test_all_is_the_public_names():
    assert qpisde.__all__ == NAMES
    assert set(qpisde._EXPORTS) == set(qpisde.__all__)


@pytest.mark.parametrize("name", NAMES)
def test_name_is_the_object_its_home_module_defines(name):
    home = importlib.import_module(f"qpisde.{qpisde._EXPORTS[name]}")
    assert getattr(qpisde, name) is getattr(home, name)
    assert getattr(home, name).__module__ == home.__name__


@pytest.mark.parametrize("name", ["QpiBlockCoeffs", "qpi_block_solve_oracle"])
def test_the_block_solve_oracle_is_a_check_not_a_public_name(name):
    # tests and the bench import it from its home module
    assert getattr(importlib.import_module("qpisde.schemes"), name).__module__ == "qpisde.schemes"
    with pytest.raises(AttributeError, match=f"module 'qpisde' has no attribute '{name}'"):
        getattr(qpisde, name)


def test_unknown_name_is_no_attribute():
    assert not hasattr(qpisde, "nope")
    with pytest.raises(AttributeError, match="module 'qpisde' has no attribute 'nope'"):
        qpisde.nope  # noqa: B018


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from qpisde import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES
    assert all(namespace[name] is getattr(qpisde, name) for name in NAMES)
