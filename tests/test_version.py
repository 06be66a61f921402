"""The package version is defined once, as `qpisde.__version__`; pyproject.toml
reads it from there, so a release bumps one file."""

import pathlib

import qpisde
from setuptools.config.pyprojecttoml import read_configuration

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_version_is_the_package_version():
    assert read_configuration(PYPROJECT, expand=True)["project"]["version"] == qpisde.__version__
