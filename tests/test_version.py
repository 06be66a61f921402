"""The package version is defined twice, once for packaging and once for the
code; a release bumps both."""

import pathlib
import re

import qpisde

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_version_is_the_package_version():
    project = PYPROJECT.read_text().split("[project]", 1)[1].split("\n[", 1)[0]
    (version,) = re.findall(r'^version = "([^"]+)"$', project, flags=re.M)
    assert version == qpisde.__version__
