import doctest
import importlib

import pytest

MODULES = [
    "scalars",
    "weyl",
    "torus",
    "hall_littlewood",
    "spherical",
    "plancherel",
    "padic",
    "report",
    "cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"hermlab.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0
