import doctest
import importlib
import pkgutil

import pytest

import hermlab

# the package and every module in it, so that no module skips its doctests
MODULES = [hermlab.__name__] + [
    f"{hermlab.__name__}.{info.name}" for info in pkgutil.iter_modules(hermlab.__path__)
]


@pytest.mark.parametrize("name", MODULES, ids=lambda name: name.rpartition(".")[2])
def test_module_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module)
    assert result.failed == 0
