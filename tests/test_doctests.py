import doctest
import importlib
import pkgutil

import gfgcover

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(gfgcover.__path__, gfgcover.__name__ + ".")
)


def test_doctests():
    assert "gfgcover.homology" in MODULES
    for name in MODULES:
        failures, _ = doctest.testmod(importlib.import_module(name))
        assert failures == 0, name
