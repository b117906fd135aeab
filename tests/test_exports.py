import importlib
import pkgutil

import pytest

import polyfrac

# __main__ runs the CLI on import and exports nothing
MODULES = ["polyfrac"] + [f"polyfrac.{info.name}" for info in
                          pkgutil.iter_modules(polyfrac.__path__)
                          if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name left in __all__ after its definition goes breaks star imports
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
