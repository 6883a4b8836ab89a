import importlib
import pkgutil
import sys

import pytest
from hypothesis import settings

import lorentzbilliards
from lorentzbilliards import metric

# hypothesis draws some examples from constants it finds in the local
# modules loaded so far: load every package module before any test, so that
# a module one test imports late does not change the examples of the next
for info in pkgutil.iter_modules(lorentzbilliards.__path__):
    importlib.import_module(f"lorentzbilliards.{info.name}")

# the same examples on every run, no example database written or replayed,
# and no per-example deadline on a loaded machine
settings.register_profile("fixed", derandomize=True, database=None, deadline=None)
settings.load_profile("fixed")


@pytest.fixture
def input_checks(monkeypatch) -> list:
    """Wrap as_vector in every package module that binds it; the returned
    list grows by one per check."""
    calls = []
    original = metric.as_vector

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("lorentzbilliards"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    return calls
